"""``repro-rpq serve`` with the benchmark's trace wrappers installed.

The server process records the same spans as the benchmark process,
plus the request-handling, result-payload and response-encoding spans
of the HTTP front door, and writes them to ``--trace-out`` when it is
stopped with Ctrl-C (SIGINT).  SIGUSR1 turns tracing on, SIGUSR2 off::

    python3 perfbench/serve_launcher.py --trace-out spans.json -- \\
        serve --graph graph.tsv -k 2 --workers 2 --port 0
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main
    from tracing import SERVER_SPANS, Tracer

    out = Path(argv[argv.index("--trace-out") + 1])
    serve_args = argv[argv.index("--") + 1 :]
    tracer = Tracer("server")
    write = asyncio.StreamWriter.write

    def counted_write(self, data):
        tracer.sent_bytes += len(data)
        return write(self, data)

    def switch(enabled: bool):
        def handler(_signum, _frame):
            tracer.enabled = enabled

        return handler

    signal.signal(signal.SIGUSR1, switch(True))
    signal.signal(signal.SIGUSR2, switch(False))
    asyncio.StreamWriter.write = counted_write
    try:
        with tracer.installed(SERVER_SPANS):
            return cli_main(serve_args)
    finally:
        asyncio.StreamWriter.write = write
        out.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
