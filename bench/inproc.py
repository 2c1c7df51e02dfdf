"""Run one relistab subcommand in-process, optionally traced.

    python3 bench/inproc.py RESULT.json STDOUT [--trace] -- SUBCOMMAND ARGS...

Calls ``relistab.cli.main(ARGS)`` in a fresh interpreter, with the
subcommand's standard output sent to STDOUT, and writes
``{"code", "main_s", "spans"}`` to RESULT.json: the exit code, the wall
time of the ``main`` call alone (no interpreter start or imports), and the
spans recorded while it ran (empty unless ``--trace``).
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

from spans import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    split = argv.index("--")
    result_path, stdout_path, *flags = argv[:split]
    sys.path.insert(0, str(SRC))
    import relistab.cli

    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        if "--trace" in flags:
            stack.enter_context(tracer)
        with open(stdout_path, "w", encoding="utf-8") as handle, \
                contextlib.redirect_stdout(handle):
            start = time.perf_counter()
            code = relistab.cli.main(argv[split + 1:])
            main_s = time.perf_counter() - start
    Path(result_path).write_text(
        json.dumps({"code": code, "main_s": main_s, "spans": tracer.spans}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
