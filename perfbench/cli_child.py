"""Run one nrtlab CLI subcommand with the layer trace on.

    python3 perfbench/cli_child.py SPANS_DIR <subcommand> [cli flags...]

This is the traced form of `python -m nrtlab.cli <subcommand> ...`: it
calls the same `nrtlab.cli.main`, with the layer functions wrapped, and
writes its spans to SPANS_DIR/<pid>.json when the subcommand returns.
"""

import os
import sys
from pathlib import Path

import nrtlab.cli

import tracing


def main() -> int:
    spans_dir, argv = Path(sys.argv[1]), sys.argv[2:]
    recorder = tracing.Recorder()
    recorder.op = os.getpid()
    with tracing.patched(recorder):
        code = nrtlab.cli.main(argv)
    recorder.dump(spans_dir / f"{os.getpid()}.json")
    return code


if __name__ == "__main__":
    sys.exit(main())
