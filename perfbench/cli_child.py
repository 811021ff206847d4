"""Run one qprep3 CLI command in this interpreter with layer tracing on.

    python3 perfbench/cli_child.py <spans.json> synth <file> [flags]

Behaves like `python -m qprep3 synth <file> [flags]` (same output and exit
code); the spans and branch counts go to <spans.json> when the command ends.
Needs the package on PYTHONPATH.
"""
import sys

import qprep3
import qprep3.cli

from spans import Tracer


def main():
    tracer = Tracer()
    tracer.install(qprep3)
    try:
        code = qprep3.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    raise SystemExit(code)


if __name__ == "__main__":
    main()
