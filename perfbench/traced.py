"""Run one benchmark child process under the tracer.

    python3 perfbench/traced.py SPANS cli ARGS...   # graphstab CLI
    python3 perfbench/traced.py SPANS lab ARGS...   # perfbench/lab.py

Installing the tracer rebinds the traced names in every graphstab module,
the CLI included; lab.py is imported afterwards and reads those names from
the modules at call time. Spans are written to SPANS when the target returns
or raises.
"""

import importlib
import sys

from tracer import Tracer

TARGET_MODULES = {"cli": "graphstab.cli", "lab": "lab"}


def main(argv) -> int:
    if len(argv) < 2 or argv[1] not in TARGET_MODULES:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, target, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        module = importlib.import_module(TARGET_MODULES[target])
        return module.main(rest)
    finally:
        tracer.uninstall()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
