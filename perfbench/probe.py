"""One set-up probe: import a version of the package and warm a workload's caches.

    python3 perfbench/probe.py WORKLOAD src|seed

`src` is the package under ``src/``; `seed` is the frozen copy under
``perfbench/seed/`` that operations are timed against.  `run.py` times
probes of both versions in turn.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wls  # noqa: E402


def main(argv: list[str]) -> int:
    name, version = argv
    pkg = wls.Package() if version == "src" else wls.Package.seed()
    wls.WORKLOADS[name](pkg).warmup(measure=False)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
