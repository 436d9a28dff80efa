"""One ``specker`` CLI invocation that samples host speed while it runs.

Usage: ``python3 perfbench/speedchild.py STATS_JSON CLI_ARG...``

Behaves like ``python -m specker.cli CLI_ARG...`` (same output, same exit
code) and writes the host-speed probes it took, before and after the
CLI's work, to ``STATS_JSON``, so the ``verify`` workload can scale the run
by the speed of the process doing the work (see ``hostspeed.py``).
"""

import json
import runpy
import sys
from pathlib import Path

from hostspeed import HostSpeed


def main() -> int:
    stats_path = sys.argv[1]
    sys.argv = ["specker.cli", *sys.argv[2:]]
    code = 0
    speed = HostSpeed()
    speed.bracket()
    try:
        runpy.run_module("specker.cli", run_name="__main__", alter_sys=True)
    except SystemExit as done:
        code = done.code
    finally:
        speed.bracket()
        Path(stats_path).write_text(json.dumps(speed.to_json()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
