"""One ``specker`` CLI invocation with per-module spans, for traced passes.

Usage: ``python3 perfbench/tracechild.py STATS_JSON CLI_ARG...``

Behaves like ``python -m specker.cli CLI_ARG...`` (same output, same exit
code) and also writes the span figures of the run to ``STATS_JSON``:
calls and self time per function, the ``import specker`` time, the
``_devries_ok`` cache hits and misses, and the work counters.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import specker  # noqa: F401
    import specker.cli

    import_s = time.perf_counter() - start
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.root(lambda: specker.cli.run(argv))
    finally:
        tracer.uninstall()
    cache = sys.modules["specker.proximity"]._devries_ok.cache_info()
    data = tracer.profile.to_json()
    data["counters"].update(
        import_s=import_s, devries_hits=cache.hits, devries_misses=cache.misses
    )
    Path(stats_path).write_text(json.dumps(data), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
