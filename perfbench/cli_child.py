"""Start ``ramify.cli`` with the benchmark's tracing wrappers installed.

    python3 perfbench/cli_child.py STATS_FILE <ramify cli arguments...>

Runs one CLI job exactly as ``python -m ramify.cli`` would, then writes the
per-layer span summary of the process, and the time from the parent's
spawn (``PERFBENCH_T_SPAWN``) to entering ``main``, to STATS_FILE.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main():
    stats_file, argv = sys.argv[1], sys.argv[2:]
    import tracing
    from ramify import cli

    rec = tracing.Recorder()
    tracing.install(rec, os.environ["RAMIFY_WITT_CACHE"])
    start_s = time.perf_counter() - float(os.environ["PERFBENCH_T_SPAWN"])
    rec.op_id = 0
    try:
        code = cli.main(argv)
    finally:
        summary = rec.summary()
        summary["cli.start_s"] = start_s
        with open(stats_file, "w") as fh:
            json.dump(summary, fh)
        rec.write_spans(stats_file[: -len(".json")] + ".spans.tsv")
    return code


if __name__ == "__main__":
    sys.exit(main())
