"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

Runs every workload run.py knows, identity-sweep too, at its smallest size
(one round), untraced and traced, and checks that the result line has the
contract's keys, that every op passed, and that every end-to-end and
per-layer metric named in BENCHMARK.json is printed under its name and
unit.  Last, it runs the benchmark from a directory that holds only
BENCHMARK.json and perfbench/ and checks that it fails without printing a
result.  Takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

from run import ROUND_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_workload(spec, workload, trace):
    proc = _run(ROOT, workload, trace)
    problems = []
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"ops: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        problems.append(f"metric names differ: missing "
                        f"{sorted({m['name'] for m in wanted} - set(got))}, extra "
                        f"{sorted(set(got) - {m['name'] for m in wanted})}")
    for metric in wanted:
        entry = got.get(metric["name"])
        if entry is None:
            continue
        if entry["unit"] != metric["unit"]:
            problems.append(f"{metric['name']}: unit {entry['unit']} != {metric['unit']}")
        if not trace and not entry["value"] > 0:
            problems.append(f"{metric['name']}: value {entry['value']} is not positive")
    return problems


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "oracle-sweep", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without sources: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    failures = 0
    # every workload run.py knows, also those BENCHMARK.json leaves out
    for workload in sorted(ROUND_S):
        for trace in (0, 1):
            problems = check_workload(spec, workload, trace)
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else problems}")
    problems = check_refuses_without_sources()
    failures += bool(problems)
    print(f"refuses without sources: {'ok' if not problems else problems}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
