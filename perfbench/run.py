"""The ramify benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see README.md): oracle-sweep, identity-sweep, cli-batch;
BENCHMARK.json lists the first and the last.  Each runs in one process on
one thread as a closed loop with one client; every op checks its own
output exactly.  ``--seconds`` sets the amount of work:
the number of rounds that take about that long on the reference machine
(2 vCPU, Python 3.11), so both sides of a comparison run the same ops.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
seed twice, untraced and traced, on half the rounds each, and prints the
per-layer metrics with the tracing overhead.  Run it from the root of a
checkout that holds ``src/ramify``.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
DEADLINE_S = 170

# nominal seconds one round takes on the reference machine; rounds are
# whole so that every run does the same mix of classes
ROUND_S = {"oracle-sweep": 7.5, "identity-sweep": 10.0, "cli-batch": 8.5}
SETUP_SAMPLES = {"oracle-sweep": 5, "identity-sweep": 5, "cli-batch": 11}

SPANNED_CALLS = (
    "epsilon.oracle", "epsilon.closed", "epsilon.gauss",
    "series.mul", "series.inverse", "series.substitute_dilated", "series.decompose",
    "witt.add", "witt.reduce", "witt.dilate",
    "characters.pairing", "characters.char_eval",
    "cyclo.mul", "cyclo.inverse", "cyclo.pretty", "cyclo.root_of_unity",
)
SELF_ONLY = (
    "fields.build", "lft.verify_laumon", "lft.congruence", "lft.vanishing_support",
    "lft.descriptor", "cli.run", "jsonio.decode", "jsonio.encode",
)
COUNTS = (
    "fields.zq_mul.calls", "fields.fq_mul.calls", "fields.fq_add.calls",
    "fields.build.calls", "witt.table.from_memory", "witt.table.from_disk",
    "witt.table.from_sympy", "witt.table.sympy_s", "witt.table.disk_s",
)


class BenchError(Exception):
    pass


def _deadline_left(started):
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError("the run exceeded its time limit")
    return left


def _worker(args, started, rounds, cache, *, setup_only=False, spans=None):
    os.makedirs(cache, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--rounds", str(rounds), "--cache", cache]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", spans]
    # a fixed hash seed keeps set and dict iteration, and so each op's work,
    # the same from run to run of one seed
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = _deadline_left(started)
    t0 = time.perf_counter()
    # own session, so a worker that runs too long goes down with its CLI child
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("a worker exceeded the run's time limit")
    if stderr:
        sys.stderr.write(stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _cli_setup_s(started, cache):
    """Time for a fresh interpreter to import ramify.cli and exit."""
    env = dict(os.environ, PYTHONPATH=SRC, RAMIFY_WITT_CACHE=cache, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    # capture the pipes: communicate() then wakes when the child closes them,
    # while a bare wait with a timeout polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import ramify.cli"], env=env, cwd=ROOT,
                   check=True, capture_output=True, timeout=_deadline_left(started))
    return time.perf_counter() - t0


def _percentile(sorted_values, frac, steps=32):
    """Harrell-Davis estimate of a quantile: the order statistics weighted by
    the Beta(frac (n+1), (1-frac) (n+1)) mass over ((i-1)/n, i/n].  It moves
    less than one order statistic when the rank falls between two op classes
    of different cost.  The masses come from the midpoint rule, which never
    evaluates the density at 0 or 1, and are normalized to sum to 1."""
    n = len(sorted_values)
    a, b = frac * (n + 1), (1 - frac) * (n + 1)
    norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            mass += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - norm)
        weights.append(mass)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, sorted_values)) / total


def _setup_samples(args, started, run_dir, rounds):
    """Set-up times of fresh processes.  For the library sweeps the measured
    worker adds the last sample, so one fewer is taken here."""
    samples = []
    for k in range(SETUP_SAMPLES[args.workload] - (args.workload != "cli-batch")):
        cache = os.path.join(run_dir, f"setup{k}")
        if args.workload == "cli-batch":
            os.makedirs(cache)
            samples.append(_cli_setup_s(started, cache))
        else:
            samples.append(_worker(args, started, rounds, cache, setup_only=True)["setup_s"])
    return samples


def end_to_end(args, started, run_dir, rounds):
    setups = _setup_samples(args, started, run_dir, rounds)
    res = _worker(args, started, rounds, os.path.join(run_dir, "measured"))
    if "setup_s" in res:
        setups.append(res["setup_s"])
    lat = sorted(dt for _cls, dt, _ok in res["ops"])
    n = len(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / res["measured_s"], "1/s"),
        "op_s_p50": (_percentile(lat, 0.5), "s"),
        "op_s_p90": (_percentile(lat, 0.9), "s"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB"),
    }
    record = {"setup_samples": len(setups), "percentile_samples": n,
              "op_s_max": lat[-1], "measured_s": res["measured_s"]}
    if res.get("cosets"):
        record["cosets"] = res["cosets"]
        record["cosets_per_s"] = res["cosets"] / res["measured_s"]
    return metrics, res["ops"], record


def _merge_children(children):
    merged = {"self_s": {}, "total_s": {}, "calls": {}, "counts": {}}
    for child in children:
        for part in merged:
            for key, value in child[part].items():
                merged[part][key] = merged[part].get(key, 0) + value
    return merged


def per_layer(args, started, run_dir, rounds):
    plain = _worker(args, started, rounds, os.path.join(run_dir, "untraced"))
    spans = os.path.join(run_dir, "spans.tsv")
    traced = _worker(args, started, rounds, os.path.join(run_dir, "traced"), spans=spans)
    if args.workload == "cli-batch":
        children = traced["children"]
        tr = _merge_children(children)
        start_s = statistics.median(c["cli.start_s"] for c in children) if children else 0.0
    else:
        tr = traced["trace"]
        start_s = 0.0
    self_s, calls, counts = tr["self_s"], tr["calls"], tr["counts"]
    metrics = {}
    for name in SPANNED_CALLS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for key in COUNTS:
        metrics[key] = (counts.get(key, 0), "s" if key.endswith("_s") else "count")
    cosets = traced.get("cosets", 0)
    oracle_s = tr["total_s"].get("epsilon.oracle", 0.0)
    metrics["epsilon.oracle.cosets"] = (cosets, "count")
    metrics["epsilon.oracle.us_per_coset"] = (1e6 * oracle_s / cosets if cosets else 0.0, "us")
    metrics["cli.start_s"] = (start_s, "s")
    metrics["trace.overhead_frac"] = (traced["measured_s"] / plain["measured_s"] - 1.0, "frac")
    ops = plain["ops"] + traced["ops"]
    record = {"traced_ops": len(traced["ops"]), "untraced_ops": len(plain["ops"])}
    if os.path.exists(spans):
        with open(spans) as fh:
            record["spans"] = sum(1 for _line in fh) - 1
    return metrics, ops, record


def _source_id():
    """git sha when the checkout is a repository, else a digest of src/ramify."""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return {"git_sha": lines[1]}
    except (OSError, subprocess.TimeoutExpired):
        pass
    import hashlib

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ramify")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": None, "src_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "ramify", "cli.py")):
        print(f"no ramify sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2

    rounds = max(1, math.ceil(args.seconds / ROUND_S[args.workload]))
    run_dir = os.path.join(OUT, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        if args.trace:
            metrics, ops, record = per_layer(args, started, run_dir, max(1, rounds // 2))
        else:
            metrics, ops, record = end_to_end(args, started, run_dir, rounds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failed = sum(1 for _cls, _dt, ok in ops if not ok)
    record.update(_source_id())
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": max(1, rounds // 2) if args.trace else rounds,
        "ops": len(ops), "failed": failed, "fail_frac": failed / len(ops),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "wall_s": time.perf_counter() - started,
    })
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump({"record": record, "metrics": metrics, "ops": ops}, fh, indent=1)
    print(json.dumps({"record": record}), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
