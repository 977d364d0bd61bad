"""One measured process of the benchmark; run.py starts it.

    python3 perfbench/worker.py --workload W --seed S --rounds R --t0 T
        --cache DIR [--setup-only] [--spans FILE]

``--t0`` is the parent's perf_counter just before it started this process
(CLOCK_MONOTONIC is shared by all processes), so set-up is timed from
interpreter start.  The last stdout line is one JSON object.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
JOBS_FILE = os.path.join(HERE, "jobs.json")
CLI_TIMEOUT_S = 60


def _library_sweep(args, rec):
    import workloads as w

    if args.workload == "oracle-sweep":
        classes = [(q, m) for q, m, _a, _n in w.ORACLE_ROUND]
        make, op = w.oracle_population, w.oracle_op
    else:
        classes = list(w.IDENTITY_CLASSES)
        make, op = w.identity_population, w.identity_op
    for q in sorted({q for q, _m in classes}):
        w.base_field(q)
    w.witt_tables_for(classes)
    population = make(args.seed, args.rounds)
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        return {"setup_s": setup_s}

    results = []
    cosets = 0
    started = time.perf_counter()
    for index, (cls, *operands) in enumerate(population):
        if rec is not None:
            rec.op_id = index
        t = time.perf_counter()
        try:
            ok = op(*operands)
        except Exception as exc:  # a failed op is counted and the run goes on
            ok = False
            print(f"op {index} {cls}: {type(exc).__name__}: {exc}", file=sys.stderr)
        results.append([list(cls), time.perf_counter() - t, bool(ok)])
        if args.workload == "oracle-sweep":
            q, _m, a, d = cls
            cosets += w.oracle_cosets(q, a, d)
    measured_s = time.perf_counter() - started
    out = {"setup_s": setup_s, "measured_s": measured_s, "ops": results,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if args.workload == "oracle-sweep":
        out["cosets"] = cosets
    return out


def cli_jobs(seed):
    """The fixed job list; seeded jobs take a --seed derived from ``seed``."""
    with open(JOBS_FILE) as fh:
        jobs = json.load(fh)["jobs"]
    out = []
    for k, job in enumerate(jobs):
        argv = list(job["argv"])
        if job.get("seeded"):
            argv += ["--seed", str((seed * 7919 + k) % 100003)]
        out.append((job["name"], argv, job.get("pinned"), job.get("flags", []),
                    job.get("oracle_qad")))
    return out


def check_cli_output(rc, stdout, pinned, flags):
    if rc != 0:
        return False
    if pinned is not None:
        return stdout.strip() == pinned
    try:
        result = json.loads(stdout)
    except ValueError:
        return False
    return all(result.get(flag) is True for flag in flags)


def _cli_env(cache):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["RAMIFY_WITT_CACHE"] = cache
    env["PYTHONHASHSEED"] = "0"
    return env


def _cli_batch(args):
    """Run the job list ``rounds`` times, each pass with a fresh empty Witt
    cache, one process per job, one after another."""
    from workloads import oracle_cosets

    jobs = cli_jobs(args.seed)
    traced = args.spans is not None
    results = []
    child_stats = []
    cosets = 0
    started = time.perf_counter()
    for rnd in range(args.rounds):
        cache = os.path.join(args.cache, f"pass{rnd}")
        os.makedirs(cache)
        env = _cli_env(cache)
        for k, (name, argv, pinned, flags, oracle_qad) in enumerate(jobs):
            stats_file = None
            if traced:
                stats_file = os.path.join(args.cache, f"stats-{rnd}-{k}.json")
                cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), stats_file, *argv]
            else:
                cmd = [sys.executable, "-m", "ramify.cli", *argv]
            t = time.perf_counter()
            env["PERFBENCH_T_SPAWN"] = repr(t)
            try:
                proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                      timeout=CLI_TIMEOUT_S, cwd=ROOT)
                ok = check_cli_output(proc.returncode, proc.stdout, pinned, flags)
            except subprocess.TimeoutExpired:
                ok = False
            dt = time.perf_counter() - t
            if not ok:
                print(f"cli job {name} failed", file=sys.stderr)
            results.append([[name], dt, ok])
            if oracle_qad is not None:
                cosets += oracle_cosets(*oracle_qad)
            if traced and os.path.exists(stats_file):
                with open(stats_file) as fh:
                    child_stats.append(json.load(fh))
    measured_s = time.perf_counter() - started
    out = {"measured_s": measured_s, "ops": results, "cosets": cosets,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
    if traced:
        out["children"] = child_stats
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    os.environ["RAMIFY_WITT_CACHE"] = args.cache
    sys.path.insert(0, SRC)
    if args.workload == "cli-batch":
        out = _cli_batch(args)
    else:
        rec = None
        if args.spans is not None:
            import tracing

            rec = tracing.Recorder()
            tracing.install(rec, args.cache)
        out = _library_sweep(args, rec)
        if rec is not None:
            out["trace"] = rec.summary()
            rec.write_spans(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
