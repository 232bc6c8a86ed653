#!/usr/bin/env python3
"""The repository's benchmark of bas-serverd.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        Builds the release daemon and the load generator from source
        (into $CARGO_TARGET_DIR, default .bench_build), runs one workload
        once and prints its metrics; the last line of standard output is
        one JSON object.

    python3 perfbench/run.py suite --runs 10 [--seed N] [--seconds S]
                             [--workloads a,b] [--out FILE]
        Runs every workload (or the named ones) RUNS times, each run on
        its own seed (N, N+1, ...), and writes a result file with the
        host fingerprint and each metric's median and quartiles.

    python3 perfbench/run.py compare PARENT.json CHILD.json
        Compares two result files by the rules in perfbench/stats.py.

    python3 perfbench/run.py ab PARENT_DIR CHILD_DIR [--pairs 10]
                             [--seed N] [--seconds S] [--workloads a,b]
                             [--out-dir DIR]
        Runs the benchmark of two checkouts in alternating pairs on the
        same seeds, writes both result files, and compares them.

The daemon is built with the workspace's default features; each run
reports whether the SIMD kernels were active, and the result file
records it with the host.
"""

import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

BENCH_NAME = os.path.basename(HERE)


def target_dir(root):
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")


def build(root):
    """Builds bas-serverd (the repository's workspace) and the load
    generator (its own package); returns (server, perfbench) paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir(root))
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "bas-server",
         "--bin", "bas-serverd"],
        cwd=root, env=env, check=True, stdout=sys.stderr)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join(root, BENCH_NAME, "Cargo.toml")],
        cwd=root, env=env, check=True, stdout=sys.stderr)
    release = os.path.join(target_dir(root), "release")
    return os.path.join(release, "bas-serverd"), os.path.join(release, "perfbench")


def single_run(argv):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit(f"{root} is not a checkout of the repository (no Cargo.toml)")
    try:
        server, bench = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"build failed: {e}")
    cmd = [bench, "--server", server,
           "--workloads", os.path.join(root, BENCH_NAME, "workloads"), *argv]
    proc = subprocess.run(cmd, cwd=root)
    sys.exit(proc.returncode)


def host_fingerprint(simd):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "simd": simd,
            "platform": platform.platform()}


def commit_of(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        return os.environ.get("PERFBENCH_COMMIT", "unknown")


def workload_names(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run_once(root, workload, seed, seconds, trace=0):
    """One run in checkout `root`; returns the parsed result line and the
    `metric` lines printed before it."""
    cmd = [sys.executable, os.path.join(root, BENCH_NAME, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} in {root}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["simd"] = "simd true" in lines[0]
    extra = stats.parse_metric_lines(lines[:-1])
    for name, (value, unit) in extra.items():
        result["metrics"].setdefault(name, {"value": value, "unit": unit})
    return result


def result_set(root, rows, seeds, seconds):
    """The schema-2 result file of one checkout: host, commit, and per
    workload every run's metrics with their median and quartiles."""
    simd = any(r["simd"] for runs in rows.values() for r in runs)
    return {"schema": 2, "host": host_fingerprint(simd), "commit": commit_of(root),
            "seconds": seconds, "runs": len(seeds),
            "workloads": {n: stats.summarize(runs, seeds=seeds) for n, runs in rows.items()}}


def suite(root, names, runs, seed, seconds, out):
    rows = {}
    seeds = [seed + i for i in range(runs)]
    for name in names:
        rows[name] = []
        for s in seeds:
            r = run_once(root, name, s, seconds)
            rows[name].append(r)
            print(f"{name} seed {s}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), file=sys.stderr)
    result = result_set(root, rows, seeds, seconds)
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    print(stats.format_summary(result))
    return result


def bounds_of(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    extra = stats.load_extra_bounds(os.path.join(root, BENCH_NAME, "bounds.json"))
    return stats.bounds_from(bench, extra)


def ab(parent, child, names, pairs, seed, seconds, out_dir):
    sides = {"parent": parent, "child": child}
    rows = {s: {n: [] for n in names} for s in sides}
    for name in names:
        for i in range(pairs):
            order = ["parent", "child"] if i % 2 == 0 else ["child", "parent"]
            for side in order:
                rows[side][name].append(run_once(sides[side], name, seed + i, seconds))
    results = {}
    seeds = [seed + i for i in range(pairs)]
    for side, root in sides.items():
        results[side] = result_set(root, rows[side], seeds, seconds)
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{side}.json"), "w") as f:
            json.dump(results[side], f, indent=1)
    report = stats.compare(results["parent"], results["child"], bounds_of(child))
    print(stats.format_compare(report))


def flag(argv, name, default, cast=str):
    if name in argv:
        i = argv.index(name)
        return cast(argv[i + 1])
    return default


def main(argv):
    if not argv or argv[0].startswith("--"):
        single_run(argv)
    cmd, rest = argv[0], argv[1:]
    root = os.getcwd()
    seconds = flag(rest, "--seconds", None, int)
    if seconds is None:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
    seed = flag(rest, "--seed", 1, int)
    if cmd == "suite":
        names = flag(rest, "--workloads", None)
        names = names.split(",") if names else workload_names(root)
        out = flag(rest, "--out", os.path.join(root, ".bench_results",
                                               time.strftime("suite-%Y%m%d-%H%M%S.json")))
        os.makedirs(os.path.dirname(out), exist_ok=True)
        suite(root, names, flag(rest, "--runs", 10, int), seed, seconds, out)
    elif cmd == "compare":
        with open(rest[0]) as f:
            parent = json.load(f)
        with open(rest[1]) as f:
            child = json.load(f)
        print(stats.format_compare(stats.compare(parent, child, bounds_of(root))))
    elif cmd == "ab":
        parent, child = os.path.abspath(rest[0]), os.path.abspath(rest[1])
        names = flag(rest, "--workloads", None)
        names = names.split(",") if names else workload_names(child)
        out_dir = flag(rest, "--out-dir", os.path.join(root, ".bench_results", "ab"))
        ab(parent, child, names, flag(rest, "--pairs", 10, int), seed, seconds, out_dir)
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
