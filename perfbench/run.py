#!/usr/bin/env python3
"""Repository benchmark: builds the closed-loop driver and runs it.

One run (from the root of a checkout):

    python3 perfbench/run.py --workload update_hot_mem --seed 1 \
        --seconds 10 --trace 0

builds perfbench/ (and the library it links) into $CARGO_TARGET_DIR
(default .bench_build), runs one workload in one driver process, prints a
run descriptor and every metric by name and unit, and prints as its last
stdout line one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 gives the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones.

Steadiness check: --steady N runs the workload N times with seeds
--seed-base .. --seed-base+N-1 and prints, per metric, the median, the
quartiles and the spread (q3 - q1) / median next to the metric's bound;
--out FILE saves the runs. --compare A B compares two saved sets of runs
against the bounds. perfbench/README.md describes the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)


def driver_timeout_s(seconds):
    """Covers set-up, warm-up, the window, the traced run's 4-client leg
    (half a window), probes and oracle; 150 s at the default 30 s window."""
    return 90 + 2 * seconds


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(REPO_DIR, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e), 2)


def build_dir():
    return os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build_env():
    """Environment whose $TMPDIR is a directory inside the build tree, so
    the compiler writes nothing outside the checkout."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def data_dir():
    """Where the file workload keeps its page and WAL files: <build dir>/tmp,
    so a run reads and writes nothing outside its checkout."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return os.path.abspath(tmp)


def build():
    """Configures and builds perfbench/ once; later calls are no-op builds."""
    if not os.path.isdir(os.path.join(REPO_DIR, "src")) or not os.path.isfile(
            os.path.join(REPO_DIR, "CMakeLists.txt")):
        fail("no burtree sources next to %s; nothing to build" % BENCH_DIR, 2)
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    env = build_env()
    with open(log_path, "w") as log:
        for cmd in steps:
            r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=env)
            if r.returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: %s (log: %s)" % (" ".join(cmd), log_path))
    return os.path.join(out, "perfbench_driver")


def fs_type(path):
    """Filesystem type of the mount holding `path` (from /proc/self/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1].replace("\\040", " ")
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) >= len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_list(cpus):
    """{0,1,2,5} -> '0-2,5'."""
    runs = []
    for c in sorted(cpus):
        if runs and c == runs[-1][1] + 1:
            runs[-1][1] = c
        else:
            runs.append([c, c])
    return ",".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in runs)


def source_commit():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        r = subprocess.run(["git", "-C", REPO_DIR, "rev-parse",
                            "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        out = r.stdout.split()
        if r.returncode == 0 and len(out) == 2 and \
                os.path.realpath(out[0]) == os.path.realpath(REPO_DIR):
            return out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt", "cmake"):
        base = os.path.join(REPO_DIR, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in sorted(paths):
            h.update(os.path.relpath(p, REPO_DIR).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "no-git:sha256:" + h.hexdigest()[:16]


def descriptor(result, seed, tmp):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": result.get("compiler"),
        "build_type": result.get("build_type"),
        "commit": source_commit(),
        "cpu_affinity": cpu_list(os.sched_getaffinity(0)),
        "data_dir": tmp,
        "data_dir_fs": fs_type(tmp),
        "seed": seed,
    }


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:]]
        return v[7], sum(v)
    except (OSError, ValueError, IndexError):
        return 0, 0


def run_driver(driver, workload, seed, seconds, trace):
    tmp = data_dir()
    steal0, total0 = cpu_ticks()
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--dir", tmp]
    timeout = driver_timeout_s(seconds)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % timeout)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver exited %d without a result" % r.returncode)
    result["descriptor"] = descriptor(result, seed, tmp)
    # CPU time the host withheld from this machine during the run: the
    # cause the README names for whole runs that collapse.
    steal1, total1 = cpu_ticks()
    result["info"]["cpu_steal_frac"] = (
        (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0)
    return result


def check_names(spec, result):
    key = "per_layer" if result["trace"] else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics differ from BENCHMARK.json %s: missing %s, extra %s, "
             "unit mismatch %s" % (key, missing, extra, units))


def report(result):
    d = result["descriptor"]
    print("descriptor: " + json.dumps(d, sort_keys=True))
    info = result["info"]
    print("workload %s seed %d trace %d: %d ops in %.3f s window, %d failed "
          "(failed_op_frac %.6g), %d abort retries" % (
              result["workload"], result["seed"], result["trace"],
              info["ops"], info["window_s"], result["failed"],
              info["failed_op_frac"], info["abort_retries"]))
    if result["workload"].endswith("_file"):
        print("note: page and WAL files live in %s (%s); latencies are this "
              "machine's page-cache and fdatasync numbers, not a dedicated "
              "device's" % (
                  d["data_dir"], d["data_dir_fs"]))
    for name in sorted(info):
        print("  info %-28s %.10g" % (name, info[name]))
    for name, m in sorted(result["metrics"].items()):
        print("  %-32s %.10g %s" % (name, m["value"], m["unit"]))
    for e in result["errors"]:
        print("error: " + e)


def one_run(args):
    spec = load_spec()
    driver = build()
    result = run_driver(driver, args.workload, args.seed, args.seconds,
                        args.trace)
    check_names(spec, result)
    report(result)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] and result["failed"] == 0 else 1


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def bounds(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in spec[key]}


def steady(args):
    spec = load_spec()
    driver = build()
    meta = bounds(spec, args.trace)
    runs = []
    for i in range(args.steady):
        seed = args.seed_base + i
        r = run_driver(driver, args.workload, seed, args.seconds, args.trace)
        check_names(spec, r)
        ok = r["correct"] and r["failed"] == 0
        print("run %d seed %d: %s" % (i + 1, seed, "ok" if ok else
                                      "FAILED " + "; ".join(r["errors"])))
        values = {k: v["value"] for k, v in r["metrics"].items()}
        runs.append({"seed": seed, "correct": ok, "metrics": values,
                     "info": r["info"], "descriptor": r["descriptor"]})
    flagged = print_spread(runs, meta)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "seconds": args.seconds, "runs": runs}, f, indent=1)
    bad = [r["seed"] for r in runs if not r["correct"]]
    if bad:
        print("runs with failed ops or oracle errors: seeds %s" % bad)
    return 1 if flagged or bad else 0


def print_spread(runs, meta):
    print("%-32s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3",
                                            "spread", "bound"))
    flagged = False
    for name in sorted(runs[0]["metrics"]):
        vals = [r["metrics"][name] for r in runs]
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = meta.get(name, {}).get("bound")
        flag = ""
        if bound is not None and spread > bound:
            flag, flagged = "SPREAD>BOUND", True
        print("%-32s %14.6g %14.6g %14.6g %8.4f %6s %s" % (
            name, med, q1, q3, spread, "-" if bound is None else bound, flag))
    return flagged


def compare(args):
    spec = load_spec()
    with open(args.compare[0]) as f:
        a = json.load(f)
    with open(args.compare[1]) as f:
        b = json.load(f)
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        fail("the two sets ran different workloads or trace modes", 2)
    def machine(s):
        return {(r["descriptor"]["nproc"], r["descriptor"]["cpu_model"],
                 r["descriptor"]["cpu_affinity"]) for r in s["runs"]}

    if machine(a) != machine(b):
        fail("the two sets come from different machine classes: %s vs %s" % (
            sorted(machine(a)), sorted(machine(b))), 2)
    meta = bounds(spec, a["trace"])
    print("%-32s %14s %14s %9s %6s" % ("metric", "median A", "median B",
                                       "worse by", "bound"))
    worse = False
    for name in sorted(a["runs"][0]["metrics"]):
        ma = statistics.median(r["metrics"][name] for r in a["runs"])
        mb = statistics.median(r["metrics"][name] for r in b["runs"])
        m = meta.get(name, {})
        sign = 1 if m.get("better", "lower") == "lower" else -1
        change = sign * (mb - ma) / abs(ma) if ma else 0.0
        bound = m.get("bound")
        flag = ""
        if bound is not None and change > bound:
            flag, worse = "WORSE", True
        print("%-32s %14.6g %14.6g %9.4f %6s %s" % (
            name, ma, mb, change, "-" if bound is None else bound, flag))
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="N",
                   help="run the workload N times and print the spreads")
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--out", help="--steady: save the runs to this file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two files saved by --steady --out")
    args = p.parse_args()
    if args.compare:
        return compare(args)
    spec = load_spec()
    if not args.workload:
        p.error("--workload is required (BENCHMARK.json lists %s)" % [
            w["name"] for w in spec["workloads"]])
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.steady:
        return steady(args)
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
