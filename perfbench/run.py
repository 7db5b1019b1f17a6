#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload net-mixed --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
`perfbench` binary (perfbench/CMakeLists.txt, Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. The binary
runs the workload in reps (one JSON line each); this script applies the
work guard, takes the best rep for the timings in BEST_OF and medians over
the reps for everything else, checks the verdicts, writes a
full record with the host context to .bench_out/, and prints as its last
line {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

Exit code 0 whenever a result line is printed (a failed verdict shows as
"correct": false); 2 on bad arguments, a missing source tree or a failed
build.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("net-mixed", "net-verified", "sim-seq")

# msgs_per_req of a rep may leave its run's median by this share before the
# work guard flags it; flagged reps are reported, never folded into medians.
# The sequential driver is deterministic, so its tolerance is zero.
GUARD_TOLERANCE = {"net-mixed": 0.05, "net-verified": 0.05, "sim-seq": 0.0}

# End-to-end timings taken as the best rep of a run (see best_of); every
# other metric is the median over the reps.
BEST_OF = ("req_per_s", "write_p50_us", "combine_p50_us")
HIGHER_IS_BETTER = ("req_per_s",)


def metric_units(section):
    """name -> unit of one metric list of BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(SRC, "CMakeLists.txt")):
        log("perfbench: treeagg sources not found next to perfbench/")
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "perfbench")


def read_first(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_times():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields[:8])
    except (OSError, ValueError):
        return 0, 0


def source_id():
    """The commit when the checkout is a git work tree, else a digest of
    the sources the binary is built from."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0:
            return "git:" + commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def host_context(args, steal_share):
    cache = os.path.join(build_dir(), "CMakeCache.txt")
    compiler = read_first(cache, "CMAKE_CXX_COMPILER:").split("=", 1)[-1]
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()
        compiler_version = version[0] if version else compiler
    except (OSError, subprocess.SubprocessError):
        compiler_version = compiler
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_mhz": read_first("/proc/cpuinfo", "cpu MHz"),
        "build_type": read_first(cache, "CMAKE_BUILD_TYPE:").split("=")[-1],
        "compiler": compiler_version,
        "source": source_id(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "transport": ("loopback-tcp (127.0.0.1)"
                      if args.workload.startswith("net-") else "in-process"),
        # The share of CPU time the hypervisor gave to other guests while
        # the workload ran; high values mark a run made under contention.
        "cpu_steal_share": steal_share,
    }


def median_of(reps, key):
    values = [r["values"][key] for r in reps if key in r["values"]]
    return statistics.median(values) if values else 0.0


def best_of(reps, key):
    """The best value over the reps: the highest rate, the lowest latency.
    Interference from other guests of the host only ever slows a rep, so
    the best rep is the one least disturbed."""
    values = [r["values"][key] for r in reps if key in r["values"]]
    if not values:
        return 0.0
    return max(values) if key in HIGHER_IS_BETTER else min(values)


def apply_work_guard(reps, tolerance):
    """Flags reps whose msgs_per_req leaves the run median by more than
    `tolerance` (a share of the median); returns the median."""
    series = [r["values"]["msgs_per_req"] for r in reps
              if "msgs_per_req" in r["values"]]
    center = statistics.median(series) if series else 0.0
    for r in reps:
        value = r["values"].get("msgs_per_req", 0.0)
        r["flagged"] = abs(value - center) > tolerance * center
    return center


def check_pins(args, reps, problems):
    """sim-seq is deterministic: every rep sends the same number of
    messages, and it must equal the pinned count for the seed."""
    if args.workload != "sim-seq":
        return
    counts = {int(r["values"]["messages"]) for r in reps
              if "messages" in r["values"]}
    if len(counts) > 1:
        problems.append("sim-seq message counts differ across reps: %s"
                        % sorted(counts))
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)["sim-seq"]
    pinned = pins.get(str(args.seed))
    if pinned is None:
        log("perfbench: no pinned message count for seed %d; reps checked "
            "against each other only" % args.seed)
    elif counts and counts != {pinned}:
        problems.append("sim-seq messages %s != pinned %d for seed %d"
                        % (sorted(counts), pinned, args.seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 2

    os.makedirs(".bench_out", exist_ok=True)
    stem = os.path.join(".bench_out", "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", stem + ".trace.json"]
    problems = []
    steal_before, total_before = cpu_times()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(150, 4 * args.seconds))
        stdout, stderr = proc.stdout, proc.stderr
        if proc.returncode != 0:
            problems.append("perfbench exited with %d" % proc.returncode)
    except subprocess.TimeoutExpired as e:
        stdout = e.stdout.decode() if isinstance(e.stdout, bytes) else ""
        stderr = ""
        problems.append("perfbench timed out")
    steal_after, total_after = cpu_times()
    steal_share = round((steal_after - steal_before)
                        / max(1, total_after - total_before), 4)
    if stderr:
        log(stderr.rstrip())

    reps, process = [], {}
    for line in stdout.splitlines():
        if line.startswith("{"):
            record = json.loads(line)
            if "rep" in record:
                reps.append(record)
            else:
                process.update(record)
    for r in reps:
        if not r["ok"]:
            problems.append("rep %d: %s" % (r["rep"], r["error"]))
    if not reps:
        problems.append("no rep completed")
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    guard_center = apply_work_guard(untraced, GUARD_TOLERANCE[args.workload])
    apply_work_guard(traced, GUARD_TOLERANCE[args.workload])
    check_pins(args, reps, problems)

    attempted = max(1, int(sum(r["values"].get("requests", 0) for r in reps)))
    correct = not problems
    if args.trace:
        kept = [r for r in traced if not r["flagged"]]
        units = metric_units("per_layer")
        metrics = {name: median_of(kept, name) for name in units}
        untraced_rate = median_of(
            [r for r in untraced if not r["flagged"]], "req_per_s")
        metrics["trace.req_per_s_ratio"] = (
            median_of(kept, "req_per_s") / untraced_rate
            if untraced_rate else 0.0)
    else:
        kept = [r for r in untraced if not r["flagged"]]
        units = metric_units("end_to_end")
        metrics = {name: (best_of if name in BEST_OF else median_of)(kept, name)
                   for name in units}
        metrics["peak_rss_mb"] = process.get("peak_rss_mb", 0.0)

    context = host_context(args, steal_share)
    print("perfbench %s seed=%d trace=%d: %d reps, nproc=%s, %s MHz, %s, %s, "
          "%s, cpu steal %.4f" % (args.workload, args.seed, args.trace,
                                  len(reps), context["nproc"],
                                  context["cpu_mhz"], context["build_type"],
                                  context["compiler"], context["source"],
                                  steal_share))
    for r in reps:
        v = r["values"]
        print("  rep %d%s: %s req_per_s=%.0f messages=%d msgs_per_req=%.4f%s"
              % (r["rep"], " traced" if r["traced"] else "",
                 "ok" if r["ok"] else "FAIL (%s)" % r["error"],
                 v.get("req_per_s", 0), v.get("messages", 0),
                 v.get("msgs_per_req", 0),
                 " FLAGGED by the work guard" if r["flagged"] else ""))
    print("  work guard: median msgs_per_req %.4f, tolerance %g, %d flagged"
          % (guard_center, GUARD_TOLERANCE[args.workload],
             sum(r["flagged"] for r in reps)))
    for name, value in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, units[name]))
    print("  verdict: %s" % ("correct" if correct else "FAILED: "
                             + "; ".join(problems)))

    with open(stem + ".json", "w") as f:
        json.dump({"context": context, "problems": problems,
                   "reps": reps, "process": process,
                   "metrics": {k: {"value": v, "unit": units[k]}
                               for k, v in metrics.items()}}, f, indent=1)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
