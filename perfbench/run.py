#!/usr/bin/env python3
"""Runs one perfbench workload and prints its metrics as one JSON line.

    python3 perfbench/run.py --workload paper-sweep|serve-replay --seed N \\
        --seconds S --trace 0|1 [--smoke]

Run from the repository root. The first run builds the mucyc sources twice
under the build directory ($CARGO_TARGET_DIR, default .bench_build): a
normal build and a -pg build for the traced run. Later runs reuse both.

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1 runs
the process doing the work (the benchmark process in paper-sweep, the
daemon in serve-replay) from the -pg build, writes JSON-lines spans for
every layer call the benchmark makes (kept as
<build dir>/perfbench/spans-<workload>.jsonl), adds the gprof call counts
and inclusive shares of the smt, itp, mbp and qe layers, and prints every
per-layer metric. The last stdout line is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Any failed operation (wrong verdict, rejected certificate, unexpected typed
error, refused or malformed response, solver counts that differ between
two solves of one job in the run) makes "correct" false and the exit code 1.
Nothing carries over from one run to the next except the two build trees.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-sweep", "serve-replay")
RUN_TIMEOUT_S = 170

# gprof layer split: metric prefix -> demangled function-name prefixes.
GPROF_LAYERS = {
    "smt.check": ["mucyc::SmtSolver::check("],
    "smt.theory": ["mucyc::ArithChecker::check("],
    "smt.cdcl": ["mucyc::SatSolver::solve("],
    "itp": ["mucyc::interpolate("],
    "mbp": ["mucyc::mbp("],
    "qe": ["mucyc::qeExists(", "mucyc::qeForall("],
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(root, build_dir, gprof):
    """Configures and builds one tree; returns its directory."""
    out = os.path.join(build_dir, "gprof" if gprof else "release")
    os.makedirs(out, exist_ok=True)
    logpath = os.path.join(out, "build.log")
    with open(logpath, "a") as logf:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                   "-DPERFBENCH_GPROF=" + ("ON" if gprof else "OFF")]
            if subprocess.call(cmd, stdout=logf, stderr=logf) != 0:
                return None
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", out, "-j", jobs,
               "--target", "perfbench", "mucyc_serve"]
        if subprocess.call(cmd, stdout=logf, stderr=logf) != 0:
            return None
    return out


def gprof_layers(binary, gmon):
    """Calls and inclusive share (% of in-binary time) per layer."""
    text = subprocess.run(["gprof", "-b", "-q", binary, gmon],
                          capture_output=True, text=True, check=True).stdout
    # Primary call-graph lines: "[idx] %time self children called name [idx]".
    primary = re.compile(r"^\[(\d+)\]\s+([\d.]+)\s+[\d.]+\s+[\d.]+\s+"
                         r"(\d+)?(?:\+\d+)?\s*(.+?)\s+\[\d+\]\s*$")
    found = {}
    for line in text.splitlines():
        m = primary.match(line)
        if not m:
            continue
        share, calls, name = float(m.group(2)), int(m.group(3) or 0), m.group(4)
        if ")::" in name:  # A lambda or local class inside the function.
            continue
        for layer, prefixes in GPROF_LAYERS.items():
            if any(name.startswith(p) for p in prefixes):
                calls0, share0 = found.get(layer, (0, 0.0))
                found[layer] = (calls0 + calls, max(share0, share))
    metrics = {}
    for layer in GPROF_LAYERS:
        calls, share = found.get(layer, (0, 0.0))
        calls_name = layer + "_calls" if "." in layer else layer + ".calls"
        share_name = layer + "_share" if "." in layer else layer + ".share"
        metrics[calls_name] = {"value": calls, "unit": "count"}
        metrics[share_name] = {"value": share / 100.0, "unit": "ratio"}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for checking the output shape")
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    for need in ("src/CMakeLists.txt", "examples/mucyc_serve.cpp"):
        if not os.path.exists(os.path.join(root, need)):
            log("no mucyc sources here (missing %s); run from the repo root"
                % need)
            return 2
    with open(spec_path) as f:
        spec = json.load(f)

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    trees = {}
    for gprof in (False, True):
        t0 = time.time()
        tree = build(root, build_dir, gprof)
        if tree is None:
            log("build failed; see %s/build.log"
                % os.path.join(build_dir, "gprof" if gprof else "release"))
            return 1
        trees[gprof] = tree
        log("build %s ready in %.1f s" % (tree, time.time() - t0))
    # A traced run uses the -pg build only for the process whose layers
    # gprof splits: the daemon under test in serve-replay, the benchmark
    # process itself in paper-sweep. The rest runs the release build.
    release, profiled = trees[False], trees[True]
    serve_under_test = args.workload == "serve-replay"
    bench_bin = os.path.join(
        profiled if args.trace and not serve_under_test else release,
        "perfbench")
    serve = os.path.join(profiled if args.trace else release, "mucyc-serve")

    run_dir = os.path.join(build_dir, "runs", "%s-%d" % (args.workload,
                                                         os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [bench_bin, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--run-dir", run_dir,
           "--serve-bin", serve,
           "--prefill-bin", os.path.join(release, "mucyc-serve")]
    env = dict(os.environ)
    if args.trace:
        cmd += ["--trace", "--spans", os.path.join(run_dir, "spans.jsonl")]
        env["GMON_OUT_PREFIX"] = os.path.join(run_dir, "gmon")
    if args.smoke:
        cmd.append("--smoke")
    # Own process group: on a timeout the daemon and its workers go too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=run_dir,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("workload did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench exited with %d" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    measured = result["metrics"]

    if args.trace:
        # The process whose layers we split: the daemon for serve-replay,
        # the perfbench process itself otherwise.
        if serve_under_test:
            with open(os.path.join(run_dir, "daemon.pid")) as f:
                pid, binary = int(f.read()), serve
        else:
            pid, binary = proc.pid, bench_bin
        gmon = os.path.join(run_dir, "gmon.%d" % pid)
        measured.update(gprof_layers(binary, gmon))
        spans = os.path.join(build_dir, "spans-%s.jsonl" % args.workload)
        shutil.copyfile(os.path.join(run_dir, "spans.jsonl"), spans)
        log("spans of this run kept in %s" % spans)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("metric %s missing or with the wrong unit" % m["name"])
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
