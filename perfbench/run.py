#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table1|ladder|service \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the analyzer libraries from src/ plus
the benchmark program) as a Release build under .bench_build/perfbench,
then runs one workload. The program's output is passed through, except
its last line, one JSON object with the keys correct, attempted, failed
and metrics: its metrics are checked against BENCHMARK.json (end_to_end
for --trace 0, per_layer for --trace 1) and printed in that file's order,
with 0 for a per-layer metric of a layer the workload does not exercise.
A missing end-to-end metric, an unknown name, a unit that differs from
BENCHMARK.json, a failed build or a failed run exits non-zero without
printing a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no analyzer sources next to perfbench/ (src/ is missing)")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def select_metrics(reported, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    problems = ["unknown metric " + k for k in sorted(set(reported) - set(units))]
    problems += ["%s in %s, not %s" % (k, reported[k]["unit"], units[k])
                 for k in sorted(reported.keys() & units.keys())
                 if reported[k]["unit"] != units[k]]
    if not trace:
        problems += ["missing " + k for k in sorted(set(units) - set(reported))]
    if problems:
        fail("metrics differ from BENCHMARK.json: " + "; ".join(problems))
    return {m["name"]: reported.get(m["name"], {"value": 0, "unit": m["unit"]})
            for m in spec}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, "spans-%s.tsv" % args.workload)]
    # Own process group, so a run that overstays is stopped together with
    # any probe children it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("benchmark exited with code %d" % proc.returncode)

    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    result = json.loads(lines[-1])
    result["metrics"] = select_metrics(result["metrics"], args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
