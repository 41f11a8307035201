#!/usr/bin/env python3
"""End-to-end benchmark for Megh: builds perfbench/ (Release) from the
library sources in src/ and runs one workload, or every workload
BENCHMARK.json declares.

    python3 perfbench/run.py --workload planetlab-800 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, timed

--trace 0 prints the end-to-end metrics declared in BENCHMARK.json
("end_to_end"); --trace 1 runs the traced passes and prints the per-layer
metrics ("per_layer"). Every result, with the environment it was measured
in, is also written to .bench_out/result-<workload>-seed<n>-trace<t>.json;
the traced run's spans go to .bench_out/spans-<workload>-seed<n>.jsonl.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Seeds: 1 is the default; 97 is held out for confirming later claims and is
not used while tuning a change.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ["planetlab-800", "fattree-10k", "serve-100"]
DEFAULT_SEED = 1


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def build():
    """Configure once, then build the benchmark binary (incremental)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to perfbench/; "
             "run from a full checkout")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "megh_perfbench", "-j", str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build failed: {' '.join(cmd)}")
    return build_dir


def build_type(build_dir):
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fs_type(path):
    done = subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() or "unknown"


def cpu_steal():
    """(stolen, total) CPU ticks so far: the share a hypervisor gave other
    guests while the benchmark wanted to run."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split()[1:9]]
    return fields[7], sum(fields)


def run_workload(exe, spec, args, workload, env):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload}-seed{args.seed}"
    # Flush other files' dirty pages first, so the served workload's fsyncs
    # do not pay for writes made before the run (the build, earlier spans).
    os.sync()
    # Paths relative to the checkout (the binary runs there): the daemon's
    # Unix socket lives under the work directory, and a socket path may not
    # exceed 107 bytes however deep the checkout is.
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", ".bench_out/work",
           "--spans-out", f".bench_out/spans-{tag}.jsonl"]
    steal_before = cpu_steal()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=175)
    steal_after = cpu_steal()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload}: no result (exit code {done.returncode})", 1)

    # Every metric BENCHMARK.json declares must be reported, in its unit.
    # The binary may print more (the p99s, see README.md); those go to
    # the result file but not into the summary line.
    declared = spec["per_layer" if args.trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    wrong = [m["name"] for m in declared if got.get(m["name"]) != m["unit"]]
    if wrong:
        fail(f"{workload}: metrics {wrong} missing or not in the unit "
             "BENCHMARK.json declares", 1)
    result["declared"] = [m["name"] for m in declared]

    ticks = steal_after[1] - steal_before[1]
    env = dict(env, jobs=result["jobs"], steal_share=round(
        (steal_after[0] - steal_before[0]) / ticks if ticks else 0.0, 4))
    for key in ["cpu_model", "nproc", "build_type", "timing_grade", "jobs",
                "loadavg_at_start", "serve_dir_fs", "steal_share"]:
        print(f"{'env.' + key:32s} {env[key]}")
    print("\n".join(lines[:-1]))
    print(f"{'digest':32s} {result['digest']}")
    (out_dir / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "result": result}, indent=1) + "\n")
    return result, done.returncode


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    loadavg = os.getloadavg()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    build_dir = build()
    exe = build_dir / "megh_perfbench"
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    env = {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": build_type(build_dir),
        "loadavg_at_start": [round(x, 2) for x in loadavg],
        "serve_dir_fs": fs_type(ROOT / ".bench_out"),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    env["timing_grade"] = env["build_type"] == "Release"
    if not env["timing_grade"]:
        print(f"perfbench: WARNING: {env['build_type']} build is not "
              "timing-grade", file=sys.stderr)

    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    results, code = {}, 0
    for workload in workloads:
        if len(workloads) > 1:
            print(f"== {workload}")
        result, rc = run_workload(exe, spec, args, workload, env)
        results[workload] = result
        code = code or rc

    def summary(r):
        return {"correct": r["correct"], "attempted": r["attempted"],
                "failed": r["failed"],
                "metrics": {k: {"value": r["metrics"][k]["value"],
                                "unit": r["metrics"][k]["unit"]}
                            for k in r["declared"]}}

    if len(workloads) == 1:
        print(json.dumps(summary(results[workloads[0]])))
    else:
        print(json.dumps({w: summary(r) for w, r in results.items()}))
    sys.exit(code)


if __name__ == "__main__":
    main()
