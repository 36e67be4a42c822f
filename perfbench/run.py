#!/usr/bin/env python3
"""The AutoFL reproduction's benchmark: one command per workload.

    python3 perfbench/run.py --workload fleet_1m --seed 1 --trace 0
    python3 perfbench/run.py --workload all                 # every workload
    python3 perfbench/run.py --workload paper_sweep --trace 1

`--workload` is required; `--seconds` defaults to `run_seconds` of
BENCHMARK.json, so a run without it is comparable with `baseline.json`.

Run from the root of a checkout. The script builds the benchmark binary
(`perfbench/Cargo.toml`, a package of its own with path dependencies on
the repository's crates) into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the workload in its own process with
`AUTOFL_THREADS` set, checks the result and prints, as its last line, one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end metrics of
`BENCHMARK.json`, with `--trace 1` its per-layer metrics. The line before
it is the host fingerprint the result was measured under. Every result is
also appended, with its fingerprint, to `.bench_out/results.jsonl`; the
traced run writes its spans to `.bench_out/spans-<workload>.jsonl`.

Exits 2 without a result when the repository's sources are missing or
the build fails, and 1 when the workload process fails or runs past
160 s (it is then killed with its children).
"""

import argparse
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fleet_1m", "paper_sweep", "serve_queue"]
# A workload process must end well inside the 180 s a run may take.
WORKLOAD_TIMEOUT_S = 160


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def benchmark_spec():
    """BENCHMARK.json, or None without one."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def parse_args():
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]) if spec else 30.0
    )
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument(
        "--threads",
        type=int,
        default=min(2, len(os.sched_getaffinity(0))),
        help="AUTOFL_THREADS of the workload process (default: min(2, nproc))",
    )
    parser.add_argument("--smoke", action="store_true", help="seconds-long sizes")
    return parser.parse_args()


def build():
    """Builds the benchmark binary and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "fed", "Cargo.toml")):
        die("the repository's crates are not beside perfbench/; run from a full checkout")
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        status = subprocess.run(command, env=env, stdout=sys.stderr, timeout=870).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if status != 0:
        die("build failed")
    return os.path.join(target, "release", "perfbench")


def fingerprint(args):
    """Where and how a result was measured."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        cpu = platform.processor() or cpu

    def output(command):
        try:
            return subprocess.run(
                command, capture_output=True, text=True, timeout=30, cwd=ROOT
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": output(["rustc", "-V"]),
        "autofl_threads": args.threads,
        "commit": output(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else "none",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def expected_metrics(trace):
    """Metric name -> unit from BENCHMARK.json, or None without one."""
    spec = benchmark_spec()
    if spec is None:
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def no_core_dumps():
    # The serve_queue workload kills its daemon with abort(); no core file.
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def run_workload(binary, workload, args, finger):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    command = [
        binary, workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", out_dir,
    ] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ, AUTOFL_THREADS=str(args.threads))
    started = time.monotonic()
    # Its own process group, so a timeout also stops the daemon children.
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True,
        preexec_fn=no_core_dumps, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"{workload} did not finish within {WORKLOAD_TIMEOUT_S} s", code=1)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{workload} failed with exit code {proc.returncode}", code=1)
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    problems = [f"check failed: {f}" for f in raw["failures"]]
    metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in raw["metrics"].items()}
    expected = expected_metrics(args.trace)
    if expected is not None:
        for name, unit in expected.items():
            if name not in metrics:
                problems.append(f"metric {name} missing")
            elif metrics[name]["unit"] != unit or metrics[name]["value"] is None:
                problems.append(f"metric {name}: {metrics[name]} (expected unit {unit})")
        # Print exactly the metrics BENCHMARK.json names.
        metrics = {name: metrics[name] for name in expected if name in metrics}
    for p in problems:
        print(f"perfbench: {workload}: {p}", file=sys.stderr)

    result = {
        "correct": not problems and raw["failed"] == 0 and raw["attempted"] >= 1,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    record = dict(
        finger,
        workload=workload,
        digest=raw["digest"],
        threads=raw["threads"],
        wall_s=round(time.monotonic() - started, 3),
        result=result,
    )
    with open(os.path.join(out_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(f"# {workload} digest {raw['digest']}")
    print("# fingerprint " + json.dumps(finger))
    print(json.dumps(result))
    return result


def main():
    args = parse_args()
    if args.threads < 1:
        die("--threads must be at least 1")
    binary = build()
    finger = fingerprint(args)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        run_workload(binary, workload, args, finger)


if __name__ == "__main__":
    main()
