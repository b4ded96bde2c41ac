#!/usr/bin/env python3
"""The repository's benchmark: one command that builds the simulator from
src/, generates a seeded workload, runs it through the public API for a
fixed host-time budget, checks the outputs and prints every metric.

    python3 perfbench/run.py --workload mesh16_mixed --seed 1 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --smoke      # the benchmark's own self-test

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
name the host, the workload and every output check. Build output, the
generated specs and the harness binary live under .bench_build/.
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.dont_write_bytecode = True  # leave nothing behind in the source tree
sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def jobs():
    return min(4, len(os.sched_getaffinity(0)))


def load_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    for key in ("command", "paths", "run_seconds", "workloads", "end_to_end",
                "per_layer"):
        if key not in spec:
            raise ValueError(f"BENCHMARK.json lacks {key!r}")
    return spec


def build():
    """Configures and builds the harness; a no-op when up to date."""
    if not (ROOT / "src").is_dir():
        raise RuntimeError(f"no simulator sources under {ROOT / 'src'}")
    cmake_dir = BUILD_DIR / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", str(jobs())])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, timeout=840)
    return cmake_dir / "perfbench_harness"


def generate(name, seed, size):
    """Writes the workload's spec files; returns (kind, spec, short spec)."""
    kind, generator, _ = workloads.WORKLOADS[name]
    out = BUILD_DIR / "inputs" / f"{name}-{size}-{seed}"
    out.mkdir(parents=True, exist_ok=True)
    for file_name, text in generator(seed, size).items():
        (out / file_name).write_text(text)
    ext = "swp" if kind == "sweep" else "scn"
    return kind, out / f"{name}.{ext}", out / f"{name}_short.{ext}"


def host_fingerprint(harness_out):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "compiler": harness_out.get("compiler", "unknown"),
        "build_type": harness_out.get("build_type", "unknown"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "jobs": jobs(),
    }


def run_workload(harness, name, seed, seconds, trace, size, expected):
    """Runs one workload; returns the result object and a list of problems
    with the emitted metric set (empty when it matches `expected`)."""
    kind, spec, short = generate(name, seed, size)
    cmd = [str(harness), "--kind", kind, "--spec", str(spec), "--short",
           str(short), "--seconds", str(seconds), "--trace", str(trace),
           "--jobs", str(jobs())]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=seconds * 2 + 30)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    problems = []
    metrics = out["metrics"]
    for metric_name, metric in metrics.items():
        value = metric["value"]
        if not NAME_RE.match(metric_name):
            problems.append(f"invalid metric name {metric_name!r}")
        if metric_name not in expected:
            problems.append(f"unlisted metric {metric_name}")
        elif metric["unit"] != expected[metric_name]:
            problems.append(f"{metric_name}: unit {metric['unit']!r}, "
                            f"BENCHMARK.json says {expected[metric_name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{metric_name}: non-finite value {value!r}")
        elif trace == 0 and value <= 0:
            # Every end-to-end metric is positive on a healthy run: a zero
            # latency or throughput means a class delivered nothing.
            problems.append(f"{metric_name}: non-positive value {value}")
    for metric_name in expected:
        if metric_name not in metrics:
            problems.append(f"missing metric {metric_name}")
    return out, problems


def measure(args):
    spec = load_benchmark_json()
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    harness = build()
    _, _, why = workloads.WORKLOADS[args.workload]
    out, problems = run_workload(harness, args.workload, args.seed,
                                 args.seconds, args.trace, "full", expected)
    print("perfbench: host " + json.dumps(host_fingerprint(out)))
    print(f"perfbench: workload {args.workload} seed {args.seed} "
          f"trace {args.trace} ({why})")
    for check in out["checks"]:
        status = "ok" if check["ok"] else "FAILED"
        print(f"perfbench: check {check['name']} {status}: {check['detail']}")
    for problem in problems:
        print(f"perfbench: check metrics FAILED: {problem}")
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in out["metrics"].items()}
    for name, m in metrics.items():
        print(f"perfbench: {name} = {m['value']} {m['unit']}")
    print(f"perfbench: failed_frac = "
          f"{out['failed'] / max(out['attempted'], 1)} "
          f"({out['failed']} of {out['attempted']} runs and checks)")
    correct = (out["failed"] == 0 and not problems
               and all(c["ok"] for c in out["checks"]))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


def smoke():
    """Tiny pass over every workload in both modes: each listed metric is
    emitted, with the listed unit and a valid name."""
    spec = load_benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise ValueError(f"BENCHMARK.json workloads {names} do not match "
                         f"the generators {sorted(workloads.WORKLOADS)}")
    seen = set()
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            if (not NAME_RE.match(metric["name"]) or not metric["unit"]
                    or metric["name"] in seen):
                raise ValueError(f"bad {section} entry {metric}")
            seen.add(metric["name"])
    harness = build()
    ok = True
    for name in names:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[section]}
            out, problems = run_workload(harness, name, 1, 1, trace, "smoke",
                                         expected)
            problems += [f"check {c['name']}: {c['detail']}"
                         for c in out["checks"] if not c["ok"]]
            if out["failed"]:
                problems.append(
                    f"{out['failed']} of {out['attempted']} failed")
            status = "ok" if not problems else "FAILED"
            print(f"perfbench smoke: {name} trace {trace}: "
                  f"{len(out['metrics'])} metrics {status}")
            for problem in problems:
                print(f"perfbench smoke:   {problem}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny self-test of every workload and metric")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0 or args.seconds < 1:
            parser.error("--seed must be >= 0 and --seconds >= 1")
        return measure(args)
    except (OSError, ValueError, RuntimeError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
