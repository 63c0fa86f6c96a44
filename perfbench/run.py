"""
The locfree benchmark.

    python3 perfbench/run.py --workload mc-walk --seed 1 --seconds 36 --trace 0

Workloads (see jobs.py for the job lists and checks):

  mc-walk      seeded group and semigroup walks at n = 100, a snapshot
               walk, the roof chain in both modes, and the inequality
               report at the measured alpha: the walk kernel's workload.
  exact-count  exact counts of all four variants, the volume report,
               the spectrum and the braid bounds: big-integer sweeps
               and mpmath root finding in `counting`.
  oracle-ref   oracle-verify, the exact walk distributions (dynamic
               programs over heap states) and the criterion-9 word
               properties: `oracle` and `core`.

Each pass over a workload's jobs runs in a fresh single-threaded
interpreter (worker.py), one job after another. Passes repeat until
the run has lasted about --seconds; every figure is the median over the
passes of its kind, and the sample count is printed with it.

--trace 0 prints the end-to-end metrics of untraced passes: set-up time
(process start to ready), wall time of one pass, peak RSS. --trace 1
alternates untraced and traced passes and prints the per-layer metrics
of the traced ones, the workload figures of the untraced ones and the
tracing overhead (traced minus untraced wall time). Workloads with
exact dynamic programs get one more traced pass, of those jobs only,
under tracemalloc for `oracle.dp_peak_mb`, so tracemalloc never slows
a timed figure.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The full record of the run,
with the environment, every pass and the load average, goes to
.perfbench/results/, and traced passes write their spans to
.perfbench/spans/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, UNITS, WORKLOAD_FIGURES, median  # noqa: E402

WORKLOADS = ("mc-walk", "exact-count", "oracle-ref")
DEADLINE_S = 170.0  # a run must end within 180 s
ENV_KEYS = ("python", "numpy", "mpmath", "mpmath_backend", "numba_imported", "engine")
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS",
)}


def _run_pass(args, mode: str, index: int, timeout: float) -> dict | None:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--mode", mode]
    if mode != "plain":
        spans = OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}-{mode}{index}.json"
        cmd += ["--spans", str(spans)]
    if args.break_reference:
        cmd.append("--break-reference")
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"# {mode} pass {index} exceeded {timeout:.0f} s and was stopped", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"# {mode} pass {index} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    result["mode"] = mode
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="locfree benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy runs every job at a tiny size (smoke check)")
    parser.add_argument("--break-reference", action="store_true",
                        help="check against deliberately wrong references (smoke check)")
    args = parser.parse_args()

    if not (ROOT / "src" / "locfree" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'locfree'}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    start = time.monotonic()
    cycle = ("plain", "traced") if args.trace else ("plain",)
    passes: list[dict] = []
    timed = crashed = 0
    last = longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        # stop when another pass would end further past --seconds than short of it
        if (timed >= len(cycle) and elapsed + last / 2 >= args.seconds) or elapsed + longest > DEADLINE_S:
            break
        # one traced pass under tracemalloc, of the DP jobs only, once any are seen
        if args.trace and not any(p["mode"] == "memory" for p in passes) and any(
                job["kind"] == "dp" for p in passes for job in p["jobs"]):
            mode = "memory"
        else:
            mode = cycle[timed % len(cycle)]
            timed += 1
        t0 = time.monotonic()
        result = _run_pass(args, mode, len(passes) + crashed, DEADLINE_S - elapsed)
        last = time.monotonic() - t0
        longest = max(longest, last)
        if result is None:
            crashed += 1
            break
        passes.append(result)
    load_end = os.getloadavg()

    plain = [p for p in passes if p["mode"] == "plain"]
    traced = [p for p in passes if p["mode"] == "traced"]
    memory = [p for p in passes if p["mode"] == "memory"]
    attempted = sum(len(p["jobs"]) for p in passes) + crashed
    failed = sum(1 for p in passes for j in p["jobs"] if j["error"]) + crashed

    envs = {json.dumps({k: p["env"][k] for k in ENV_KEYS}, sort_keys=True) for p in passes}
    if len(envs) > 1:
        print("error: passes of one run saw different environments", file=sys.stderr)
        failed += 1
    env = passes[0]["env"] if passes else {}
    env_id = hashlib.sha256("".join(sorted(envs)).encode()).hexdigest()[:12]

    figures = {name: median([p["figures"][name] for p in plain]) for name, _, _ in WORKLOAD_FIGURES}
    if args.trace == 0:
        metrics = {name: median([p[name] for p in plain]) for name, _, _ in END_TO_END}
        samples = len(plain)
    else:
        metrics = {}
        for name, _, _ in PER_LAYER:
            source = memory if name == "oracle.dp_peak_mb" else traced
            values = [p["layers"][name] for p in source if name in p.get("layers", {})]
            metrics[name] = median(values)
        metrics.update(figures)
        metrics["trace.overhead_s"] = median([p["wall_s"] for p in traced]) - median(
            [p["wall_s"] for p in plain])
        samples = len(traced)

    print(f"# locfree benchmark: workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} passes={len(plain)} untraced, {len(traced)} traced, "
          f"{len(memory)} memory, {crashed} crashed")
    print(f"# env {env_id}: {json.dumps(env, sort_keys=True)}")
    print(f"# load average at start {load_start}, at end {load_end}")
    for label in dict.fromkeys(j["label"] for p in plain for j in p["jobs"]):
        times = [j["seconds"] for p in plain for j in p["jobs"] if j["label"] == label]
        errors = [j["error"] for p in passes for j in p["jobs"] if j["label"] == label and j["error"]]
        print(f"# job {label:20s} {median(times):10.4f} s  {'FAILED: ' + errors[0] if errors else 'ok'}")
    shown = dict(metrics)
    if args.trace == 0:
        shown.update(figures)
    for name, value in shown.items():
        n = len(memory) if name == "oracle.dp_peak_mb" else (len(plain) if name in figures else samples)
        print(f"{name:40s} {value:16.6f} {UNITS[name]:14s} median of {n}")
    if args.trace:
        layer_self = sum(v for k, v in metrics.items() if k.startswith("layer_self_s."))
        untraced = median([p["wall_s"] for p in plain])
        print(f"# accounting: layer self times sum to {layer_self:.4f} s; untraced wall "
              f"{untraced:.4f} s; tracing overhead {metrics['trace.overhead_s']:.4f} s")

    record = {"args": vars(args), "env": env, "env_id": env_id, "load_start": load_start,
              "load_end": load_end, "passes": passes, "crashed": crashed, "metrics": metrics}
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
