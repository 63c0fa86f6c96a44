"""
Fast smoke check of the benchmark itself (about 15 s).

    python3 perfbench/smoke.py

It checks BENCHMARK.json against the names and units the harness
prints, then runs every workload at toy size, untraced and traced, and
asserts that every named metric is printed with its unit and that every
job passes. It then shows the correctness checks firing: with
deliberately wrong references each workload must report failed jobs.
Last, a tree holding only BENCHMARK.json and the benchmark must make
the benchmark exit nonzero without a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _expect(cond, what) -> None:
    if not cond:
        raise SystemExit(f"smoke check failed: {what}")


def _check_manifest() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    _expect(set(bench) == keys, f"BENCHMARK.json keys {sorted(bench)}")
    _expect(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60, "run_seconds")
    _expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "workload names")
    names = [w["name"] for w in bench["workloads"]]
    for w in bench["workloads"]:
        _expect(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], w)
    for m in bench["end_to_end"]:
        _expect(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m)
    for m in bench["per_layer"]:
        _expect(set(m) == {"name", "unit", "better"}, m)
    for m in bench["end_to_end"] + bench["per_layer"]:
        _expect(NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m)
        _expect(m["better"] in ("lower", "higher"), m)
        names.append(m["name"])
    _expect(len(names) == len(set(names)), "a name is used twice")
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    _expect(listed == list(END_TO_END), "end_to_end differs from metrics.END_TO_END")
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    _expect(listed == list(PER_LAYER), "per_layer differs from metrics.PER_LAYER")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    _expect(setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
            "setup_s must carry the largest bound")
    return bench


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)


def _result(proc) -> dict:
    _expect(proc.returncode == 0, proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    bench = _check_manifest()
    for workload in WORKLOADS:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = _run("--workload", workload, "--seed", "7", "--seconds", "0.5",
                        "--trace", str(trace), "--size", "toy")
            res = _result(proc)
            _expect(set(res) == {"correct", "attempted", "failed", "metrics"}, res)
            _expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stdout)
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            _expect(got == want, f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))}")
            printed = proc.stdout.splitlines()[:-1]
            for name, unit in want.items():
                _expect(any(line.split()[:1] == [name] and line.split()[2] == unit for line in printed), name)
        print(f"ok   {workload}: every metric printed with its unit, every job passed")

        res = _result(_run("--workload", workload, "--seed", "7", "--seconds", "0.1",
                           "--trace", "0", "--size", "toy", "--break-reference"))
        _expect(not res["correct"] and res["failed"] >= 1, res)
        print(f"ok   {workload}: {res['failed']} of {res['attempted']} jobs fail on wrong references")

    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    _expect(proc.returncode != 0 and not proc.stdout.strip(), proc.stdout)
    print("ok   without the program's source the benchmark exits "
          f"{proc.returncode} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
