"""
One pass over a workload's jobs, in a fresh single-threaded interpreter.

run.py starts this script once per pass, so each pass starts with the
caches of one CLI invocation: the spectrum cache of `counting` empty
and numba's kernels loaded from its on-disk cache, if numba is present.
The pass prints one JSON line: set-up time, the time and check result
of every job, peak RSS, CPU time, and in traced passes the per-layer
metrics. Traced passes also write their spans to the path given.

    python3 perfbench/worker.py --workload W --seed S --size full \
        --mode plain|traced|memory --spawned <time.monotonic() at start>
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _environment(engine: str) -> dict:
    import locfree
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numba_imported": "numba" in sys.modules,
        "engine": engine,
        "locfree": locfree.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _warm_up(jobs_mod, walk) -> str:
    """
    First calls a CLI invocation pays: argument parsing and, when numba
    is present, kernel loading or compiling. Returns the engine that
    run_trial uses by default.
    """
    out = jobs_mod.run_cli(["count", "--variant", "group", "--n", "2", "--k-max", "2"])
    if out.code != 0:
        raise RuntimeError(f"warm-up command failed: {out.err}")
    for mode in (walk.GROUP, walk.SEMIGROUP):
        walk.run_trial(walk.WalkParams(n=2, steps=16, trials=1, seed=0, mode=mode), 0)
    try:
        walk.run_trial(walk.WalkParams(n=2, steps=16, trials=1, seed=0, mode=walk.GROUP), 0, engine="numba")
    except RuntimeError:
        return "python"
    return "numba"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "toy"), required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "memory"), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    parser.add_argument("--break-reference", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import locfree
    from locfree import walk

    if not Path(locfree.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported locfree from {locfree.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import jobs as jobs_mod
    import metrics
    from tracer import MODULES, Tracer

    engine = _warm_up(jobs_mod, walk)
    setup_s = time.monotonic() - args.spawned

    refs = jobs_mod.References(broken=args.break_reference)
    job_list = jobs_mod.build_jobs(args.workload, args.seed, args.size, refs)
    if args.mode == "memory":  # only the DP spans are measured under tracemalloc
        job_list = [job for job in job_list if job.kind == jobs_mod.KIND_DP]
    tracer = None
    if args.mode != "plain":
        tracer = Tracer(memory=args.mode == "memory")
        modules = {name: importlib.import_module(f"locfree.{name}") for name in MODULES}
        tracer.install(modules.items())

    records = []
    output_bytes = 0
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    for job in job_list:
        if tracer is not None:
            tracer.job = job.label
            installed = len(tracer.patched)
            for name in jobs_mod.JOB_LOCAL_SPANS.get(job.label, ()):
                short, attr = name.split(".")
                tracer.patch(modules[short], attr, name)
        error = None
        start = time.perf_counter()
        try:
            out = tracer.call("harness.job", job.run) if tracer else job.run()
        except Exception as exc:  # a raising job is a failed job; the pass goes on
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.restore(keep=installed)
            tracer.paused = True
        if error is None:
            try:
                job.check(out)
            except jobs_mod.JobFailure as exc:
                error = str(exc)
            except Exception as exc:  # a check that cannot read the output fails the job
                error = f"check raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.paused = False
        if isinstance(out, jobs_mod.CliOutput):
            output_bytes += len(out.out.encode())
        records.append({"label": job.label, "kind": job.kind, "seconds": seconds,
                        "steps": job.steps, "error": error})
        del out
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "setup_s": setup_s,
        "wall_s": sum(r["seconds"] for r in records),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "env": _environment(engine),
        "jobs": records,
        "figures": metrics.workload_figures(records),
    }
    if tracer is not None:
        tracer.restore()
        layers = metrics.layer_metrics(tracer.spans)
        layers["oracle.dp_states"] = (
            jobs_mod.dp_states(args.size) if any(r["kind"] == jobs_mod.KIND_DP for r in records) else 0
        )
        layers["cli.output_bytes"] = output_bytes
        layers["proc.cpu_s"] = (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime)
        layers["proc.nivcsw"] = usage1.ru_nivcsw - usage0.ru_nivcsw
        result["layers"] = layers
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job", "counts"],
                           "spans": tracer.spans}, fh)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
