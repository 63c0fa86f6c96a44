"""
Spans around the public functions of the program's modules, recorded
from outside the program.

A traced pass replaces the module attributes of the public functions of
`walk`, `counting`, `oracle`, `core`, `braid` and `cli` with recording
wrappers. Callers inside the program look those attributes up at call
time (`run_walk -> run_trial -> letter_stream`, `volume_report ->
count_words_range`, `limit_log_volume -> lambda_max`), so the spans nest
as the calls do. Each span holds its name, start, end, parent span, job
and the counts taken at the same boundary. Spans stay in memory until
the pass ends.

Functions called once per pushed letter or per enumerated state are not
wrapped: a wrapper would cost more than the work it measures. Their work
is counted arithmetically instead (letters pushed, states enumerated),
and their time falls into the self time of the span that calls them.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc

MODULES = ("walk", "counting", "oracle", "core", "braid", "cli")

PER_ELEMENT = frozenset({
    "core.push_letter",
    "core.canonical_key",
    "core.roof_of",
    "core.succession_allowed",
    "oracle.roof_columns",
    "counting.charpoly_eval",
    "walk.roof_chain_step",
})

# Spans measured under tracemalloc in the memory pass.
MEMORY_SPANS = frozenset({
    "oracle.exact_drift_series",
    "oracle.exact_entropy",
    "oracle.exact_distribution",
})

JOB_SPAN = "harness.job"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counts recorded at a span's end, from its arguments and result.
COUNTS = {
    "walk.letter_stream": lambda a, k, out: {"letters": len(out), "bytes": int(out.nbytes)},
    "walk.run_trial": lambda a, k, out: {"mode": a[0].mode, "steps": a[0].steps, "n": a[0].n},
    "walk.roof_chain_run": lambda a, k, out: {"steps": out.steps},
    "counting.count_words_range": lambda a, k, out: {
        "variant": _arg(a, k, 2, "variant"),
        "digits": len(str(max(out))),
    },
    "oracle.enumerate_ball": lambda a, k, out: {"states": len(out.elements)},
    "core.heap_from_word": lambda a, k, out: {"letters": len(_arg(a, k, 0, "letters"))},
    "cli.run_command": lambda a, k, out: {"subcommand": _arg(a, k, 0, "argv")[0]},
}


class Tracer:
    """
    Records spans as lists [name, start_ns, end_ns, parent, job, counts].

    memory=True runs tracemalloc inside the MEMORY_SPANS and adds their
    peak traced bytes to the counts; nothing else is traced by it.
    """

    def __init__(self, memory: bool = False):
        self.spans: list[list] = []
        self.job: str | None = None
        self.paused = False
        self.memory = memory
        self._stack: list[int] = []
        self.patched: list[tuple[object, str, object]] = []

    def install(self, modules) -> None:
        """Wrap every public function defined in each (short name, module) pair."""
        for short, mod in modules:
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in PER_ELEMENT
                ):
                    self.patch(mod, attr, name)

    def patch(self, mod, attr: str, name: str) -> None:
        original = getattr(mod, attr)
        self.patched.append((mod, attr, original))
        setattr(mod, attr, self._wrap(name, original))

    def restore(self, keep: int = 0) -> None:
        """Undo patches, newest first, until `keep` remain."""
        while len(self.patched) > keep:
            mod, attr, original = self.patched.pop()
            setattr(mod, attr, original)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of the given name."""
        return self._record(name, fn, args, kwargs, False)

    def _wrap(self, name: str, fn):
        memory = self.memory and name in MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            return self._record(name, fn, args, kwargs, memory)

        return wrapper

    def _record(self, name, fn, args, kwargs, memory):
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        own_trace = memory and not tracemalloc.is_tracing()
        if own_trace:
            tracemalloc.start()
        span[1] = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
            if own_trace:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                span[5] = {"peak_bytes": peak}
        counts = COUNTS.get(name)
        if counts is not None:
            span[5] = {**(span[5] or {}), **counts(args, kwargs, out)}
        return out


def self_times(spans) -> list[int]:
    """Each span's duration minus the part its direct children cover, in ns."""
    covered = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, *_) in enumerate(spans)]
