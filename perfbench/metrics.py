"""
Names, units and directions of every figure the benchmark prints, and
the arithmetic that turns one pass's job timings and spans into them.

End-to-end metrics come from untraced passes and exist on every
workload. Workload figures split a pass's wall time by job kind (walk
steps per second, count time, ...); they are printed with the
end-to-end metrics and, as figures of the untraced passes of a traced
run, among the per-layer metrics. Per-layer metrics come from traced
passes; a layer idle on a workload reads 0 there.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import JOB_SPAN, MEMORY_SPANS, self_times

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

WORKLOAD_FIGURES = (
    ("walk.group_steps_per_s", "steps/s", "higher"),
    ("walk.semigroup_steps_per_s", "steps/s", "higher"),
    ("count_s", "s", "lower"),
    ("spectrum_s", "s", "lower"),
    ("oracle_verify_s", "s", "lower"),
    ("dp_s", "s", "lower"),
    ("fail_frac", "ratio", "lower"),
)

SUBCOMMANDS = ("walk", "roof-chain", "inequality", "count", "volume", "spectrum",
               "braid-bounds", "oracle-verify")
VARIANTS = ("group", "semigroup", "projective", "restricted")
LAYERS = ("walk", "counting", "oracle", "core", "braid", "cli", "harness")

SPAN_TOTALS = (  # per-layer metric -> span name whose durations it sums
    ("counting.volume_report_s", "counting.volume_report"),
    ("counting.spectrum_numeric_s", "counting.spectrum_numeric"),
    ("counting.lambda_max_s", "counting.lambda_max"),
    ("counting.count_words_s", "counting.count_words"),
    ("counting.restricted_syllable_count_s", "counting.restricted_syllable_count"),
    ("oracle.enumerate_ball_s", "oracle.enumerate_ball"),
    ("oracle.brute_restricted_s", "oracle.brute_restricted"),
    ("oracle.exact_drift_series_s", "oracle.exact_drift_series"),
    ("oracle.exact_entropy_s", "oracle.exact_entropy"),
    ("oracle.exact_distribution_s", "oracle.exact_distribution"),
    ("core.normal_form_readout_s", "core.normal_form_readout"),
    ("core.canonical_key_s", "core.canonical_key"),
    ("braid.inequality_report_s", "braid.inequality_report"),
)

ESTIMATORS = frozenset({
    "walk.drift_estimate",
    "walk.roof_density_estimate",
    "walk.entropy_estimate",
    "walk.alpha_estimate",
    "walk.heap_profile_stats",
})

PER_LAYER = (
    ("walk.letters_ns_per_letter", "ns/letter", "lower"),
    ("walk.trial_self_ns_per_step.group", "ns/step", "lower"),
    ("walk.trial_self_ns_per_step.semigroup", "ns/step", "lower"),
    ("walk.roof_chain_ns_per_step", "ns/step", "lower"),
    ("walk.estimate_s", "s", "lower"),
    ("walk.steps", "steps", "higher"),
    ("walk.trials", "count", "higher"),
    ("walk.column_bytes", "bytes_computed", "lower"),
    ("walk.letter_bytes", "bytes", "lower"),
    *((f"counting.count_words_range_s.{v}", "s", "lower") for v in VARIANTS),
    ("counting.bigint_digits", "digits", "higher"),
    *((name, "s", "lower") for name, _ in SPAN_TOTALS),
    ("oracle.ball_states", "states", "higher"),
    ("oracle.ball_states_per_s", "states/s", "higher"),
    ("oracle.dp_states", "states", "higher"),
    ("oracle.dp_peak_mb", "MB", "lower"),
    ("core.push_ns_per_letter", "ns/letter", "lower"),
    ("braid.bounds_report_self_s", "s", "lower"),
    *((f"cli.self_s.{sub}", "s", "lower") for sub in SUBCOMMANDS),
    ("cli.output_bytes", "bytes", "lower"),
    *((f"layer_self_s.{layer}", "s", "lower") for layer in LAYERS),
    ("proc.cpu_s", "s", "lower"),
    ("proc.nivcsw", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    *WORKLOAD_FIGURES,
)

UNITS = {name: unit for name, unit, _ in (*END_TO_END, *PER_LAYER)}

KIND_FIGURES = {  # workload figure -> job kinds whose time it sums
    "count_s": ("count",),
    "spectrum_s": ("spectrum",),
    "oracle_verify_s": ("oracle_verify",),
    "dp_s": ("dp",),
}


def workload_figures(jobs: list[dict]) -> dict[str, float]:
    """Figures of one pass from its job records (label, kind, seconds, steps, error)."""
    seconds = defaultdict(float)
    steps = defaultdict(int)
    for job in jobs:
        seconds[job["kind"]] += job["seconds"]
        steps[job["kind"]] += job["steps"]
    out = {}
    for mode in ("group", "semigroup"):
        kind = f"walk.{mode}"
        out[f"walk.{mode}_steps_per_s"] = steps[kind] / seconds[kind] if seconds[kind] else 0.0
    for name, kinds in KIND_FIGURES.items():
        out[name] = sum(seconds[k] for k in kinds)
    out["fail_frac"] = sum(1 for j in jobs if j["error"]) / len(jobs) if jobs else 1.0
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """
    The per-layer metrics that come from one traced pass's spans; the
    worker adds the ones that need no spans (process counters, output
    bytes, DP state count).
    """
    selfs = self_times(spans)
    dur = defaultdict(int)
    counts = defaultdict(int)
    layer_self = defaultdict(int)
    cli_self = defaultdict(int)
    trial_self = defaultdict(int)
    trial_steps = defaultdict(int)
    range_by_variant = defaultdict(int)
    column_bytes = letter_bytes = digits = dp_peak = 0
    estimate = bounds_self = 0

    def inside(i, name):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    for i, (name, start, end, parent, _job, c) in enumerate(spans):
        d = end - start
        c = c or {}
        dur[name] += d
        layer_self[name.split(".")[0]] += selfs[i]
        if name in ESTIMATORS and (parent < 0 or spans[parent][0] not in ESTIMATORS):
            estimate += d
        if name.startswith("braid.") and (name == "braid.bounds_report" or inside(i, "braid.bounds_report")):
            bounds_self += selfs[i]
        if name == "walk.letter_stream":
            counts["letters"] += c["letters"]
            letter_bytes = max(letter_bytes, c["bytes"])
        elif name == "walk.run_trial":
            trial_self[c["mode"]] += selfs[i]
            trial_steps[c["mode"]] += c["steps"]
            counts["trials"] += 1
            if c["mode"] == "group":
                cap = 64 + 8 * c["steps"] // c["n"]
                column_bytes = max(column_bytes, c["n"] * cap * (4 + 1))  # int32 level, int8 color
        elif name == "walk.roof_chain_run":
            counts["chain_steps"] += c["steps"]
        elif name == "counting.count_words_range":
            range_by_variant[c["variant"]] += d
            digits = max(digits, c["digits"])
        elif name == "oracle.enumerate_ball":
            counts["ball_states"] += c["states"]
        elif name == "core.heap_from_word":
            counts["pushed"] += c["letters"]
        elif name == "cli.run_command":
            cli_self[c["subcommand"]] += selfs[i]
        if name in MEMORY_SPANS and "peak_bytes" in c:
            dp_peak = max(dp_peak, c["peak_bytes"])

    def per(total, count):
        return total / count if count else 0.0

    ns = 1e-9
    out = {
        "walk.letters_ns_per_letter": per(dur["walk.letter_stream"], counts["letters"]),
        "walk.roof_chain_ns_per_step": per(dur["walk.roof_chain_run"], counts["chain_steps"]),
        "walk.steps": sum(trial_steps.values()),
        "walk.trials": counts["trials"],
        "walk.column_bytes": column_bytes,
        "walk.letter_bytes": letter_bytes,
        "walk.estimate_s": estimate * ns,
        "counting.bigint_digits": digits,
        "oracle.ball_states": counts["ball_states"],
        "oracle.ball_states_per_s": per(counts["ball_states"], dur["oracle.enumerate_ball"] * ns),
        "oracle.dp_peak_mb": dp_peak / 2**20,
        "core.push_ns_per_letter": per(dur["core.heap_from_word"], counts["pushed"]),
        "braid.bounds_report_self_s": bounds_self * ns,
        "trace.wall_s": dur[JOB_SPAN] * ns,
    }
    for mode in ("group", "semigroup"):
        out[f"walk.trial_self_ns_per_step.{mode}"] = per(trial_self[mode], trial_steps[mode])
    for variant in VARIANTS:
        out[f"counting.count_words_range_s.{variant}"] = range_by_variant[variant] * ns
    for metric, span in SPAN_TOTALS:
        out[metric] = dur[span] * ns
    for sub in SUBCOMMANDS:
        out[f"cli.self_s.{sub}"] = cli_self[sub] * ns
    for layer in LAYERS:
        out[f"layer_self_s.{layer}"] = layer_self[layer] * ns
    return out


def median(values):
    return statistics.median(values) if values else 0.0
