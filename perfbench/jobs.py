"""
Job lists of the three workloads, and the check on each job's output.

A job is one timed call into the program: a command line handed to
`cli.run_command` (output captured, as one CLI invocation would print
it) or one library call for the deliverables that have no subcommand
(the exact walk distributions and the criterion-9 word properties).
Jobs run one after another, each starting when the previous one has
finished (a closed loop with one client). Every job's output is checked
after its timed call; a wrong output, a raise or a nonzero exit fails
the job.

The workload seed decides the walk seeds and the random property
words; the command-line jobs of `exact-count` and `oracle-verify` have
fixed inputs, and their output bytes must match the digests recorded in
`digests.json` from the code the benchmark was defined on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from locfree import cli, core, counting, oracle, walk

WORKLOADS = ("mc-walk", "exact-count", "oracle-ref")

# Job kinds whose summed time is a workload figure of its own.
KIND_GROUP_WALK = "walk.group"
KIND_SEMIGROUP_WALK = "walk.semigroup"
KIND_COUNT = "count"
KIND_SPECTRUM = "spectrum"
KIND_ORACLE_VERIFY = "oracle_verify"
KIND_DP = "dp"
KIND_OTHER = "other"

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# Run sizes. "full" is what the benchmark measures; "toy" is the smoke
# check's. The criterion-8 drift DP runs at N = 10 rather than the
# acceptance test's N = 12: N = 12 alone takes about 15 s and 0.6 GB,
# which would leave one pass per run. Its values are certified against
# the exact birth-death chain of the free group F_2 = LF_2 instead.
SIZES = {
    "full": {
        "walk_n": 100,
        "group_walk": (100_000, 3),  # (steps, trials)
        "semigroup_walk": (150_000, 3),
        "snapshot_walk": (100_000, 10_000),  # (steps, snapshot_every)
        "roof_chain_steps": 100_000,
        "replay_steps": 4_000,
        "count_group": (100, 500),  # (n, k_max)
        "count_small": (30, 400),
        "volume": (30, 240),
        "spectrum_n": 60,
        "braid_n": 100,
        "verify_flags": (),
        "dp_drift_steps": 10,
        "dp_entropy_steps": 8,
        "distribution": (4, 10),  # (n, N), semigroup
        "property_cases": 2_500,
    },
    "toy": {
        "walk_n": 8,
        "group_walk": (2_000, 2),
        "semigroup_walk": (2_000, 2),
        "snapshot_walk": (1_000, 250),
        "roof_chain_steps": 2_000,
        "replay_steps": 500,
        "count_group": (10, 40),
        "count_small": (6, 30),
        "volume": (6, 30),
        "spectrum_n": 8,
        "braid_n": 12,
        "verify_flags": ("--n-max", "2", "--k-max", "4"),
        "dp_drift_steps": 6,
        "dp_entropy_steps": 5,
        "distribution": (3, 5),
        "property_cases": 100,
    },
}

# Functions the traced run wraps only while the named job runs, because
# other jobs call them once per state.
JOB_LOCAL_SPANS = {"core-properties": ("core.canonical_key",)}


class JobFailure(Exception):
    """A job's output is wrong."""


@dataclass
class Job:
    label: str
    kind: str
    run: Callable[[], object]  # the timed call
    check: Callable[[object], None]  # untimed; raises JobFailure
    steps: int = 0  # walk steps taken, for steps/s
    digest_argv: tuple[str, ...] | None = None  # fixed-input CLI job checked by digest


@dataclass(frozen=True)
class CliOutput:
    argv: tuple[str, ...]
    code: int
    out: str
    err: str


def run_cli(argv) -> CliOutput:
    """One CLI invocation with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(list(argv))
    return CliOutput(tuple(argv), code, out.getvalue(), err.getvalue())


def digest_key(argv) -> str:
    return " ".join(argv)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise JobFailure(message)


class References:
    """
    Expected values. With broken=True every reference is deliberately
    wrong, so the smoke check can show each workload's checks firing.
    """

    def __init__(self, broken: bool = False):
        self.broken = broken
        self._digests = None

    def digest(self, argv) -> str:
        if self.broken:
            return hashlib.sha256(b"deliberately wrong reference").hexdigest()
        if self._digests is None:
            self._digests = json.loads(DIGESTS_PATH.read_text())
        return self._digests[digest_key(argv)]

    @property
    def semigroup_drift(self) -> float:
        return 0.5 if self.broken else 1.0

    def free_group_walk(self, steps: int) -> tuple[list[Fraction], float]:
        drifts, entropy = free_group_chain(steps)
        if self.broken:
            drifts = [d + Fraction(1, 4**steps) for d in drifts]
        return drifts, entropy


def free_group_chain(steps: int) -> tuple[list[Fraction], float]:
    """
    Exact drift series E[K_t]/t for t = 1..steps, and the entropy rate
    H(mu_steps)/steps, of the uniform walk on LF_2, which is the free
    group F_2. Its length is a birth-death chain: from the identity all
    4 letters lengthen; elsewhere 3 lengthen and 1 shortens. Every one
    of the 4 * 3^(k-1) elements of length k is equally likely, which
    gives the entropy from the length distribution alone. This is an
    independent certificate for the oracle's dynamic program.
    """
    paths = [1]  # paths[k] = letter paths ending at length k
    drifts = []
    for t in range(1, steps + 1):
        nxt = [0] * (len(paths) + 1)
        for k, c in enumerate(paths):
            if c:
                nxt[k + 1] += c * (4 if k == 0 else 3)
                if k:
                    nxt[k - 1] += c
        paths = nxt
        drifts.append(Fraction(sum(k * c for k, c in enumerate(paths)), 4**t * t))
    total = 4**steps
    acc = 0.0
    for k, c in enumerate(paths):
        if c:
            elements = 4 * 3 ** (k - 1) if k else 1
            acc += c * math.log(c // elements)
    return drifts, (math.log(total) - acc / total) / steps


# ---------------------------------------------------------------------------
# Output checks


def _checked_cli(out: CliOutput) -> CliOutput:
    if not isinstance(out, CliOutput):
        raise JobFailure("no CLI output")
    _require(out.code == 0, f"exit {out.code}: {out.err.strip()[:200]}")
    return out


def _check_digest(refs: References, out: CliOutput) -> None:
    _checked_cli(out)
    got = hashlib.sha256(out.out.encode()).hexdigest()
    _require(got == refs.digest(out.argv), f"output digest {got[:12]} differs from the recorded one")


def _check_echo(report: dict, **expected) -> None:
    for key, value in expected.items():
        _require(report.get(key) == value, f"{key}={report.get(key)!r}, expected {value!r}")


def _replay(params: walk.WalkParams) -> None:
    """
    Replay trial 0 from its letter stream through core.heap_from_word,
    an implementation independent of the step kernels: the reduced
    length must match, and in semigroup mode the height too.
    """
    stats = walk.run_trial(params, 0)
    codes = walk.letter_stream(params, 0)
    if params.mode == walk.GROUP:
        letters = [(int(c) // 2 + 1, 1 if int(c) % 2 == 0 else -1) for c in codes]
    else:
        letters = [(int(c) + 1, 1) for c in codes]
    heap = core.heap_from_word(letters, params.n, params.mode)
    _require(heap.length == stats.final_length,
             f"replayed length {heap.length} != kernel length {stats.final_length}")
    if params.mode == walk.SEMIGROUP:
        height = max((col[-1][0] for col in heap.columns if col), default=0)
        _require(height == stats.height, f"replayed height {height} != kernel height {stats.height}")


def _check_walk_json(refs, params: walk.WalkParams, replay: walk.WalkParams, ctx: dict):
    def check(out):
        report = json.loads(_checked_cli(out).out)
        _check_echo(report, mode=params.mode, n=params.n, steps=params.steps,
                    trials=params.trials, seed=params.seed)
        _require(0.0 < report["roof_density"] <= 0.5, f"roof density {report['roof_density']}")
        if params.mode == walk.SEMIGROUP:
            _require(report["drift_mean"] == refs.semigroup_drift,
                     f"semigroup drift_mean {report['drift_mean']!r} != {refs.semigroup_drift!r}")
            _require(report["drift_se"] == 0.0 and report["alpha_hat"] is None,
                     "semigroup walk reports a drift spread or an alpha")
            _require(report["height_coeff"] > 0 and report["heap_density"] > 0, "empty deposit")
        else:
            alpha = report["alpha_hat"]
            _require(0.0 < report["drift_mean"] < 1.0, f"group drift {report['drift_mean']}")
            _require(abs(alpha) < 0.5, f"alpha_hat {alpha} outside (-1/2, 1/2)")
            _require(abs(report["entropy_estimate"] - math.log(3.0 - alpha)) < 1e-9,
                     "group entropy is not log(3 - alpha_hat)")
            ctx["alpha_hat"] = alpha
        _replay(replay)

    return check


def _check_snapshot_csv(params: walk.WalkParams):
    def check(out):
        lines = _checked_cli(out).out.splitlines()
        _require(lines[0].startswith(f"# run: walk mode=semigroup n={params.n} steps={params.steps} "),
                 f"run line {lines[0]!r}")
        _require(f" seed={params.seed} " in lines[0], "run line does not echo the seed")
        _require(lines[1] == "step,column,top_level,in_roof", f"header {lines[1]!r}")
        rows = [tuple(int(x) for x in line.split(",")) for line in lines[2:]]
        snaps = params.steps // params.snapshot_every
        _require(len(rows) == snaps * params.n, f"{len(rows)} rows, expected {snaps * params.n}")
        for s in range(snaps):
            block = rows[s * params.n:(s + 1) * params.n]
            _require(all(r[0] == (s + 1) * params.snapshot_every for r in block), "snapshot step")
            roof = [r[1] for r in block if r[3]]
            _require(all(r[3] in (0, 1) and (r[2] > 0 or not r[3]) for r in block), "roof marks")
            _require(all(b - a >= 2 for a, b in zip(roof, roof[1:])), "adjacent roof columns")

    return check


def _check_roof_chain(mode: str, n: int, steps: int, seed: int):
    def check(out):
        report = json.loads(_checked_cli(out).out)
        _check_echo(report, mode=mode, n=n, steps=steps, seed=seed, boundary="open")
        _require(0.0 < report["ones_density"] <= 0.5, f"ones density {report['ones_density']}")
        _require(0 <= report["final_ones"] <= (n + 1) // 2, f"final ones {report['final_ones']}")

    return check


def _check_inequality(ctx: dict):
    def check(out):
        report = json.loads(_checked_cli(out).out)
        a = ctx["alpha_hat"]
        v, l, h = math.log(7.0), (2.0 - a) / (3.0 - a), math.log(3.0 - a)
        for key, want in (("v", v), ("l", l), ("h", h), ("epsilon", l * v - h)):
            _require(abs(report[key] - want) <= 1e-9, f"{key}={report[key]}, expected {want}")
        _require(report["grid_min_epsilon"] > 0.0, "eps(alpha) sweep not positive")

    return check


def _cosine_spectrum(n: int) -> list[float]:
    top = [4.0 * math.cos(math.pi * k / (n + 2)) ** 2 - 1.0 for k in range(1, (n + 1) // 2 + 1)]
    return sorted(top + [-1.0] * (n - len(top)), reverse=True)


def _check_spectrum(refs, n: int):
    def check(out):
        _check_digest(refs, out)
        eigs = json.loads(out.out)["eigenvalues"]
        want = _cosine_spectrum(n)
        _require(len(eigs) == n, f"{len(eigs)} eigenvalues for n={n}")
        dev = max(abs(a - b) for a, b in zip(eigs, want))
        _require(dev <= 1e-9, f"spectrum deviates from 4cos^2(pi k/(n+2)) - 1 by {dev:.2e}")

    return check


def _check_braid_bounds(refs, n: int):
    def check(out):
        _check_digest(refs, out)
        v_lf = json.loads(out.out)["v_lf"]
        want = math.log(2.0 * _cosine_spectrum(n)[0] + 1.0)
        _require(abs(v_lf - want) <= 1e-9, f"v_lf {v_lf}, expected log(2 lambda_max + 1) = {want}")

    return check


def _check_drift_series(refs, steps: int):
    def check(series):
        want, _ = refs.free_group_walk(steps)
        _require(list(series) == want,
                 f"drift({2},{steps}) = {series[-1]}, birth-death chain gives {want[-1]}")

    return check


def _check_entropy(refs, steps: int):
    def check(h):
        _, want = refs.free_group_walk(steps)
        _require(abs(h - want) <= 1e-12, f"entropy rate {h!r}, birth-death chain gives {want!r}")

    return check


def _check_distribution(n: int, steps: int):
    def check(dist):
        # after N semigroup pushes every element of length N is reachable
        support = counting.count_words(n, steps, counting.SEMIGROUP)
        _require(len(dist.probabilities) == support,
                 f"{len(dist.probabilities)} states carry mass, V({n},{steps}) = {support}")
        _require(sum(dist.probabilities.values()) == 1, "probabilities do not sum to 1")

    return check


# ---------------------------------------------------------------------------
# Word-property job (criterion 9)


def _random_words(rng: random.Random, cases: int):
    words = []
    for _ in range(cases):
        n = rng.randint(1, 6)
        letters = [core.Letter(rng.randint(1, n), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 24))]
        swappable = [i for i in range(len(letters) - 1)
                     if abs(letters[i].index - letters[i + 1].index) >= 2]
        swap = rng.choice(swappable) if swappable else None
        words.append((n, letters, swap))
    return words


def _property_job(words):
    """
    For every word: its heap's normal form spells the same element, the
    word times its inverse is the identity, and swapping one commuting
    pair leaves the element unchanged. Returns the violations.
    """

    def run():
        bad = []
        for n, letters, swap in words:
            heap = core.heap_from_word(letters, n)
            key = core.canonical_key(heap)
            respelled = core.normal_form_readout(heap).letters()
            if core.canonical_key(core.heap_from_word(respelled, n)) != key:
                bad.append(("readout", n, letters))
            undo = letters + [g.inverse() for g in reversed(letters)]
            if not core.heap_from_word(undo, n).is_empty:
                bad.append(("inverse", n, letters))
            if swap is not None:
                swapped = letters[:swap] + [letters[swap + 1], letters[swap]] + letters[swap + 2:]
                if core.canonical_key(core.heap_from_word(swapped, n)) != key:
                    bad.append(("swap", n, letters))
        return bad

    return run


def _check_properties(bad):
    _require(not bad, f"{len(bad)} property violations, first {bad[:1]}")


# ---------------------------------------------------------------------------
# Workloads


def build_jobs(workload: str, seed: int, size: str, refs: References) -> list[Job]:
    """The job list of one pass; inputs depend only on (workload, seed, size)."""
    s = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    ctx: dict = {}
    if workload == "mc-walk":
        n = s["walk_n"]

        def walk_job(mode, steps, trials):
            params = walk.WalkParams(n=n, steps=steps, trials=trials, seed=rng.getrandbits(64), mode=mode)
            replay = walk.WalkParams(n=n, steps=s["replay_steps"], trials=1, seed=params.seed, mode=mode)
            argv = ["walk", "--mode", mode, "--n", str(n), "--steps", str(steps),
                    "--trials", str(trials), "--seed", str(params.seed), "--format", "json"]
            kind = KIND_GROUP_WALK if mode == walk.GROUP else KIND_SEMIGROUP_WALK
            return Job(f"walk-{mode}", kind, lambda: run_cli(argv),
                       _check_walk_json(refs, params, replay, ctx), steps=steps * trials)

        def chain_job(mode):
            steps, chain_seed = s["roof_chain_steps"], rng.getrandbits(64)
            argv = ["roof-chain", "--mode", mode, "--n", str(n), "--steps", str(steps),
                    "--seed", str(chain_seed), "--format", "json"]
            return Job(f"roof-chain-{mode}", KIND_OTHER, lambda: run_cli(argv),
                       _check_roof_chain(mode, n, steps, chain_seed))

        snap_steps, every = s["snapshot_walk"]
        snap = walk.WalkParams(n=n, steps=snap_steps, trials=1, seed=rng.getrandbits(64),
                               mode=walk.SEMIGROUP, snapshot_every=every)
        snap_argv = ["walk", "--mode", "semigroup", "--n", str(n), "--steps", str(snap_steps),
                     "--seed", str(snap.seed), "--snapshot-every", str(every), "--format", "csv"]
        return [
            walk_job(walk.GROUP, *s["group_walk"]),
            walk_job(walk.SEMIGROUP, *s["semigroup_walk"]),
            Job("walk-semigroup-csv", KIND_SEMIGROUP_WALK, lambda: run_cli(snap_argv),
                _check_snapshot_csv(snap), steps=snap_steps),
            chain_job(walk.GROUP),
            chain_job(walk.SEMIGROUP),
            Job("inequality", KIND_OTHER,
                lambda: run_cli(["inequality", "--alpha", repr(ctx["alpha_hat"]), "--format", "json"]),
                _check_inequality(ctx)),
        ]
    if workload == "exact-count":
        ng, kg = s["count_group"]
        nc, kc = s["count_small"]
        nv, kv = s["volume"]
        counts = [
            ["count", "--variant", "group", "--n", str(ng), "--k-max", str(kg)],
            ["count", "--variant", "semigroup", "--n", str(nc), "--k-max", str(kc)],
            ["count", "--variant", "projective", "--n", str(nc), "--k-max", str(kc)],
            ["count", "--variant", "restricted", "--r", "5", "--n", str(nc), "--k-max", str(kc)],
            ["volume", "--variant", "group", "--n", str(nv), "--k-max", str(kv)],
        ]
        jobs = []
        for argv in counts:
            argv = argv + ["--format", "json"]
            label = argv[0] + "-" + argv[2]
            jobs.append(Job(label, KIND_COUNT, lambda argv=argv: run_cli(argv),
                            lambda out: _check_digest(refs, out), digest_argv=tuple(argv)))
        # distinct n in the volume, spectrum and braid jobs keep the
        # spectrum cache of one job from serving another
        spec = ["spectrum", "--n", str(s["spectrum_n"]), "--format", "json"]
        bounds = ["braid-bounds", "--n", str(s["braid_n"]), "--format", "json"]
        jobs.append(Job("spectrum", KIND_SPECTRUM, lambda: run_cli(spec),
                        _check_spectrum(refs, s["spectrum_n"]), digest_argv=tuple(spec)))
        jobs.append(Job("braid-bounds", KIND_SPECTRUM, lambda: run_cli(bounds),
                        _check_braid_bounds(refs, s["braid_n"]), digest_argv=tuple(bounds)))
        return jobs
    if workload == "oracle-ref":
        verify = ["oracle-verify", *s["verify_flags"]]
        drift_n = s["dp_drift_steps"]
        ent_n = s["dp_entropy_steps"]
        dist_n, dist_steps = s["distribution"]
        words = _random_words(random.Random(rng.getrandbits(64)), s["property_cases"])
        return [
            Job("oracle-verify", KIND_ORACLE_VERIFY, lambda: run_cli(verify),
                lambda out: _check_digest(refs, out), digest_argv=tuple(verify)),
            Job("dp-drift", KIND_DP,
                lambda: oracle.exact_drift_series(2, drift_n, oracle.GROUP, max_states=2_000_000),
                _check_drift_series(refs, drift_n)),
            Job("dp-entropy", KIND_DP, lambda: oracle.exact_entropy(2, ent_n, oracle.GROUP),
                _check_entropy(refs, ent_n)),
            Job("dp-distribution", KIND_DP,
                lambda: oracle.exact_distribution(dist_n, dist_steps, oracle.SEMIGROUP),
                _check_distribution(dist_n, dist_steps)),
            Job("core-properties", KIND_OTHER, _property_job(words), _check_properties),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def dp_states(size: str) -> int:
    """Ball size at radius N of the criterion-8 drift DP: 1 + sum_K V(2, K)."""
    steps = SIZES[size]["dp_drift_steps"]
    return 1 + sum(counting.count_words_range(2, steps, counting.GROUP))
