"""
Command-line front end: parse the flags, call the library, print once.
Every run is fully determined by its flags (seed included); outputs are
byte-identical across repeated runs.

Subcommands: count, volume, spectrum, walk, roof-chain, oracle-verify,
braid-bounds, inequality. Each handler returns its record, and
run_command prints it: a dict as JSON with the documented keys and
floats rounded to 12 significant digits; a (header, rows) pair as CSV
with Unix newlines, no quoting, and a `# run:` comment that echoes the
flags as given, in the order the parser declares them (a defaulted
--burn-in prints burn-in=None). braid-bounds and inequality print JSON
only. oracle-verify prints its own progress lines, takes no --format or
--out, and returns its exit code.

The library checks every flag's range and budget before any work, so an
out-of-range flag exits 2 with the library's `error:` message; only
oracle-verify's caps (n-max <= 4, k-max <= 7) are the parser's. Exit
codes: 0 success, 1 oracle-verify mismatch, 2 usage or budget error or
an --out path that cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys

from locfree import braid, counting, walk
from locfree import oracle as oracle_mod
from locfree.core import GROUP, MODES, PROJECTIVE, RESTRICTED, SEMIGROUP, VARIANTS


def _sig12(x):
    return float(f"{x:.12g}") if isinstance(x, float) else x


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_json(obj: dict, out_path: str | None) -> None:
    rounded = {k: _sig12(v) for k, v in obj.items()}
    _emit(json.dumps(rounded, indent=2) + "\n", out_path)


def _run_line(args: argparse.Namespace) -> str:
    flags = (
        f"{name.replace('_', '-')}={value}"
        for name, value in vars(args).items()
        if name not in ("subcommand", "handler", "out")
    )
    return " ".join(["# run:", args.subcommand, *flags])


def _csv(args: argparse.Namespace, header: str, rows, out_path: str | None) -> None:
    lines = [_run_line(args), header, *(",".join(map(str, row)) for row in rows)]
    _emit("\n".join(lines) + "\n", out_path)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_count(args):
    counts = counting.count_words_range(args.n, args.k_max, args.variant, args.r)
    if args.format == "csv":
        return "variant,n,K,count", [(args.variant, args.n, k, c) for k, c in enumerate(counts, 1)]
    return {
        "variant": args.variant,
        "n": args.n,
        "k_max": args.k_max,
        "r": args.r,
        "counts": [str(c) for c in counts],  # lossless decimal
    }


def _cmd_volume(args):
    report = counting.volume_report(args.n, args.k_max, args.variant, args.r)
    if args.format == "csv":
        rows = [(args.variant, args.n, k, f"{x:.12g}") for k, x in enumerate(report.log_ratios, 2)]
        return "variant,n,K,log_ratio", rows
    return {
        "variant": report.variant,
        "n": report.n,
        "k_max": report.k_max,
        "r": report.r,
        "log_ratio_last": report.log_ratios[-1],
        "ratio_last": report.ratio_last,
        "ratio_accelerated": report.ratio_accelerated,
        "finite_n_limit": report.finite_n_limit,
        "asymptotic_limit": report.asymptotic_limit,
    }


def _cmd_spectrum(args):
    eigs = counting.spectrum_numeric(args.n)
    if args.format == "csv":
        return "n,k,eigenvalue", [(args.n, k, f"{lam:.12g}") for k, lam in enumerate(eigs, 1)]
    obj = {"n": args.n, "eigenvalues": [_sig12(x) for x in eigs]}
    for offset in (2, 1):
        cosine = counting.cosine_formula_spectrum(args.n, offset)
        obj[f"cosine_max_dev_offset{offset}"] = max(abs(a - b) for a, b in zip(eigs, cosine))
    return obj


def _cmd_walk(args):
    if args.format == "csv" and args.snapshot_every == 0:
        raise ValueError(
            "csv walk output is the roof-snapshot table; set --snapshot-every"
        )
    if args.format == "json" and args.snapshot_every > 0 and args.out is None:
        raise ValueError("json walk output with snapshots needs --out")
    # csv output is trial 0's snapshot table: describe and budget that trial alone
    params = walk.WalkParams(
        n=args.n,
        steps=args.steps,
        trials=min(args.trials, 1) if args.format == "csv" else args.trials,
        seed=args.seed,
        mode=args.mode,
        snapshot_every=args.snapshot_every,
        burn_in=args.burn_in,
    )

    def snapshots(trial):
        return "step,column,top_level,in_roof", [
            (step, col + 1, tops[col], roof[col])
            for step, tops, roof in trial.snapshots
            for col in range(params.n)
        ]

    if args.format == "csv":
        return snapshots(walk.run_trial(params, 0))
    report, runs = walk.run_walk(params)
    if args.snapshot_every > 0:
        _csv(args, *snapshots(runs[0]), args.out + ".snapshots.csv")
    return report


def _cmd_roof_chain(args):
    if args.format == "csv" and args.snapshot_every == 0:
        raise ValueError(
            "csv roof-chain output is the ones time series; set --snapshot-every"
        )
    result = walk.roof_chain_run(
        n=args.n,
        steps=args.steps,
        seed=args.seed,
        mode=args.mode,
        boundary=args.boundary,
        burn_in=args.burn_in,
        sample_every=args.snapshot_every if args.format == "csv" else 0,
    )
    if args.format == "csv":
        return "step,ones", result.series
    return {
        "mode": result.mode,
        "n": result.n,
        "steps": result.steps,
        "seed": result.seed,
        "boundary": result.boundary,
        "burn_in": result.burn_in,
        "ones_density": result.ones_density,
        "final_ones": sum(result.final),
    }


def _cmd_oracle_verify(args) -> int:
    checks = []  # (label, enumerated, formula)
    grids = [(variant, None, args.k_max) for variant in (GROUP, SEMIGROUP, PROJECTIVE)]
    grids += [(RESTRICTED, r, min(args.k_max, 6)) for r in range(2, 6)]
    for variant, r, k_max in grids:
        name = variant if r is None else f"{variant} r={r}"
        for n in range(1, args.n_max + 1):
            counts = oracle_mod.ball_counts(n, k_max, variant, r)
            expected = counting.count_words_range(n, k_max, variant, r)
            checks += [
                (f"{name} n={n} K={K}", counts.get(K, 0), e) for K, e in enumerate(expected, 1)
            ]
            if r is None:
                print(f"checked {variant:10s} n={n} K<={k_max}")
        if r is not None:
            print(f"checked {name} n<={args.n_max} K<={k_max}")
    checks += [
        (
            f"N_{r}({K},{s})",
            oracle_mod.brute_restricted(r, K, s),
            counting.restricted_syllable_count(r, K, s),
        )
        for r in range(2, 8)
        for K in range(1, 13)
        for s in range(1, K + 1)
    ]
    print("checked syllable counts r<=7 K<=12")
    failures = [
        f"MISMATCH {label}: enumerated {got}, formula {want}"
        for label, got, want in checks
        if got != want
    ]
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print("oracle-verify: all comparisons passed")
    return 0


def _cmd_braid_bounds(args):
    return dataclasses.asdict(braid.bounds_report(args.n, args.alpha))


def _cmd_inequality(args):
    explicit = [args.v, args.l, args.entropy]
    if any(x is not None for x in explicit):
        if args.alpha is not None:
            raise ValueError("give either --alpha A or --v V --l L --h H, not both")
        if not all(x is not None for x in explicit):
            raise ValueError("provide all of --v, --l, --h (or none and use --alpha)")
        v, l, h = explicit
    else:
        alpha = 0.0 if args.alpha is None else args.alpha
        v = braid.LOG7
        l = braid.drift_bounds(alpha)[1]
        h = math.log(3.0 - alpha)
    return dataclasses.asdict(braid.inequality_report(v, l, h))


# ---------------------------------------------------------------------------
# Parser. vars(args) keeps each subparser's declaration order, which is
# the order of the `# run:` line.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locfree",
        description="exact counts, random walks, and braid bounds for locally free groups",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_output(p, handler, formats=("csv", "json")):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(handler=handler)

    for name, handler, text in (
        ("count", _cmd_count, "exact element counts by reduced length"),
        ("volume", _cmd_volume, "successive log-ratio volume diagnostics"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--variant", choices=VARIANTS, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k-max", type=int, required=True)
        p.add_argument("--r", type=int, default=None)
        add_output(p, handler)

    p = sub.add_parser("spectrum", help="eigenvalues of the succession matrix")
    p.add_argument("--n", type=int, required=True)
    add_output(p, _cmd_spectrum)

    p = sub.add_parser("walk", help="seeded Monte Carlo walk")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=None, help="window discard (default 10*n)")
    p.add_argument("--snapshot-every", type=int, default=0)
    add_output(p, _cmd_walk)

    p = sub.add_parser("roof-chain", help="roof indicator Markov chain")
    p.add_argument("--mode", choices=MODES, default=SEMIGROUP)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--boundary", choices=(walk.OPEN, walk.PERIODIC), default=walk.OPEN)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--snapshot-every", type=int, default=0)
    add_output(p, _cmd_roof_chain)

    p = sub.add_parser("oracle-verify", help="formulas vs brute-force enumeration")
    p.add_argument("--n-max", type=int, choices=range(1, 5), default=4)
    p.add_argument("--k-max", type=int, choices=range(1, 8), default=7)
    p.set_defaults(handler=_cmd_oracle_verify)

    p = sub.add_parser("braid-bounds", help="volume and drift bounds for B_{n+1}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    add_output(p, _cmd_braid_bounds, formats=("json",))

    p = sub.add_parser("inequality", help="l*v >= h discrepancy report")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--v", type=float, default=None)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--h", dest="entropy", type=float, default=None)
    add_output(p, _cmd_inequality, formats=("json",))

    # argparse takes "-2.5e-05", as repr() and the JSON print it, for an
    # option unless the number pattern admits an exponent; it has no
    # public setting for this pattern
    number = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    for p in sub.choices.values():
        p._negative_number_matcher = number
    return parser


def run_command(argv) -> int:
    """Parse argv, run the handler and print its record; returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        record = args.handler(args)
        if isinstance(record, int):
            return record
        if isinstance(record, dict):
            _emit_json(record, args.out)
        else:
            _csv(args, *record, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
