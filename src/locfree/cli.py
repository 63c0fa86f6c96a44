"""
Command-line front end. Every run is fully determined by its flags
(seed included); outputs are byte-identical across repeated runs.

Subcommands: count, volume, spectrum, walk, roof-chain, oracle-verify,
braid-bounds, inequality. CSV output uses Unix newlines, no quoting,
a `# run:` comment echoing the flags as given (a defaulted --burn-in
prints burn-in=None), and a header row. JSON output carries the
documented keys with floats rounded to 12 significant digits. Exit
codes: 0 success, 1 oracle-verify mismatch, 2 usage or budget error or
an --out path that cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from locfree import braid, counting, walk
from locfree import oracle as oracle_mod
from locfree.core import GROUP, SEMIGROUP
from locfree.counting import PROJECTIVE, RESTRICTED, VARIANTS


def _sig12(x):
    return float(f"{x:.12g}") if isinstance(x, float) else x


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)


def _emit_json(obj: dict, out_path: str | None) -> None:
    rounded = {k: _sig12(v) for k, v in obj.items()}
    _emit(json.dumps(rounded, indent=2) + "\n", out_path)


def _run_line(args: argparse.Namespace, fields: list[str]) -> str:
    parts = [args.subcommand]
    for name in fields:
        parts.append(f"{name.replace('_', '-')}={getattr(args, name)}")
    return "# run: " + " ".join(parts)


def _csv(comment: str, header: str, rows, out_path: str | None) -> None:
    lines = [comment, header]
    lines.extend(",".join(str(x) for x in row) for row in rows)
    _emit("\n".join(lines) + "\n", out_path)


def _positive(kind, name, minimum=1, maximum=None):
    def parse(text: str):
        value = kind(text)
        if value < minimum or (maximum is not None and value > maximum):
            hi = f"..{maximum}" if maximum is not None else ""
            raise argparse.ArgumentTypeError(
                f"{name} must be in range {minimum}{hi or '+'}, got {text}"
            )
        return value

    return parse


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_count(args) -> int:
    counts = counting.count_words_range(args.n, args.k_max, args.variant, args.r)
    comment = _run_line(args, ["variant", "n", "k_max", "r", "format"])
    if args.format == "csv":
        rows = [(args.variant, args.n, k + 1, c) for k, c in enumerate(counts)]
        _csv(comment, "variant,n,K,count", rows, args.out)
    else:
        _emit_json(
            {
                "variant": args.variant,
                "n": args.n,
                "k_max": args.k_max,
                "r": args.r,
                "counts": [str(c) for c in counts],  # lossless decimal
            },
            args.out,
        )
    return 0


def _cmd_volume(args) -> int:
    report = counting.volume_report(args.n, args.k_max, args.variant, args.r)
    comment = _run_line(args, ["variant", "n", "k_max", "r", "format"])
    if args.format == "csv":
        rows = [
            (args.variant, args.n, k + 2, f"{lr:.12g}")
            for k, lr in enumerate(report.log_ratios)
        ]
        _csv(comment, "variant,n,K,log_ratio", rows, args.out)
    else:
        _emit_json(
            {
                "variant": report.variant,
                "n": report.n,
                "k_max": report.k_max,
                "r": report.r,
                "log_ratio_last": report.log_ratios[-1],
                "ratio_last": report.ratio_last,
                "ratio_accelerated": report.ratio_accelerated,
                "finite_n_limit": report.finite_n_limit,
                "asymptotic_limit": report.asymptotic_limit,
            },
            args.out,
        )
    return 0


def _cmd_spectrum(args) -> int:
    eigs = counting.spectrum_numeric(args.n)
    comment = _run_line(args, ["n", "format"])
    if args.format == "csv":
        rows = [(args.n, k + 1, f"{lam:.12g}") for k, lam in enumerate(eigs)]
        _csv(comment, "n,k,eigenvalue", rows, args.out)
    else:
        dev2 = max(
            abs(a - b)
            for a, b in zip(eigs, counting.cosine_formula_spectrum(args.n, 2))
        )
        dev1 = max(
            abs(a - b)
            for a, b in zip(eigs, counting.cosine_formula_spectrum(args.n, 1))
        )
        obj = {
            "n": args.n,
            "eigenvalues": [_sig12(x) for x in eigs],
            "cosine_max_dev_offset2": _sig12(dev2),
            "cosine_max_dev_offset1": _sig12(dev1),
        }
        _emit_json(obj, args.out)
    return 0


def _cmd_walk(args) -> int:
    if args.format == "csv" and args.snapshot_every == 0:
        raise ValueError(
            "csv walk output is the roof-snapshot table; set --snapshot-every"
        )
    if args.format == "json" and args.snapshot_every > 0 and args.out is None:
        raise ValueError("json walk output with snapshots needs --out")
    params = walk.WalkParams(
        n=args.n,
        steps=args.steps,
        trials=args.trials,
        seed=args.seed,
        mode=args.mode,
        snapshot_every=args.snapshot_every,
        burn_in=args.burn_in,
    )
    report, runs = walk.run_walk(params)
    snap_rows = [
        (step, col + 1, tops[col], roof[col])
        for step, tops, roof in runs[0].snapshots
        for col in range(params.n)
    ]
    comment = _run_line(
        args, ["mode", "n", "steps", "trials", "seed", "burn_in", "snapshot_every", "format"]
    )
    if args.format == "csv":
        _csv(comment, "step,column,top_level,in_roof", snap_rows, args.out)
        return 0
    _emit_json(report, args.out)
    if args.snapshot_every > 0:
        _csv(comment, "step,column,top_level,in_roof", snap_rows, args.out + ".snapshots.csv")
    return 0


def _cmd_roof_chain(args) -> int:
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
        sample_every=args.snapshot_every,
    )
    comment = _run_line(
        args, ["mode", "n", "steps", "seed", "boundary", "burn_in", "snapshot_every", "format"]
    )
    if args.format == "csv":
        _csv(comment, "step,ones", result.series, args.out)
    else:
        _emit_json(
            {
                "mode": result.mode,
                "n": result.n,
                "steps": result.steps,
                "seed": result.seed,
                "boundary": result.boundary,
                "burn_in": result.burn_in,
                "ones_density": result.ones_density,
                "final_ones": sum(result.final),
            },
            args.out,
        )
    return 0


def _grid_check(failures, label, got, expected) -> None:
    if got != expected:
        failures.append(f"{label}: enumerated {got}, formula {expected}")


def _cmd_oracle_verify(args) -> int:
    failures: list[str] = []
    for variant in (GROUP, SEMIGROUP, PROJECTIVE):
        for n in range(1, args.n_max + 1):
            counts = oracle_mod.ball_counts(n, args.k_max, variant)
            expected = counting.count_words_range(n, args.k_max, variant)
            for K in range(1, args.k_max + 1):
                _grid_check(failures, f"{variant} n={n} K={K}", counts.get(K, 0), expected[K - 1])
            print(f"checked {variant:10s} n={n} K<={args.k_max}")
    res_kmax = min(args.k_max, 6)
    for r in range(2, 6):
        for n in range(1, min(args.n_max, 4) + 1):
            counts = oracle_mod.ball_counts(n, res_kmax, RESTRICTED, r=r)
            expected = counting.count_words_range(n, res_kmax, RESTRICTED, r=r)
            for K in range(1, res_kmax + 1):
                _grid_check(
                    failures, f"restricted r={r} n={n} K={K}", counts.get(K, 0), expected[K - 1]
                )
        print(f"checked restricted r={r} n<={min(args.n_max, 4)} K<={res_kmax}")
    for r in range(2, 8):
        for K in range(1, 13):
            for s in range(1, K + 1):
                _grid_check(
                    failures,
                    f"N_{r}({K},{s})",
                    oracle_mod.brute_restricted(r, K, s),
                    counting.restricted_syllable_count(r, K, s),
                )
    print("checked syllable counts r<=7 K<=12")
    if failures:
        for line in failures:
            print(f"MISMATCH {line}", file=sys.stderr)
        return 1
    print("oracle-verify: all comparisons passed")
    return 0


def _cmd_braid_bounds(args) -> int:
    report = braid.bounds_report(args.n, args.alpha)
    _emit_json(dataclasses.asdict(report), args.out)
    return 0


def _cmd_inequality(args) -> int:
    explicit = [args.v, args.l, args.entropy]
    if any(x is not None for x in explicit):
        if not all(x is not None for x in explicit):
            raise ValueError("provide all of --v, --l, --h (or none and use --alpha)")
        v, l, h = explicit
    else:
        v = braid.LOG7
        l = braid.drift_bounds(args.alpha)[1]
        h = math.log(3.0 - args.alpha)
    report = braid.inequality_report(v, l, h)
    _emit_json(dataclasses.asdict(report), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locfree",
        description="exact counts, random walks, and braid bounds for locally free groups",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    u32 = _positive(int, "value", 1, 2**32 - 1)
    u64 = _positive(int, "value", 1, 2**64 - 1)
    seed64 = _positive(int, "seed", 0, 2**64 - 1)

    def add_common(p, out=True):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if out:
            p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("count", help="exact element counts by reduced length")
    p.add_argument("--n", type=u32, required=True)
    p.add_argument("--k-max", type=u32, required=True)
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--r", type=_positive(int, "r", 2), default=None)
    add_common(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("volume", help="successive log-ratio volume diagnostics")
    p.add_argument("--n", type=u32, required=True)
    p.add_argument("--k-max", type=_positive(int, "k-max", 2), required=True)
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--r", type=_positive(int, "r", 2), default=None)
    add_common(p)
    p.set_defaults(handler=_cmd_volume)

    p = sub.add_parser("spectrum", help="eigenvalues of the succession matrix")
    p.add_argument("--n", type=u32, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("walk", help="seeded Monte Carlo walk")
    p.add_argument("--mode", choices=(GROUP, SEMIGROUP), required=True)
    p.add_argument("--n", type=u32, required=True)
    p.add_argument("--steps", type=u64, required=True)
    p.add_argument("--trials", type=u32, default=1)
    p.add_argument("--seed", type=seed64, default=0)
    p.add_argument("--burn-in", type=_positive(int, "burn-in", 0), default=None,
                   help="window discard (default 10*n)")
    p.add_argument("--snapshot-every", type=_positive(int, "snapshot-every", 0), default=0)
    add_common(p)
    p.set_defaults(handler=_cmd_walk)

    p = sub.add_parser("roof-chain", help="roof indicator Markov chain")
    p.add_argument("--n", type=u32, required=True)
    p.add_argument("--steps", type=u64, required=True)
    p.add_argument("--seed", type=seed64, default=0)
    p.add_argument("--mode", choices=(GROUP, SEMIGROUP), default=SEMIGROUP)
    p.add_argument("--boundary", choices=(walk.OPEN, walk.PERIODIC), default=walk.OPEN)
    p.add_argument("--burn-in", type=_positive(int, "burn-in", 0), default=None)
    p.add_argument("--snapshot-every", type=_positive(int, "snapshot-every", 0), default=0)
    add_common(p)
    p.set_defaults(handler=_cmd_roof_chain)

    p = sub.add_parser("oracle-verify", help="formulas vs brute-force enumeration")
    p.add_argument("--n-max", type=_positive(int, "n-max", 1, 4), default=4)
    p.add_argument("--k-max", type=_positive(int, "k-max", 1, 7), default=7)
    p.set_defaults(handler=_cmd_oracle_verify)

    p = sub.add_parser("braid-bounds", help="volume and drift bounds for B_{n+1}")
    p.add_argument("--n", type=_positive(int, "n", 2), required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    add_common(p)
    p.set_defaults(handler=_cmd_braid_bounds)

    p = sub.add_parser("inequality", help="l*v >= h discrepancy report")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--v", type=float, default=None)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--h", dest="entropy", type=float, default=None)
    add_common(p)
    p.set_defaults(handler=_cmd_inequality)

    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (ValueError, OSError, oracle_mod.BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
