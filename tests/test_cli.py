"""CLI surface: output shapes, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

from locfree import cli, counting, oracle, walk
from locfree.cli import run_command

REPORT_KEYS = [
    "mode", "n", "steps", "trials", "seed", "drift_mean", "drift_se",
    "roof_density", "entropy_estimate", "alpha_hat", "alpha_se",
    "height_coeff", "heap_density",
]


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- count -------------------------------------------------------------------


def test_count_csv_exact_rows(capsys):
    code, out, err = run(capsys, "count", "--n", "3", "--k-max", "2", "--variant", "group")
    assert code == 0 and err == ""
    assert out.endswith("\n")
    lines = out.splitlines()
    assert lines[0].startswith("# run: count ")
    assert lines[1] == "variant,n,K,count"
    assert lines[2] == "group,3,1,6"
    assert lines[3] == "group,3,2,26"
    assert len(lines) == 4


def test_count_json_doubling(capsys):
    code, out, _ = run(
        capsys, "count", "--format", "json",
        "--n", "2", "--k-max", "4", "--variant", "semigroup",
    )
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["variant", "n", "k_max", "r", "counts"]
    assert obj["r"] is None
    assert obj["counts"] == ["2", "4", "8", "16"]


def test_count_json_counts_are_lossless_strings(capsys):
    # 2^300 would lose digits as a JSON float; the string round-trips.
    code, out, _ = run(
        capsys, "count", "--format", "json",
        "--n", "2", "--k-max", "300", "--variant", "semigroup",
    )
    assert code == 0
    obj = json.loads(out)
    assert int(obj["counts"][-1]) == 2**300


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "3", "--k-max", "2", "--variant", "restricted"),
        ("count", "--n", "3", "--k-max", "2", "--variant", "group", "--r", "3"),
    ],
)
def test_count_r_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing-dir", "directory"])
def test_unwritable_out_exits_two(capsys, tmp_path, target):
    out_path = str(tmp_path / target)
    code, out, err = run(
        capsys, "count", "--n", "3", "--k-max", "2", "--variant", "group", "--out", out_path
    )
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_count_restricted_with_r(capsys):
    code, out, _ = run(
        capsys, "count", "--format", "json",
        "--n", "3", "--k-max", "3", "--variant", "restricted", "--r", "2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["r"] == 2
    assert obj["counts"] == [str(c) for c in counting.count_words_range(3, 3, "restricted", 2)]


# --- volume / spectrum ---------------------------------------------------------


def test_volume_json_n2(capsys):
    code, out, _ = run(
        capsys, "volume", "--format", "json",
        "--n", "2", "--k-max", "40", "--variant", "group",
    )
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == [
        "variant", "n", "k_max", "r", "log_ratio_last", "ratio_last",
        "ratio_accelerated", "finite_n_limit", "asymptotic_limit",
    ]
    # json floats are rounded to 12 significant digits
    assert math.isclose(obj["ratio_last"], 3.0, rel_tol=1e-11)
    assert math.isclose(obj["finite_n_limit"], math.log(3.0), rel_tol=1e-11)
    assert math.isclose(obj["asymptotic_limit"], math.log(7.0), rel_tol=1e-11)


def test_volume_csv_k_column_starts_at_two(capsys):
    code, out, _ = run(capsys, "volume", "--n", "2", "--k-max", "4", "--variant", "semigroup")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "variant,n,K,log_ratio"
    ks = [int(line.split(",")[2]) for line in lines[2:]]
    assert ks == [2, 3, 4]
    for line in lines[2:]:
        assert math.isclose(float(line.split(",")[3]), math.log(2.0), rel_tol=1e-12)


@pytest.mark.parametrize("variant", [["projective"], ["restricted", "--r", "2"]])
def test_volume_of_a_finite_variant_exits_2(capsys, variant):
    # at n = 1 both variants are finite: V(1, K) vanishes for K >= 2
    code, out, err = run(capsys, "volume", "--variant", *variant, "--n", "1", "--k-max", "3")
    assert code == 2
    assert out == ""
    assert f"error: volume is undefined for the {variant[0]} variant at n=1" in err


def test_volume_n1_group_and_semigroup_still_report(capsys):
    for variant in ("group", "semigroup"):
        code, out, _ = run(capsys, "volume", "--format", "json", "--variant", variant, "--n", "1", "--k-max", "3")
        assert code == 0
        assert json.loads(out)["finite_n_limit"] == 0.0


def test_spectrum_json_n3(capsys):
    code, out, _ = run(capsys, "spectrum", "--format", "json", "--n", "3")
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["n", "eigenvalues", "cosine_max_dev_offset2", "cosine_max_dev_offset1"]
    golden = (1 + math.sqrt(5)) / 2
    assert len(obj["eigenvalues"]) == 3
    assert min(abs(e - golden) for e in obj["eigenvalues"]) < 1e-9
    assert obj["cosine_max_dev_offset2"] < 1e-9
    assert obj["cosine_max_dev_offset1"] > 1e-2


def test_spectrum_csv_n2(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "n,k,eigenvalue"
    values = sorted(float(line.split(",")[2]) for line in lines[2:])
    assert math.isclose(values[0], -1.0, abs_tol=1e-9)
    assert math.isclose(values[1], 1.0, abs_tol=1e-9)


# --- walk ----------------------------------------------------------------------


def test_walk_json_report(capsys):
    code, out, _ = run(
        capsys, "walk", "--format", "json", "--mode", "semigroup",
        "--n", "4", "--steps", "400", "--trials", "2", "--seed", "9",
    )
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == REPORT_KEYS
    assert obj["drift_mean"] == 1.0
    assert obj["alpha_hat"] is None


def test_walk_out_reruns_byte_identical(capsys, tmp_path):
    argv = [
        "walk", "--format", "json", "--mode", "group",
        "--n", "3", "--steps", "500", "--trials", "2", "--seed", "11",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_command(argv + ["--out", str(a)]) == 0
    assert run_command(argv + ["--out", str(b)]) == 0
    assert capsys.readouterr().out == ""
    assert a.read_bytes() == b.read_bytes()


def _forbid(monkeypatch, name):
    # flag combinations are rejected before any walk work starts
    def boom(*args, **kwargs):
        raise AssertionError(f"walk.{name} ran")

    monkeypatch.setattr(walk, name, boom)


def test_walk_csv_needs_snapshot_every(capsys, monkeypatch):
    _forbid(monkeypatch, "run_walk")
    code, out, err = run(
        capsys, "walk", "--mode", "semigroup", "--n", "1", "--steps", "100",
    )
    assert code == 2
    assert out == ""
    assert "snapshot-every" in err


def test_walk_json_snapshots_need_out(capsys, monkeypatch):
    _forbid(monkeypatch, "run_walk")
    code, out, err = run(
        capsys, "walk", "--format", "json", "--mode", "semigroup",
        "--n", "1", "--steps", "100", "--snapshot-every", "50",
    )
    assert code == 2
    assert out == ""
    assert "--out" in err


def test_walk_snapshot_sibling_file(capsys, tmp_path):
    out = tmp_path / "w.json"
    code, _, _ = run(
        capsys, "walk", "--format", "json", "--mode", "semigroup",
        "--n", "3", "--steps", "400", "--seed", "5",
        "--snapshot-every", "100", "--out", str(out),
    )
    assert code == 0
    sibling = tmp_path / "w.json.snapshots.csv"
    assert out.exists() and sibling.exists()
    lines = sibling.read_text().splitlines()
    assert lines[0].startswith("# run: walk ")
    assert lines[1] == "step,column,top_level,in_roof"
    # 4 snapshots x 3 columns
    assert len(lines) == 2 + 4 * 3
    first = lines[2].split(",")
    assert first[0] == "100" and first[1] == "1"
    assert first[3] in ("0", "1")


def test_walk_csv_stdout(capsys):
    code, out, _ = run(
        capsys, "walk", "--mode", "semigroup", "--n", "2", "--steps", "200",
        "--snapshot-every", "100",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "step,column,top_level,in_roof"
    assert len(lines) == 2 + 2 * 2


# --- roof chain ------------------------------------------------------------------


def test_roof_chain_json(capsys):
    code, out, _ = run(
        capsys, "roof-chain", "--format", "json",
        "--n", "9", "--steps", "2000", "--seed", "3", "--boundary", "periodic",
    )
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == [
        "mode", "n", "steps", "seed", "boundary", "burn_in",
        "ones_density", "final_ones",
    ]
    assert obj["boundary"] == "periodic"
    assert 0.0 < obj["ones_density"] < 0.5
    assert 0 <= obj["final_ones"] <= 5


def test_roof_chain_csv_needs_snapshot_every(capsys, monkeypatch):
    _forbid(monkeypatch, "roof_chain_run")
    code, out, err = run(capsys, "roof-chain", "--n", "5", "--steps", "100")
    assert code == 2
    assert out == ""
    assert "snapshot-every" in err


def test_roof_chain_csv_series(capsys):
    code, out, _ = run(
        capsys, "roof-chain", "--n", "5", "--steps", "200",
        "--snapshot-every", "50",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "step,ones"
    assert [int(line.split(",")[0]) for line in lines[2:]] == [50, 100, 150, 200]
    for line in lines[2:]:
        assert 0 <= int(line.split(",")[1]) <= 3


# --- oracle-verify ----------------------------------------------------------------


def test_oracle_verify_small_grid(capsys):
    code, out, err = run(capsys, "oracle-verify", "--n-max", "2", "--k-max", "4")
    assert code == 0
    assert err == ""
    assert "oracle-verify: all comparisons passed" in out


def test_oracle_verify_flags_mismatch(capsys, monkeypatch):
    real = counting.count_words_range

    def poisoned(n, k_max, variant, r=None):
        values = real(n, k_max, variant, r=r)
        if (variant, n) == ("group", 1):
            values[0] += 1  # K = 1
        return values

    monkeypatch.setattr(counting, "count_words_range", poisoned)
    code, out, err = run(capsys, "oracle-verify", "--n-max", "1", "--k-max", "2")
    assert code == 1
    assert "MISMATCH group n=1 K=1" in err
    assert "all comparisons passed" not in out


def test_oracle_verify_flags_census_mismatch(capsys, monkeypatch):
    real = oracle.ball_counts

    def poisoned(n, radius, variant, r=None, max_states=oracle.BALL_STATE_BUDGET):
        counts = real(n, radius, variant, r, max_states)
        if (variant, n) == ("semigroup", 2):
            counts[3] += 1
        return counts

    monkeypatch.setattr(oracle, "ball_counts", poisoned)
    code, out, err = run(capsys, "oracle-verify", "--n-max", "2", "--k-max", "4")
    assert code == 1
    assert err.splitlines() == ["MISMATCH semigroup n=2 K=3: enumerated 9, formula 8"]
    assert "all comparisons passed" not in out


# --- braid-bounds / inequality ------------------------------------------------------


def test_braid_bounds_json(capsys):
    code, out, _ = run(capsys, "braid-bounds", "--format", "json", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == [
        "n", "v_lf", "volume_lower", "volume_upper",
        "drift_lower", "drift_upper", "alpha_used", "epsilon",
    ]
    assert math.isclose(obj["volume_upper"], math.log(3.0), rel_tol=1e-11)
    assert math.isclose(obj["volume_lower"], obj["volume_upper"] / 2, rel_tol=1e-10)
    assert obj["drift_lower"] == pytest.approx(1 / 3)
    assert obj["drift_upper"] == pytest.approx(2 / 3)


def test_inequality_defaults(capsys):
    code, out, _ = run(capsys, "inequality", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == [
        "v", "l", "h", "epsilon", "grid_min_epsilon", "grid_argmin_alpha", "grid_step",
    ]
    assert math.isclose(obj["v"], math.log(7.0), rel_tol=1e-11)
    assert math.isclose(obj["l"], 2 / 3, rel_tol=1e-11)
    assert math.isclose(obj["h"], math.log(3.0), rel_tol=1e-11)
    assert obj["epsilon"] == pytest.approx(2 / 3 * math.log(7.0) - math.log(3.0), rel=1e-10)
    assert obj["grid_min_epsilon"] > 0


def test_inequality_explicit_triple(capsys):
    code, out, _ = run(
        capsys, "inequality", "--format", "json",
        "--v", "1.0", "--l", "0.5", "--h", "0.5",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["epsilon"] == 0.0


def test_inequality_partial_triple_rejected(capsys):
    code, _, err = run(capsys, "inequality", "--v", "1.0")
    assert code == 2
    assert "all of" in err


# --- exit codes -----------------------------------------------------------------


@pytest.mark.parametrize("module", ["sympy", "mpmath"])
def test_cli_import_leaves_out(module):
    # neither is a runtime dependency; the command line must not load them
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = f"import sys; sys.path.insert(0, {src!r}); import locfree.cli; sys.exit({module!r} in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], timeout=120).returncode == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n", str(counting.SPECTRUM_MAX_N + 1)],
        ["spectrum", "--n", str(2**32 - 1)],
        ["volume", "--variant", "group", "--n", str(counting.LAMBDA_MAX_N + 1), "--k-max", "2"],
        ["volume", "--variant", "group", "--n", str(2**32 - 1), "--k-max", "2"],
        ["braid-bounds", "--n", str(counting.LAMBDA_MAX_N + 1)],
        ["braid-bounds", "--n", str(2**32 - 1)],
    ],
)
def test_spectrum_degree_budget_exits_two(capsys, argv):
    # every n here is over budget and is rejected before any work
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "budgeted for n <=" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["walk", "--mode", "group", "--n", "1", "--steps", str(walk.MAX_STEPS + 1), "--format", "json"],
        ["walk", "--mode", "semigroup", "--n", "1", "--steps", str(2**64 - 1), "--format", "json"],
        # 2 n snapshot slots per step, over walk.MAX_SLOTS
        ["walk", "--mode", "semigroup", "--n", "100", "--steps", str(walk.MAX_SLOTS // 200 + 1),
         "--snapshot-every", "1"],
        ["roof-chain", "--n", "1", "--steps", str(walk.MAX_STEPS + 1), "--format", "json"],
        ["roof-chain", "--n", "1", "--steps", str(2**64 - 1), "--format", "json"],
    ],
)
def test_walk_budget_exits_two(capsys, monkeypatch, argv):
    _forbid(monkeypatch, "letter_stream")
    _forbid(monkeypatch, "_chunks")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "budgeted at <=" in err


@pytest.mark.parametrize(
    "argv",
    [
        # its counts would pass the 4300-digit limit of int-to-str conversion
        ["count", "--variant", "semigroup", "--n", "30", "--k-max", "7500"],
        ["count", "--variant", "group", "--n", "1", "--k-max", str(counting.COUNT_MAX_K + 1)],
        ["count", "--variant", "group", "--n", str(counting.COUNT_MAX_WORK + 1), "--k-max", "1"],
        ["count", "--variant", "group", "--n", str(2**32 - 1), "--k-max", "1"],
        ["volume", "--variant", "group", "--n", "2", "--k-max", str(counting.COUNT_MAX_K + 1)],
    ],
)
def test_count_budget_exits_two(capsys, monkeypatch, argv):
    def boom(*args):
        raise AssertionError("the count sweep ran")

    monkeypatch.setattr(counting, "_succession_sweep", boom)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "counts are budgeted" in err


def test_count_at_k_max_cap_prints(capsys):
    # the largest admitted group count stays under the 4300-digit limit
    n = counting.COUNT_MAX_WORK // counting.COUNT_MAX_K
    code, out, err = run(capsys, "count", "--variant", "group", "--n", str(n),
                         "--k-max", str(counting.COUNT_MAX_K))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 2 + counting.COUNT_MAX_K
    assert 3000 < len(lines[-1].split(",")[-1]) < 4300


def test_help_exits_zero(capsys):
    assert run_command(["--help"]) == 0
    assert "usage: locfree" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["no-such-command"],
        ["count", "--n", "0", "--k-max", "2", "--variant", "group"],
        ["walk", "--mode", "semigroup", "--n", "3"],
        ["spectrum"],
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    assert run_command(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, line",
    [
        (["count", "--variant", "group", "--n", "3", "--k-max", "2"],
         "# run: count variant=group n=3 k-max=2 r=None format=csv"),
        (["count", "--variant", "restricted", "--r", "3", "--n", "3", "--k-max", "2"],
         "# run: count variant=restricted n=3 k-max=2 r=3 format=csv"),
        (["volume", "--variant", "semigroup", "--n", "2", "--k-max", "4"],
         "# run: volume variant=semigroup n=2 k-max=4 r=None format=csv"),
        (["spectrum", "--n", "2"], "# run: spectrum n=2 format=csv"),
        (["walk", "--mode", "semigroup", "--n", "2", "--steps", "200", "--snapshot-every", "100"],
         "# run: walk mode=semigroup n=2 steps=200 trials=1 seed=0 burn-in=None "
         "snapshot-every=100 format=csv"),
        (["walk", "--mode", "group", "--n", "2", "--steps", "200", "--snapshot-every", "100",
          "--burn-in", "7", "--seed", "3"],
         "# run: walk mode=group n=2 steps=200 trials=1 seed=3 burn-in=7 "
         "snapshot-every=100 format=csv"),
        (["roof-chain", "--n", "5", "--steps", "200", "--snapshot-every", "50"],
         "# run: roof-chain mode=semigroup n=5 steps=200 seed=0 boundary=open burn-in=None "
         "snapshot-every=50 format=csv"),
    ],
)
def test_csv_run_line(capsys, argv, line):
    # the flags in the parser's declaration order, whatever order they were given in
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.splitlines()[0] == line


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--variant", "group", "--n", "0", "--k-max", "2"],
        ["count", "--variant", "restricted", "--r", "1", "--n", "3", "--k-max", "2"],
        ["volume", "--variant", "group", "--n", "3", "--k-max", "1"],
        ["spectrum", "--n", "0"],
        ["walk", "--mode", "group", "--n", "3", "--steps", "0", "--format", "json"],
        ["walk", "--mode", "group", "--n", "3", "--steps", "10", "--trials", "0", "--format", "json"],
        ["walk", "--mode", "group", "--n", "3", "--steps", "10", "--seed", "-1", "--format", "json"],
        ["walk", "--mode", "group", "--n", "3", "--steps", "10", "--seed", str(2**64), "--format", "json"],
        ["walk", "--mode", "group", "--n", "3", "--steps", "10", "--burn-in", "-1", "--format", "json"],
        ["walk", "--mode", "group", "--n", "3", "--steps", "10", "--snapshot-every", "-1"],
        ["roof-chain", "--n", "3", "--steps", "10", "--snapshot-every", "-1", "--format", "csv"],
        ["braid-bounds", "--n", "1"],
    ],
)
def test_out_of_range_flag_is_the_library_error(capsys, argv):
    # the parser takes any integer; the library checks the range before any work
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [["braid-bounds", "--n", "3"], ["inequality"]])
def test_json_only_subcommands_reject_csv(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 2
    assert out == ""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)


def test_walk_burn_in_validation_maps_to_two(capsys):
    code, _, err = run(
        capsys, "walk", "--format", "json", "--mode", "semigroup",
        "--n", "3", "--steps", "100", "--burn-in", "100",
    )
    assert code == 2
    assert err.startswith("error:")
