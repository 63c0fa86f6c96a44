"""CLI surface: output shapes, determinism, exit codes."""

import hashlib
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


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
README = os.path.join(ROOT, "README.md")
DIGESTS = os.path.join(ROOT, "perfbench", "digests.json")
README_COUNT = "locfree count --variant group --n 3 --k-max 2"


def test_count_prints_the_readme_example(capsys):
    # the README block under the command is its exact stdout; CI also
    # runs the block's command through the installed console script
    with open(README, encoding="utf-8") as f:
        lines = f.read().splitlines()
    start = lines.index(README_COUNT) + 1
    expected = lines[start : lines.index("```", start)]
    code, out, err = run(capsys, *README_COUNT.split()[1:])
    assert code == 0 and err == ""
    assert expected and out == "\n".join(expected) + "\n"


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


def test_out_file_does_not_depend_on_the_locale(tmp_path):
    # --out names its encoding: with EncodingWarning an error, the file
    # still gets the bytes the same command prints
    argv = [sys.executable, "-m", "locfree.cli", "count", "--variant", "group", "--n", "3",
            "--k-max", "2"]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNDEFAULTENCODING": "1",
           "PYTHONWARNINGS": "error::EncodingWarning"}
    out_path = tmp_path / "out.csv"
    to_file = subprocess.run(argv + ["--out", str(out_path)], env=env, timeout=120)
    assert to_file.returncode == 0
    to_stdout = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    assert to_stdout.returncode == 0
    assert out_path.read_bytes() == to_stdout.stdout


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


@pytest.mark.parametrize(
    "variant", [["projective"], ["restricted", "--r", "2"], ["restricted", "--r", "5"]]
)
def test_volume_of_a_finite_variant_exits_2(capsys, variant):
    # at n = 1 these variants are finite: V(1, K) vanishes for K > r/2
    # (K >= 2 for the projective one)
    code, out, err = run(capsys, "volume", "--variant", *variant, "--n", "1", "--k-max", "3")
    assert code == 2
    assert out == ""
    assert f"error: volume is undefined for the {variant[0]} variant at n=1" in err


def test_volume_count_budget_comes_first(capsys):
    # an over-budget k_max fails as such before the finite-variant check
    code, out, err = run(capsys, "volume", "--variant", "restricted", "--r", "5", "--n", "1",
                         "--k-max", "5000")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "counts are budgeted" in err


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


def test_walk_semigroup_n1_prints_positive_zero_entropy(capsys):
    with pytest.warns(UserWarning, match="fewer than 100 n steps"):
        code, out, _ = run(
            capsys, "walk", "--mode", "semigroup", "--n", "1", "--steps", "50", "--format", "json",
        )
    assert code == 0
    assert '"entropy_estimate": 0.0,' in out


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


def test_walk_csv_group_without_reductions(capsys):
    # the CSV prints no alpha, so a group window without reductions is
    # no error there (the JSON report exits 2 on it)
    code, out, err = run(
        capsys, "walk", "--mode", "group", "--n", "2", "--steps", "5", "--snapshot-every", "5",
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[1] == "step,column,top_level,in_roof"
    assert len(lines) == 2 + 2


def test_walk_csv_runs_only_trial_zero(capsys, monkeypatch):
    argv = ["walk", "--mode", "group", "--n", "3", "--steps", "300", "--snapshot-every", "100"]
    _, one, _ = run(capsys, *argv)
    trials = []
    real = walk.run_trial
    monkeypatch.setattr(walk, "run_trial", lambda params, t: trials.append(t) or real(params, t))
    code, three, _ = run(capsys, *argv, "--trials", "3")
    assert code == 0 and trials == [0]
    # the rows are trial 0's; only the `# run:` line shows the trials
    assert three.splitlines()[1:] == one.splitlines()[1:]


def test_walk_csv_budgets_only_trial_zero(capsys):
    # budgeted per trial, 10^6 trials would store 65 M integers; the one
    # trial the table shows stores 69
    argv = ["walk", "--mode", "group", "--n", "1", "--steps", "10", "--snapshot-every", "5"]
    code, out, err = run(capsys, *argv, "--trials", "1000000")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[1] == "step,column,top_level,in_roof"
    assert len(lines) == 2 + 2
    for trials in ("0", "-1"):
        code, out, err = run(capsys, *argv, "--trials", trials)
        assert code == 2 and out == ""
        assert err == "error: trials must be >= 1\n"


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


def test_roof_chain_json_ignores_snapshot_every(capsys, monkeypatch):
    # the series is csv output: a json run neither stores nor budgets it
    monkeypatch.setattr(walk, "MAX_SLOTS", 1000)
    argv = ["roof-chain", "--n", "3", "--steps", "2000"]
    code, plain, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    code, out, err = run(capsys, *argv, "--snapshot-every", "1", "--format", "json")
    assert code == 0 and err == ""
    assert out == plain
    code, out, err = run(capsys, *argv, "--snapshot-every", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "budgeted at <= 1000" in err


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


def test_inequality_alpha_and_triple_exclude_each_other(capsys):
    # the README's conflict example: --alpha is not ignored beside the triple
    code, out, err = run(capsys, "inequality", "--alpha", "0.9", "--v", "1", "--l", "0.5", "--h", "0.2")
    assert (code, out) == (2, "")
    assert err == "error: give either --alpha A or --v V --l L --h H, not both\n"
    # an explicit --alpha 0 is the default run, byte for byte
    assert run(capsys, "inequality", "--alpha", "0") == run(capsys, "inequality")


@pytest.mark.parametrize("argv", [["inequality"], ["braid-bounds", "--n", "5"]])
def test_negative_alpha_in_exponent_notation(capsys, argv):
    # repr() and the JSON print small floats as -2.5e-05; the parser takes
    # them as values, not as unknown options
    code, spaced, err = run(capsys, *argv, "--alpha", "-2.5e-05")
    assert code == 0 and err == ""
    assert (code, spaced) == run(capsys, *argv, "--alpha=-2.5e-05")[:2]


def test_negative_seed_still_reaches_the_library_check(capsys):
    code, out, err = run(
        capsys, "walk", "--mode", "group", "--n", "3", "--steps", "10", "--seed", "-1", "--format", "json",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: seed must be")


def test_inequality_negative_h_in_exponent_notation(capsys):
    code, out, _ = run(capsys, "inequality", "--v", "1.9", "--l", "0.6", "--h", "-1e-3")
    assert code == 0
    assert json.loads(out)["h"] == -1e-3


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
    _forbid(monkeypatch, "_draw")
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


# --- byte identity -----------------------------------------------------------


def test_recorded_digests(capsys):
    # every command keyed in the benchmark's digest file, full and toy
    # sizes, still prints the recorded bytes
    with open(DIGESTS, encoding="utf-8") as f:
        digests = json.load(f)
    assert len(digests) >= 16
    for key, digest in digests.items():
        code, out, _ = run(capsys, *key.split())
        assert code == 0, key
        assert hashlib.sha256(out.encode()).hexdigest() == digest, key


WALK_DIGESTS = {
    "walk --mode group --n 100 --steps 20000 --trials 2 --seed 7 --format json":
        "9e8c83aaaf6b2a85f4d1cef09dc149ca340ff80c4caa7eb57a3d614f6bba69bb",
    "walk --mode semigroup --n 100 --steps 20000 --trials 2 --seed 7 --format json":
        "a1e053117251f33e38643de583f1aaed0a52b15d74171fa1b7053143d924dc95",
    "roof-chain --mode group --n 100 --steps 20000 --seed 7 --format json":
        "8621d33fdf8237dc96fa3b45115292d6637cdb08e80ab4028f747b12b0bed286",
    "roof-chain --mode semigroup --n 100 --steps 20000 --seed 7 --format json":
        "8b33bde23c844c96081f893279abebe3b70b8cd7b4f5a880c245c7629898caea",
}


@pytest.mark.parametrize("key", WALK_DIGESTS)
def test_walk_digests_pinned(capsys, key):
    # 20000 steps cross two CHUNK edges of each trial's letter stream,
    # so a change in the chunked draw or in the statistics shows here
    assert 2 * walk.CHUNK < 20000
    code, out, _ = run(capsys, *key.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WALK_DIGESTS[key]
