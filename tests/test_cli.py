"""Command line interface: exit codes, CSV emission, reproducible outputs."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
from importlib.metadata import PackageNotFoundError, distribution
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config
from dicelab.cli import main
from dicelab.data import generate, load_csv, save_csv
from dicelab.experiments import CSV_COLUMNS, config_to_json, default_config
from dicelab.losses import LossKind

HEADER = ",".join(CSV_COLUMNS)


@pytest.fixture()
def tiny_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(config_to_json(tiny_config()))
    return str(path)


# --- run --------------------------------------------------------------------


def test_run_writes_csv_to_stdout(tiny_config_path, capsys):
    assert main(["run", "--config", tiny_config_path]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 1 + 2 + 2  # header, two seeds, mean, std


def test_run_writes_csv_to_file_identically_across_calls(tiny_config_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", tiny_config_path, "--out", str(a)]) == 0
    assert main(["run", "--config", tiny_config_path, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith(HEADER + "\n")


def test_run_flag_overrides_change_the_output(tiny_config_path, capsys):
    assert main(["run", "--config", tiny_config_path, "--loss", "DL_sample", "--ratio", "3"]) == 0
    out = capsys.readouterr().out
    for line in out.strip().split("\n")[1:]:
        assert line.startswith("DL_sample,3.000000,")


@pytest.mark.parametrize(
    "loss, effective",
    [("TL", ["0.500000", "0.500000", "1.000000"]), ("FL", ["1.000000", "1.000000", "2.000000"])],
)
def test_loss_flag_gives_the_kind_its_own_defaults(loss, effective, tiny_config_path, capsys):
    assert main(["run", "--config", tiny_config_path, "--loss", loss]) == 0
    for line in capsys.readouterr().out.strip().split("\n")[1:]:
        assert line.split(",")[3:6] == effective  # alpha, beta, gamma


def test_unknown_loss_flag_is_a_usage_error(tiny_config_path, capsys):
    assert main(["run", "--config", tiny_config_path, "--loss", "BOGUS"]) == 2
    capsys.readouterr()  # argparse already wrote its message


def test_invalid_override_value_is_a_usage_error(tiny_config_path, capsys):
    assert main(["run", "--config", tiny_config_path, "--ratio", "-5"]) == 2
    assert "invalid override" in capsys.readouterr().err


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = json.loads(config_to_json(tiny_config()))
    payload["surprise"] = 1
    path.write_text(json.dumps(payload))
    assert main(["run", "--config", str(path)]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_out_of_range_replicate_seed_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = json.loads(config_to_json(tiny_config()))
    payload["replicate_seeds"] = [-1]
    path.write_text(json.dumps(payload))
    assert main(["run", "--config", str(path)]) == 2
    assert "replicate_seeds" in capsys.readouterr().err


def test_unwritable_output_path_is_a_runtime_error(tiny_config_path, tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.csv"
    assert main(["run", "--config", tiny_config_path, "--out", str(target)]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def _config_path(tmp_path, **sections) -> str:
    """tiny_config's JSON with the given sections merged in; Python's json writes NaN and Infinity."""
    payload = json.loads(config_to_json(tiny_config()))
    for section, values in sections.items():
        payload[section].update(values)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


# Each bad input: the subcommand and its flags (`--config <path>` goes in after
# the subcommand), the sections merged into tiny_config, and the field or flag
# its error must name.
_BAD_INPUTS = {
    "negative sweep ratio": (["sweep", "--ratios", "-1"], {}, "ratio"),
    "unknown sweep loss kind": (
        ["sweep", "--losses", "CE,BOGUS"],
        {},
        "kind must be one of CE, WCE, DL_sample, DL_set, TL, DSC_selfadj, FL, got 'BOGUS'",
    ),
    "infinite growth_factor": (
        ["run"],
        {"transform": {"kind": "add_both", "growth_factor": float("inf")}},
        "growth_factor",
    ),
    "growth_factor below 1": (
        ["run"],
        {"transform": {"kind": "add_both", "growth_factor": 0.5}},
        "growth_factor",
    ),
    "target above 1": (
        ["run"],
        {"transform": {"kind": "add_positive", "target_fraction_positive": 1.5}},
        "target_fraction_positive",
    ),
    "infeasible add_positive target": (
        ["run"],
        {"transform": {"kind": "add_positive", "target_fraction_positive": 0.1}},
        "target_fraction_positive",
    ),
    "NaN jitter_sigma": (["run"], {"data": {"jitter_sigma": float("nan")}}, "jitter_sigma"),
    "ratio whose negative count overflows": (["run", "--ratio", "1e308"], {}, "ratio 1e+308"),
    "add_negative target whose negative count overflows": (
        ["run"],
        {"transform": {"kind": "add_negative", "target_fraction_positive": 5e-324}},
        "target_fraction_positive 5e-324",
    ),
    "JSON integer ratio beyond the float range": (["run"], {"data": {"ratio": 10**400}}, "ratio 1.000e+400"),
    "ratio of 1e300 that numpy cannot allocate": (["run", "--ratio", "1e300"], {}, "ratio 1e+300"),
    "ratio whose rows exceed the ceiling": (["run", "--ratio", "1e8"], {}, "ratio 100000000.0"),
    "add_negative target whose rows exceed the ceiling": (
        ["run"],
        {"transform": {"kind": "add_negative", "target_fraction_positive": 1e-9}},
        "target_fraction_positive 1e-09",
    ),
    "beta flag of the Tversky sweep, whose axis sets it": (
        ["sweep-tversky", "--beta", "0.2"],
        {},
        "unrecognized arguments: --beta 0.2",
    ),
    "loss flag of the Tversky sweep, which trains TL": (
        ["sweep-tversky", "--loss", "CE"],
        {},
        "unrecognized arguments: --loss CE",
    ),
    "WCE k that makes a weight negative": (
        ["run"],
        {"data": {"ratio": 10.0}, "loss": {"kind": "WCE", "k": 0.5}},
        "k = 0.5",
    ),
}


@pytest.mark.parametrize("argv, sections, named", _BAD_INPUTS.values(), ids=_BAD_INPUTS.keys())
def test_bad_input_exits_2_with_one_error_line_that_names_it(argv, sections, named, tmp_path, capsys):
    """Bad input is a usage error (exit 2) wherever the library finds it, never a traceback."""
    path = _config_path(tmp_path, **sections)
    assert main([argv[0], "--config", path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0], captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("field", ["n_positive", "ratio"])
def test_a_huge_json_integer_gives_a_short_error_line(field, tmp_path, capsys):
    """A JSON integer has no bound; the error prints it to 4 digits, not all 401."""
    path = _config_path(tmp_path, data={field: 10**400})
    assert main(["run", "--config", path]) == 2
    (error,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert field in error and "1.000e+400" in error and len(error) < 160, error


def test_a_transformed_batch_over_the_row_ceiling_exits_2_before_drawing(tmp_path, capsys, monkeypatch):
    """5M + 5M rows is at the ceiling, but add_both 1.9 wants 19M in all."""
    monkeypatch.setattr("dicelab.experiments.generate", lambda spec: pytest.fail("data were drawn"))
    path = _config_path(
        tmp_path,
        data={"n_positive": 5_000_000, "ratio": 1},
        transform={"kind": "add_both", "growth_factor": 1.9},
    )
    assert main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "growth_factor 1.9" in err and "over 10000000 rows" in err, err


@pytest.mark.parametrize(
    "loss, raised",
    [("TL", "non-finite loss"), ("DL_sample", "dice-family denominator is zero")],
    ids=["TrainingDivergedError", "SingularInputError"],
)
def test_numerical_failure_during_training_is_a_runtime_error(loss, raised, tmp_path, capsys):
    path = _config_path(tmp_path, loss={"kind": loss, "gamma": 0}, train={"learning_rate": 1e4})
    with np.errstate(all="ignore"):
        assert main(["run", "--config", path]) == 1
    assert raised in capsys.readouterr().err


# --- sweep ------------------------------------------------------------------


def test_sweep_crosses_losses_and_ratios(tiny_config_path, capsys):
    code = main(
        ["sweep", "--config", tiny_config_path, "--losses", "CE", "--ratios", "1,2"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 1 + 2 * 4  # two ratios x (two seeds + mean + std)


# sha256 of this sweep over every loss kind with --ratios 1,10 --epochs 2
# (numpy 2.4.6), recorded once each swept kind took its own defaults: the TL
# rows train at alpha = beta = 0.5 and the FL rows at gamma = 2.
_GRID_CSV_SHA256 = "809e4a5d2b4fe90e8a12715cb9dc92f5dd3497515bf15e31f344b9bf87997fd9"


def test_sweep_over_every_kind_reproduces_the_imbalance_grid(tmp_path):
    config = tmp_path / "grid.json"
    config.write_text(
        json.dumps(
            {"data": {"n_positive": 200, "ratio": 1, "easy_negative_fraction": 0.95}, "loss": {"kind": "CE"}}
        )
    )
    out = tmp_path / "grid.csv"
    losses = ",".join(kind.value for kind in LossKind)
    argv = ["sweep", "--config", str(config), "--losses", losses, "--ratios", "1,10", "--epochs", "2"]
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GRID_CSV_SHA256


@pytest.mark.parametrize(
    "command, short, axis",
    [
        ("sweep", ["--ratio", "5"], ["--ratios", "5"]),
        ("sweep", ["--loss", "DL_sample"], ["--losses", "DL_sample"]),
        ("sweep-tversky", ["--alpha", "0.3"], ["--alphas", "0.3"]),
    ],
    ids=["sweep --ratio", "sweep --loss", "sweep-tversky --alpha"],
)
def test_a_sweep_reads_the_flag_its_axis_sets_as_the_axis(command, short, axis, tiny_config_path, tmp_path):
    """argparse takes a unique prefix for the whole option, so the flag cannot be ignored."""
    outputs = []
    for name, flags in (("short.csv", short), ("axis.csv", axis)):
        out = tmp_path / name
        assert main([command, "--config", tiny_config_path, *flags, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_sweep_rejects_bad_loss_lists(tiny_config_path, capsys):
    assert main(["sweep", "--config", tiny_config_path, "--losses", "CE,BOGUS"]) == 2
    assert main(["sweep", "--config", tiny_config_path, "--ratios", ""]) == 2
    capsys.readouterr()


# --- sweep-tversky ----------------------------------------------------------


def test_sweep_tversky_emits_complementary_beta(tiny_config_path, capsys):
    code = main(["sweep-tversky", "--config", tiny_config_path, "--alphas", "0.3,0.7"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(lines) == 2 * 4
    for line in lines:
        cells = line.split(",")
        assert cells[0] == "TL"
        assert float(cells[3]) + float(cells[4]) == pytest.approx(1.0, abs=1e-9)


def test_sweep_tversky_rejects_out_of_range_alpha(tiny_config_path, capsys):
    assert main(["sweep-tversky", "--config", tiny_config_path, "--alphas", "1.5"]) == 2
    assert "[0, 1]" in capsys.readouterr().err


# --- gradcheck --------------------------------------------------------------


def test_gradcheck_writes_report_and_prints_one_line_per_kind(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["gradcheck", "--samples", "25", "--seed", "1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.strip().split("\n")
    assert len(stdout) == 7
    assert all("max_rel_error" in line and line.endswith("ok") for line in stdout)
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["samples_per_loss"] == 25


def test_gradcheck_rejects_nonpositive_samples(tmp_path, capsys):
    assert main(["gradcheck", "--samples", "0", "--out", str(tmp_path / "r.json")]) == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64 + 1)])
def test_gradcheck_seed_outside_64_bits_is_a_usage_error(seed, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["gradcheck", "--samples", "5", "--seed", seed, "--out", str(out)]) == 2
    assert f"--seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_gradcheck_unwritable_report_path_is_a_runtime_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    assert main(["gradcheck", "--samples", "5", "--out", str(target)]) == 1
    capsys.readouterr()


# --- gen-data ---------------------------------------------------------------


def test_gen_data_writes_a_loadable_csv(tmp_path):
    out = tmp_path / "data.csv"
    code = main(["gen-data", "--n-positive", "10", "--ratio", "2", "--out", str(out)])
    assert code == 0
    batch = load_csv(out)
    assert (batch.n_negative, batch.n_positive) == (20, 10)
    assert batch.features.shape == (30, 2)


def test_gen_data_defaults_are_the_default_config_data(tmp_path):
    out, expected = tmp_path / "data.csv", tmp_path / "expected.csv"
    assert main(["gen-data", "--out", str(out)]) == 0
    save_csv(generate(default_config().data), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_gen_data_has_no_jitter_sigma_flag(tmp_path, capsys):
    """generate draws no jitter, so the flag would be accepted and ignored."""
    assert main(["gen-data", "--jitter-sigma", "0.5", "--out", str(tmp_path / "data.csv")]) == 2
    assert "unrecognized arguments: --jitter-sigma 0.5" in capsys.readouterr().err


def test_gen_data_rejects_bad_ratio(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert main(["gen-data", "--ratio", "-1", "--out", str(out)]) == 2
    assert "ratio" in capsys.readouterr().err


def test_gen_data_rejects_a_seed_of_64_bits_or_more(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert main(["gen-data", "--seed", str(2**64), "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


# --- help -------------------------------------------------------------------


# sha256 of `dicelab [subcommand] --help` at 80 columns under Python 3.11.
# sweep and sweep-tversky were recorded again when they dropped the override
# flags that their axes set, and gen-data when it dropped --jitter-sigma.
_HELP_SHA256 = {
    "": "688003fc9df70c226d1b93091ba0c6020cd943193e1edb08c4f67aaaecd391a9",
    "run": "def8b286454ac768e5326398105ac16913ee99707b9ae300eb056b062bf0cd82",
    "sweep": "d542f8d934c43051ecc80c8d16fd93f7358c2d802f2cf3ecd48387e2131a2bb3",
    "sweep-tversky": "9e68bd009ae149babcde11ffa9160c4e1470a90cbd0b185fd1a16855b0270aba",
    "gradcheck": "484453fc4692d9e634c32932df7cc905cea07466710b2f8f51a7428f45f9f9fc",
    "gen-data": "f37d29597729bb640d0eb8dd6a82de158c545db494cfd96db68940d0289c17a7",
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse lays out help differently in other Python versions"
)
@pytest.mark.parametrize("command", _HELP_SHA256, ids=lambda c: c or "dicelab")
def test_help_text_is_frozen(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*filter(None, [command]), "--help"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _HELP_SHA256[command]


# --- process-level checks ---------------------------------------------------


def test_module_invocation_is_byte_identical_across_processes(tiny_config_path, tmp_path):
    outputs = []
    for name in ("p1.csv", "p2.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "dicelab", "run", "--config", tiny_config_path, "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


_SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", _SCRIPTS, ids=[p.name for p in _SCRIPTS])
def test_every_script_starts(script):
    """A script's imports still resolve, so an API deletion cannot break it unseen."""
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


@pytest.mark.skipif(shutil.which("git") is None, reason="needs the git executable")
def test_bench_ab_digests_the_uncommitted_diff_of_a_checkout(tmp_path):
    """A dirty change side names its parent's commit, so only the diff digest tells them apart."""
    spec = importlib.util.spec_from_file_location(
        "bench_ab", Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
    )
    bench_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_ab)

    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), *args], check=True, capture_output=True)

    tracked = tmp_path / "tracked.txt"
    tracked.write_text("one\n")
    git("init", "-q")
    git("add", "tracked.txt")
    git("-c", "user.name=bench", "-c", "user.email=bench@example.com", "-c", "commit.gpgsign=false",
        "commit", "-q", "-m", "one")
    clean = bench_ab.describe(tmp_path)
    assert len(clean["commit"]) == 40 and not clean["dirty"] and clean["diff_sha256"] is None
    tracked.write_text("two\n")
    first = bench_ab.describe(tmp_path)
    tracked.write_text("three\n")
    second = bench_ab.describe(tmp_path)
    assert first["commit"] == second["commit"] == clean["commit"]
    assert first["dirty"] and len(first["diff_sha256"]) == 64
    assert second["diff_sha256"] != first["diff_sha256"]


# sha256 of the CSV that scripts/run_resampling_ablation.py wrote with
# --epochs 2 --n-positive 20 when it still trained each (transform, loss) cell
# with its own `run` call (numpy 2.4.6).
_ABLATION_CSV_SHA256 = "b7afadbbec8d10d9791d3410cc324a2207e66644d3476ae89fff4b6d23c64556"


def test_resampling_ablation_script_output_is_frozen(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_resampling_ablation.py"
    out = tmp_path / "ablation.csv"
    proc = subprocess.run(
        [sys.executable, str(script), "--epochs", "2", "--n-positive", "20", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _ABLATION_CSV_SHA256


def _assert_help_starts_the_cli(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: dicelab")
    assert "run" in proc.stdout and "gradcheck" in proc.stdout


# What an installer's console-script launcher runs, given the entry point value.
_LAUNCHER = """
import sys
from importlib.metadata import EntryPoint
ep = EntryPoint(name="dicelab", value=sys.argv.pop(1), group="console_scripts")
sys.argv[0] = "dicelab"
sys.exit(ep.load()())
"""


def test_console_script_is_installed():
    """The `dicelab` script declared in pyproject.toml starts the CLI.

    Without an install this runs the declared entry point the way an
    installer's launcher does; with one it also checks the installed script.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    assert "dicelab" in scripts
    declared = scripts["dicelab"]

    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, declared, "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    _assert_help_starts_the_cli(proc)

    try:
        dist = distribution("dicelab")
    except PackageNotFoundError:
        return
    installed = dist.entry_points.select(group="console_scripts", name="dicelab")
    assert [ep.value for ep in installed] == [declared]
    exe = shutil.which("dicelab")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=60)
    _assert_help_starts_the_cli(proc)
