"""Command-line interface tests, run in-process through main()."""
import subprocess
import sys

import pytest

from gpssim import cli
from gpssim.frame_sync import PersistedSnapshot, save_snapshot
from gpssim.rx_clock import Rco
from gpssim.simharness import CSV_HEADER

FAST_SCENARIO = """\
[scenario]
seed = 4
off_duration_s = 30
noise_sigma_m = 0
wake_run_s = 6
"""


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "fast.scn"
    path.write_text(FAST_SCENARIO)
    return path


def test_run_writes_csv_to_stdout(scenario_file, capsys):
    assert cli.main(["run", str(scenario_file)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER + "\n")
    assert "# arm=estimator" in out
    assert "# arm=hotstart" in out


def test_run_writes_csv_to_file(scenario_file, tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    assert cli.main(["run", str(scenario_file), "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text().startswith(CSV_HEADER + "\n")


def test_run_arm_override(scenario_file, capsys):
    assert cli.main(["run", str(scenario_file), "--arm", "hotstart"]) == 0
    out = capsys.readouterr().out
    assert "hotstart" in out
    assert "estimator" not in out


def test_run_seed_override_is_deterministic(scenario_file, capsys):
    cli.main(["run", str(scenario_file), "--seed", "42"])
    first = capsys.readouterr().out
    cli.main(["run", str(scenario_file), "--seed", "42"])
    assert capsys.readouterr().out == first


def test_run_default_scenario_needs_no_file(capsys):
    assert cli.main(["run"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith(CSV_HEADER + "\n")


def test_run_missing_scenario_is_io_error(tmp_path, capsys):
    missing = tmp_path / "nope.scn"
    assert cli.main(["run", str(missing)]) == cli.EXIT_IO
    assert "error:" in capsys.readouterr().err


def test_run_invalid_scenario_content(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[scenario]\nwarp_speed = 9\n")
    assert cli.main(["run", str(bad)]) == cli.EXIT_INVALID
    assert "unknown key" in capsys.readouterr().err


def test_run_without_fix_inside_wake_run(tmp_path, capsys):
    short = tmp_path / "short.scn"
    short.write_text("[scenario]\nwake_run_s = 1\n")
    assert cli.main(["run", str(short)]) == cli.EXIT_INVALID
    assert "no fix inside wake_run_s" in capsys.readouterr().err


def test_run_non_finite_scenario_value(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[clock]\nrtc_ppm = inf\n")
    assert cli.main(["run", str(bad)]) == cli.EXIT_INVALID
    assert "rtc_ppm must be finite" in capsys.readouterr().err


def test_budget_table(capsys):
    assert cli.main(["budget", "--ppm", "10"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rtc_ppm,margin_ms,budget_ms,budget_s"
    assert lines[1] == "10,10,1000000.000,1000.000"


def test_budget_grid(capsys):
    assert cli.main(["budget", "--ppm", "5,10,20", "--margin-ms", "10,5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 3 * 2
    assert "20,5,250000.000,250.000" in lines


def test_budget_rejects_bad_values(capsys):
    assert cli.main(["budget", "--ppm", "-3"]) == cli.EXIT_INVALID
    assert cli.main(["budget", "--ppm", "ten"]) == cli.EXIT_INVALID
    assert cli.main(["budget", "--ppm", ","]) == cli.EXIT_INVALID


@pytest.mark.parametrize("ppm", ["10,-1", "inf", "10,nan"])
def test_budget_with_a_bad_value_prints_no_table(ppm, capsys):
    """A list with one bad value exits 1 and prints no row, not even the
    rows of the good values before it; the error names the bad one."""
    assert cli.main(["budget", "--ppm", ppm]) == cli.EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert "rtc_ppm must be non-negative and finite" in err


def test_snapshot_dump(tmp_path, capsys):
    snap = PersistedSnapshot(6, 19, 2679, 17362, -100.0, 512.25, Rco(0, 0.001))
    path = tmp_path / "state.fsnp"
    save_snapshot(snap, path)
    assert cli.main(["snapshot-dump", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "word_index: 6" in out
    assert "rtc_count: 17362" in out


def test_snapshot_dump_missing_file(tmp_path, capsys):
    assert cli.main(["snapshot-dump", str(tmp_path / "gone")]) == cli.EXIT_IO


def test_snapshot_dump_corrupt_file(tmp_path, capsys):
    path = tmp_path / "junk.fsnp"
    path.write_bytes(b"not a snapshot at all........")
    assert cli.main(["snapshot-dump", str(path)]) == cli.EXIT_INVALID


def test_missing_subcommand_exits_with_usage(capsys):
    assert cli.main([]) == cli.EXIT_INVALID
    assert capsys.readouterr().err.startswith("usage: gpssim")


@pytest.mark.parametrize(
    "argv",
    [["run", "--seed", "x"], ["run", "--arm", "nope"], ["budget"], ["warp"]],
)
def test_invalid_argument_exits_invalid(argv, capsys):
    """An argument argparse rejects is invalid (1), not an I/O error (2)."""
    assert cli.main(argv) == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("usage: gpssim") and "error: " in err


def test_help_exits_ok(capsys):
    assert cli.main(["--help"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("usage: gpssim")


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "gpssim.cli", "budget", "--ppm", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1000000.000" in proc.stdout
