"""Bounded fuzzing of the entry points that take outside input.

Scenario text built from the real keys with edge values, snapshot bytes and
CLI argument lists go in. A scenario either runs to a report with finite
time to first fix and RMS error or is rejected with ScenarioError; snapshot
bytes either load into a finite snapshot (which an estimator wake then uses
or falls back from) or raise SnapshotFormatError; the CLI exits 0, 1 or 2.
Every accepted wake stays at 60 samples or fewer, so the module runs in a
few seconds.
"""
import io
import math
import struct
import tempfile
import zlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpssim import cli
from gpssim import frame_sync as fs
from gpssim import simharness as sh

_BAD = ("nan", "inf", "-inf", "1e300", "-1e300", "-1")
_FLOAT_EDGES = _BAD + ("0", "1e-300")

# Values per key: typical ones, the validator's boundaries and the bad ones.
# wake_run_s / sample_period_s is at most 30 / 0.5 for any accepted pair.
_VALUES = {
    "seed": ("0", "1", "7", "-1", "2147483647", "99999999999999999999"),
    "arms": ("both", "estimator", "hotstart", "warm"),
    "off_duration_s": ("0", "60", "900", "1500", "14500") + _FLOAT_EDGES,
    "noise_sigma_m": ("0", "5", "1000", "1001") + _FLOAT_EDGES,
    "wake_run_s": ("1", "6", "10", "30") + _FLOAT_EDGES,
    "sample_period_s": ("0.5", "1", "3") + _FLOAT_EDGES,
    "session1_extra_s": ("0", "3", "30") + _FLOAT_EDGES,
    "estimator_epsilon_s": ("0", "0.5", "20") + _FLOAT_EDGES,
    "start_week": ("0", "100", "1023", "8191", "8192", "9000", "-3"),
    "start_tow_s": ("0", "86400", "604700", "604790", "604799.99", "604800") + _BAD,
    "min_elevation_deg": ("-90", "0", "5", "40", "90") + _BAD,
    "rtc_nominal_hz": ("32000", "32768", "1", "1e6", "0") + _BAD,
    "rtc_ppm": ("0", "0.5", "10", "1000", "1001") + _FLOAT_EDGES,
    "clock_bias_s": ("0", "0.001", "-0.5", "1") + _FLOAT_EDGES,
    "bit_margin_ms": ("10", "0.001", "0") + _FLOAT_EDGES,
    "code_s": ("0", "0.5", "60", "61") + _FLOAT_EDGES,
    "carrier_s": ("0", "0.3", "60", "61") + _FLOAT_EDGES,
    "bit_s": ("0", "0.4", "60", "61") + _FLOAT_EDGES,
    "count": ("3", "4", "8", "32", "33", "-1"),
    "pos_ecef_m": (
        "-1266643.136 -4727176.539 4079014.032",
        "0 0 6356752",
        "6378137 0 0",
        "0 0 0",
        "1e300 0 0",
        "nan 0 0",
        "1 2",
    ),
    "vel_ecef_mps": ("0 0 0", "12 -3 1.5", "0 0 1000", "0 0 1001", "1e300 0 0", "0 inf 0"),
    "sat": (
        "1 55 10 20",
        "2 60 80 150 26559700 7200",
        "3 0 0 0 7000000 600",
        "40 55 0 0",
        "0 55 0 0",
        "1 55 10 20 1000",
        "1 55 10 20 26560000 0",
        "1 55 10 20 1e300",
        "4 55 10 20 26560000 1e300",
        "1 nan 10 20",
        "inf 55 0 0",
        "1 55 10",
    ),
    "snapshot_path": ("{tmp}/state.snap",),
}
_SECTION = {key: section for section, key in sh._SCALAR_KEYS if key in _VALUES}
_SECTION.update(pos_ecef_m="user", vel_ecef_mps="user", sat="constellation")

_line = st.sampled_from(sorted(_VALUES)).flatmap(
    lambda key: st.sampled_from(_VALUES[key]).map(lambda v: (key, v))
)
_scenarios = st.lists(_line, max_size=8).map(
    lambda lines: "".join(f"[{_SECTION[k]}]\n{k} = {v}\n" for k, v in lines)
)


# Six satellites in one orbit plane: session one's first fix, which starts
# at the Earth's centre, meets a singular geometry.
_PLANAR = "[constellation]\n" + "".join(
    f"sat = {i} 40 30 {112 + 8 * i}\n" for i in range(1, 7)
)


def _check_report(report: sh.RunReport) -> None:
    assert report.arms
    for arm in report.arms.values():
        assert math.isfinite(arm.time_to_first_fix_s)
        assert math.isfinite(arm.rms_2d_m)
        assert 0.0 < arm.power_ratio <= 1.0


@given(text=_scenarios)
@settings(max_examples=150, deadline=None)
@example(text="[scenario]\nseed = -1\n")
@example(text="[scenario]\nstart_week = 9000\n")
@example(text="[scenario]\nstart_week = -3\n")
@example(text="[scenario]\nstart_week = 8191\nstart_tow_s = 604790\n")
@example(text="[scenario]\nsession1_extra_s = -1\n")
@example(text="[user]\npos_ecef_m = 0 0 0\n")
@example(text="[constellation]\nsat = 40 55 0 0\n")
@example(text="[constellation]\nsat = 1 55 10 20 1000\n")
@example(text="[constellation]\nsat = 1 55 10 20 26560000 0\n")
@example(text=_PLANAR)
def test_scenario_text_runs_or_is_rejected(text):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            config = sh.parse_scenario(text.replace("{tmp}", tmp))
            report = sh.run_scenario(config)
        except sh.ScenarioError:
            return
    _check_report(report)


# --- snapshot bytes --------------------------------------------------------------

# Offsets of the snapshot body fields (see frame_sync's layout comment).
_FIELDS = {
    "word": (6, ">B", (0, 1, 10, 11, 255)),
    "bit": (7, ">B", (0, 29, 30, 255)),
    "tow": (8, ">I", (0, 100_799, 100_800, 2**32 - 1)),
    "rtc": (12, ">Q", (0, 2**40, 2**64 - 1)),
    "doppler": (20, ">d", (0.0, 1e300, math.nan, math.inf, -math.inf)),
    "code_phase": (28, ">d", (0.0, -1.0, 1023.0, math.nan)),
    "rco_week": (36, ">i", (0, 1, -1, 2**31 - 1, -(2**31))),
    "rco_second": (40, ">d", (0.0, 1e300, -1e300, math.nan, math.inf, -math.inf)),
    "n_ephemeris": (48, ">H", (0, 7, 65535)),
}


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """Session one of a short scenario whose wake reloads its snapshot."""
    path = tmp_path_factory.mktemp("fuzz") / "wake.fsnp"
    config = sh.ScenarioConfig(
        off_duration_s=60.0, wake_run_s=6.0, noise_sigma_m=0.0, snapshot_path=str(path)
    )
    engine = sh._Engine(config)
    base, snapshot = engine.run_session_one()
    return engine, base, snapshot, path, path.read_bytes()


def _mutate(good: bytes, edits, cut: int | None, flip: int | None, reseal: bool) -> bytes:
    body = bytearray(good[:-4])
    for name, value in edits:
        offset, fmt, _ = _FIELDS[name]
        struct.pack_into(fmt, body, offset, value)
    blob = bytes(body) + (struct.pack(">I", zlib.crc32(body)) if reseal else good[-4:])
    if flip is not None:
        blob = bytearray(blob)
        blob[flip % len(blob)] ^= 0x10
        blob = bytes(blob)
    return blob if cut is None else blob[:cut]


_edits = st.lists(
    st.sampled_from(sorted(_FIELDS)).flatmap(
        lambda name: st.sampled_from(_FIELDS[name][2]).map(lambda v: (name, v))
    ),
    max_size=3,
)


@given(
    edits=_edits,
    cut=st.none() | st.integers(0, 120),
    flip=st.none() | st.integers(0, 200),
    reseal=st.booleans(),
)
@settings(max_examples=150, deadline=None)
@example(edits=[("rco_second", math.nan)], cut=None, flip=None, reseal=True)
@example(edits=[("rco_second", math.inf)], cut=None, flip=None, reseal=True)
@example(edits=[("rtc", 2**40)], cut=None, flip=None, reseal=True)
def test_snapshot_bytes_load_or_are_rejected(session, edits, cut, flip, reseal):
    engine, base, snapshot, path, good = session
    path.write_bytes(_mutate(good, edits, cut, flip, reseal))
    try:
        loaded = fs.load_snapshot(path)
    except fs.SnapshotFormatError:
        pass
    else:
        assert math.isfinite(loaded.carrier_doppler_hz)
        assert math.isfinite(loaded.rco.second)
    try:
        arm, _ = engine.run_wake(base, snapshot, sh.ARM_ESTIMATOR, engine.config.off_duration_s)
    except sh.ScenarioError:
        return
    assert math.isfinite(arm.time_to_first_fix_s)
    assert math.isfinite(arm.rms_2d_m)


# --- command line ------------------------------------------------------------------


def _run_case(scenario, options):
    """(scenario file text or None, argument list) for one `gpssim run`."""
    args = ["run"] + (["{tmp}/case.scn"] if scenario is not None else [])
    for flag, value in options:
        args += [flag, value]
    return scenario, args


_run_options = st.lists(
    st.sampled_from(
        [("--seed", v) for v in ("-1", "0", "3", "x", "1e3")]
        + [("--arm", v) for v in ("both", "estimator", "hotstart")]
        + [("--snapshot", v) for v in ("{tmp}/s.snap", "{tmp}/no/such/dir/s.snap")]
        + [("--out", v) for v in ("{tmp}/r.csv", "{tmp}/no/such/dir/r.csv")]
    ),
    max_size=3,
    unique_by=lambda option: option[0],
)
_budget_values = st.sampled_from(("10", "0", "0.5,10", "-1", "nan", "inf", "1e400", "", ",", "x"))
_cli_cases = st.one_of(
    st.builds(_run_case, st.none() | _scenarios, _run_options),
    st.builds(
        lambda ppm, margin: (None, ["budget", "--ppm", ppm, "--margin-ms", margin]),
        _budget_values,
        _budget_values,
    ),
    st.builds(
        lambda blob: (blob, ["snapshot-dump", "{tmp}/dump.snap"]),
        st.none() | st.binary(max_size=80),
    ),
    st.sampled_from(([], ["bogus"], ["run", "--seed"], ["budget"])).map(lambda a: (None, a)),
)


@given(case=_cli_cases)
@settings(max_examples=80, deadline=None)
@example(case=(None, ["run", "--seed", "-1"]))
def test_cli_exits_cleanly(case):
    payload, args = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(payload, str):
            Path(tmp, "case.scn").write_text(payload.replace("{tmp}", tmp))
        elif isinstance(payload, bytes):
            Path(tmp, "dump.snap").write_bytes(payload)
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main([a.replace("{tmp}", tmp) for a in args])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_IO)
    if args[:1] == ["budget"] and code == cli.EXIT_OK:
        assert "nan" not in out.getvalue()
