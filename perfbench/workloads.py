"""The benchmark's workloads: seeded inputs, the timed call, output checks.

Each workload turns the run seed into inputs for pass 0, 1, 2, ... (for
the scenario workloads every pass is fresh data, so nothing a pass computes
can be reused by the next), runs one operation per input through gpssim's
public API, and checks each result. The package under test sees only the generated inputs. Calls go
through module attributes (``sh.run_scenario``) so the tracer's wrappers
are the ones called when it is installed.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import navref
from gpssim import frame_sync as fs
from gpssim import nav_message as nav
from gpssim import simharness as sh

# Errors by which gpssim rejects an input on purpose; any other exception,
# or an output that fails a check, makes the operation failed.
REJECTED = (sh.ScenarioError, fs.SnapshotFormatError)

_SCENARIO_LAYERS = (
    "constellation.propagate",
    "constellation.elevation_angle",
    "pvt.solve",
    "pvt.design_matrix",
    "pvt.enu_errors",
    "nav_message.parity_bits",
    "nav_message.bits_to_word",
    "nav_message.check_word",
    "nav_message.encode_word",
    "nav_message.build_subframe",
    "nav_message.decode_subframe",
    "frame_sync.estimate_frame_state",
    "frame_sync.take_snapshot",
    "rx_clock.compute_rco",
    "rx_clock.ReceiverClockState.advance",
    "receiver.LockState.step",
    "receiver.hotstart_frame_lock_delay",
    "simharness.parse_scenario",
    "simharness.run_scenario",
    "simharness.render_report_csv",
    "simharness.session_one",
    "simharness.wake.estimator",
    "simharness.wake.hotstart",
)


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


# --- scenario workloads -------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """One scenario operation: the scenario text and how to account for it."""

    text: str
    edge: bool = False  # member of the known-defect slice
    label: str = ""


def scenario_text(scenario: dict, clock: dict | None = None, user: dict | None = None) -> str:
    lines = ["[scenario]"] + [f"{k} = {v}" for k, v in scenario.items()]
    for section, values in (("clock", clock), ("user", user)):
        if values:
            lines += [f"[{section}]"] + [f"{k} = {v}" for k, v in values.items()]
    return "\n".join(lines) + "\n"


def run_point(point: Point):
    cfg = sh.parse_scenario(point.text)
    report = sh.run_scenario(cfg)
    return cfg, report, sh.render_report_csv(report)


def _lock_latency_s(cfg) -> float:
    return cfg.code_s + cfg.carrier_s + cfg.bit_s


def check_report(cfg, report, csv: str) -> list[str]:
    """Sanity checks every scenario report must pass."""
    problems = []
    if sorted(report.arms) != ["estimator", "hotstart"]:
        return [f"arms {sorted(report.arms)}"]
    n_samples = round(cfg.wake_run_s / cfg.sample_period_s)
    for name, arm in report.arms.items():
        ttff = arm.time_to_first_fix_s
        if not (math.isfinite(ttff) and math.isfinite(arm.rms_2d_m)):
            problems.append(f"{name}: ttff {ttff} rms {arm.rms_2d_m}")
            continue
        fixes = n_samples - math.floor(ttff / cfg.sample_period_s) + 1
        if len(arm.fixes) != fixes or len(arm.samples) != n_samples + 1:
            problems.append(f"{name}: {len(arm.fixes)} fixes, expected {fixes}")
        needs_delay = name == "hotstart" or not arm.used_estimate
        delay = arm.hotstart_delay_s
        if needs_delay and (delay is None or not 1.2 <= delay <= 6.0):
            problems.append(f"{name}: hotstart_delay_s {delay}")
    # The estimate is used exactly when the RTC-measured sleep (power-off
    # plus re-lock, stretched by the RTC error) is within the drift budget
    # margin_ms / ppm. Generated sleeps stay far from that boundary.
    asleep_ms = (cfg.off_duration_s + _lock_latency_s(cfg)) * 1e3 * (1 + cfg.rtc_ppm * 1e-6)
    budget_ms = math.inf if cfg.rtc_ppm == 0 else cfg.bit_margin_ms * 1e6 / cfg.rtc_ppm
    if report.arms["hotstart"].used_estimate:
        problems.append("hotstart arm used the estimate")
    if report.arms["estimator"].used_estimate != (asleep_ms <= budget_ms):
        problems.append(f"used_estimate with {asleep_ms:.0f} ms asleep, budget {budget_ms:.0f} ms")
    if not csv.startswith(sh.CSV_HEADER + "\n"):
        problems.append("CSV header")
    return problems


class _ScenarioWorkload:
    expected_layers: tuple[str, ...] = _SCENARIO_LAYERS

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self._pass0 = self._make_pass(0)

    def inputs(self, p: int) -> list[Point]:
        return self._pass0 if p == 0 else self._make_pass(p)

    def warm_up(self) -> None:
        run_point(Point(scenario_text({"seed": self.seed})))

    call = staticmethod(run_point)

    def check(self, point: Point, value) -> list[str]:
        return check_report(*value)

    @staticmethod
    def digest_bytes(value) -> bytes:
        return value[2].encode()

    @staticmethod
    def estimator_arm(value):
        return value[1].arms["estimator"]


class WakeSweep(_ScenarioWorkload):
    """The paper's question asked many times: sleep length against RTC error.

    Each group of four points shares (seed, rtc_ppm) and differs only in the
    sleep, so three of every four session ones repeat work. A quarter of the
    groups persist the snapshot to disk. The fixed edge slice holds inputs
    that hit known defects (a timeline across the GPS week end; sleeps past
    the 4 h ephemeris validity). It stays in every pass so a fix shows as a
    lower failed share, and it is left out of throughput and latency so the
    fix does not make those look worse.
    """

    name = "wake_sweep"
    unit = "scenario"
    rate_name = "sweep_scenarios_per_s"
    window_ops = 16  # about 0.35 s
    expected_layers = _SCENARIO_LAYERS + ("frame_sync.save_snapshot", "frame_sync.load_snapshot")
    groups = 32
    rtc_ppms = (0.5, 4.0, 10.0, 30.0)
    sleeps_s = (60.0, 300.0, 900.0, 2400.0)
    edge_slice = (
        Point(scenario_text({"seed": 1, "start_tow_s": 604600, "off_duration_s": 600}), True, "week end +600 s"),
        Point(scenario_text({"seed": 1, "start_tow_s": 604700, "off_duration_s": 300}), True, "week end +300 s"),
        Point(scenario_text({"seed": 1, "off_duration_s": 14500}), True, "sleep 14500 s"),
        Point(scenario_text({"seed": 1, "off_duration_s": 15000}, {"rtc_ppm": 0.5}), True, "sleep 15000 s, 0.5 ppm"),
    )

    def _make_pass(self, p: int) -> list[Point]:
        rng = _rng(self.seed, 1, p)
        points = []
        for g in range(self.groups):
            scenario = {"seed": int(rng.integers(1, 2**31 - 1)), "noise_sigma_m": 5.0}
            if (g // 4) % 4 == 0:
                scenario["snapshot_path"] = (self.tmp / f"g{g}.snap").as_posix()
            clock = {"rtc_ppm": self.rtc_ppms[g % 4]}
            for base in self.sleeps_s:
                sleep = base + float(rng.uniform(0.0, 6.0))
                text = scenario_text({**scenario, "off_duration_s": repr(sleep)}, clock)
                points.append(Point(text, label=f"group {g}"))
        points += self.edge_slice
        return [points[i] for i in rng.permutation(len(points))]

    @staticmethod
    def work(point: Point, value) -> int:
        return 1

    def sim_stats(self, values: list) -> dict[str, tuple[float, str]]:
        arms = [v[1].arms for v in values]
        lead = [a["hotstart"].time_to_first_fix_s - a["estimator"].time_to_first_fix_s for a in arms]
        accepted = sum(a["estimator"].used_estimate for a in arms)
        return {
            "sim_ttff_lead_s": (float(np.mean(lead)), "s"),
            "sim_estimate_accepted_share": (accepted / len(arms), "ratio"),
        }


class LongTrack(_ScenarioWorkload):
    """Two long wakes with 1 Hz fixes: a static user and one moving at 12 m/s.

    The per-fix path (propagate and the light-time loop, pvt.solve,
    enu_errors) dominates; session one and nav_message are a small share.
    """

    name = "long_track"
    unit = "fix"
    rate_name = "track_fixes_per_s"
    window_ops = 1  # one operation is about 1 s
    wake_run_s = 900.0
    speed_m_s = 12.0

    def _make_pass(self, p: int) -> list[Point]:
        rng = _rng(self.seed, 2, p)
        up = np.array(sh.ScenarioConfig().user_pos_ecef)
        up /= np.linalg.norm(up)
        east = np.cross([0.0, 0.0, 1.0], up)
        east /= np.linalg.norm(east)
        north = np.cross(up, east)
        points = []
        for moving in (False, True):
            heading = rng.uniform(0.0, 2 * math.pi)
            vel = (math.cos(heading) * east + math.sin(heading) * north) * self.speed_m_s * moving
            scenario = {
                "seed": int(rng.integers(1, 2**31 - 1)),
                "start_tow_s": repr(float(rng.uniform(86400.0, 518400.0))),
                "off_duration_s": repr(float(rng.uniform(60.0, 300.0))),
                "wake_run_s": self.wake_run_s,
                "noise_sigma_m": 5.0,
            }
            clock = {"rtc_ppm": float(rng.choice(WakeSweep.rtc_ppms))}
            user = {"vel_ecef_mps": " ".join(repr(float(v)) for v in vel)}
            label = "moving" if moving else "static"
            points.append(Point(scenario_text(scenario, clock, user), label=label))
        return points

    @staticmethod
    def work(point: Point, value) -> int:
        return sum(len(arm.fixes) for arm in value[1].arms.values())

    def sim_stats(self, values: list) -> dict[str, tuple[float, str]]:
        rms = [arm.rms_2d_m for v in values for arm in v[1].arms.values()]
        return {"sim_rms_2d_m": (float(np.mean(rms)), "m")}


# --- bitstream workload -------------------------------------------------------


@dataclass(frozen=True)
class Stream:
    bits: np.ndarray
    hits: list[tuple[int, bool]]  # embedded subframe offsets, preamble shown inverted
    fields: list[tuple[int, int, int, int, bytes]]  # sat, sfid, tow, week, payload
    lookalikes: int  # preamble patterns in the stream, either polarity
    path: Path


def make_stream(rng: np.random.Generator, n_subframes: int, path: Path) -> Stream:
    """Subframes with random fields between random junk gaps; some segments inverted.

    Gaps are at least two bits, so every subframe's carry bits come from the
    junk before it. Junk or fields that happen to form a second valid
    boundary are redrawn until the embedded subframes are the only ones.
    """
    n = n_subframes
    gaps = [rng.integers(0, 2, int(k), dtype=np.uint8) for k in rng.integers(2, 91, n + 1)]
    inverted = np.zeros(n + 1, dtype=np.uint8)
    i = 0
    while i <= n:
        run = int(rng.integers(1, 41))
        inverted[i : i + run] = rng.integers(0, 2)
        i += run

    def draw_fields(k: int) -> dict[str, np.ndarray]:
        return {
            "sat": rng.integers(1, 33, k),
            "sfid": rng.integers(1, 6, k),
            "tow": rng.integers(0, navref.TOW_COUNT, k),
            "week": rng.integers(0, 1 << 13, k),
            "payload": rng.integers(0, 256, (k, navref.PAYLOAD_BYTES)),
        }

    fields = draw_fields(n)
    for _ in range(100):
        carry = np.array([g[-2:] for g in gaps[:n]], dtype=np.int64)
        sf_bits = navref.encode_subframes(**fields, d29=carry[:, 0], d30=carry[:, 1])
        parts, offsets, pos = [], [], 0
        for k in range(n):
            parts += [gaps[k] ^ inverted[k], sf_bits[k] ^ inverted[k]]
            offsets.append(pos + len(gaps[k]))
            pos += len(gaps[k]) + navref.SUBFRAME_BITS
        parts.append(gaps[n] ^ inverted[n])
        bits = np.concatenate(parts)
        # The preamble shows inverted when the segment is, or when D30* = 1
        # complements the word's data bits; the scanner reports the former.
        hits = [(o, bool(inv ^ c)) for o, inv, c in zip(offsets, inverted[:n], carry[:, 1])]
        found = navref.valid_boundaries(bits)
        if not set(hits) <= set(found):
            raise RuntimeError("reference encoder built an undecodable subframe")
        spurious = sorted(set(found) - set(hits))
        if not spurious:
            break
        for off, _ in spurious:
            k = int(np.searchsorted(offsets, off, side="right")) - 1
            if k >= 0 and off < offsets[k] + navref.SUBFRAME_BITS:
                for key, value in draw_fields(1).items():
                    fields[key][k] = value[0]
            else:
                gap = k + 1  # junk before subframe k + 1, or the tail
                gaps[gap] = rng.integers(0, 2, len(gaps[gap]), dtype=np.uint8)
    else:
        raise RuntimeError("could not clear spurious boundaries")
    truth = [
        (int(fields["sat"][k]), int(fields["sfid"][k]), int(fields["tow"][k]),
         int(fields["week"][k]), bytes(fields["payload"][k].astype(np.uint8)))
        for k in range(n)
    ]
    upright, flipped = navref.preamble_lookalikes(bits)
    return Stream(bits, hits, truth, len(upright) + len(flipped), path)


def scan_stream(stream: Stream):
    """Find every boundary, decode each hit with the stream's carry bits,
    and round-trip the stream through a bitstream file."""
    bits = stream.bits
    hits = nav.find_subframe_boundaries(bits)
    decoded = []
    for hit in hits:
        o = hit.offset
        window = bits[max(o - 2, 0) : o + navref.SUBFRAME_BITS]
        if hit.inverted:
            window = 1 - window
        d29, d30 = (int(window[0]), int(window[1])) if o >= 2 else (0, 0)
        decoded.append(nav.decode_subframe(window[-navref.SUBFRAME_BITS :], d29_prev=d29, d30_prev=d30))
    nav.write_bitstream(stream.path, bits)
    return hits, decoded, nav.read_bitstream(stream.path)


def check_scan(stream: Stream, value) -> list[str]:
    hits, decoded, back = value
    problems = []
    got = [(h.offset, h.inverted) for h in hits]
    if got != stream.hits:
        missing = len(set(stream.hits) - set(got))
        extra = len(set(got) - set(stream.hits))
        problems.append(f"scan hits: {missing} missing, {extra} unexpected")
    fields = [(d.sat_id, d.subframe_id, d.tow, d.week_number, d.payload) for d in decoded]
    if fields != stream.fields:
        problems.append("decoded fields differ from the embedded ones")
    if not np.array_equal(back, stream.bits):
        problems.append("bitstream file round trip differs")
    return problems


class BitstreamScan:
    """nav_message alone: boundary scan, decode, and file round trip of a
    seeded 4 Mbit stream held as sixteen 256 kbit streams (one operation
    each, about 0.1 s, so a run has many short windows to time)."""

    name = "bitstream_scan"
    unit = "subframe"
    rate_name = "decoded_subframes_per_s"
    window_ops = 1
    streams = 16
    subframes_per_stream = 725  # about 256 kbit with the gap lengths above
    expected_layers = (
        "nav_message.find_subframe_boundaries",
        "nav_message.decode_subframe",
        "nav_message.bits_to_word",
        "nav_message.check_word",
        "nav_message.parity_bits",
    )

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.pool = [
            make_stream(_rng(seed, 3, k), self.subframes_per_stream, tmp / f"s{k}.navb")
            for k in range(self.streams)
        ]
        self._warm = make_stream(_rng(seed, 4, 0), 40, tmp / "warm.navb")

    def inputs(self, p: int) -> list[Stream]:
        return self.pool

    def warm_up(self) -> None:
        scan_stream(self._warm)

    call = staticmethod(scan_stream)
    check = staticmethod(check_scan)

    @staticmethod
    def work(stream: Stream, value) -> int:
        return len(value[1])

    @staticmethod
    def digest_bytes(value) -> bytes:
        hits, decoded, _ = value
        h = hashlib.sha256()
        for hit, d in zip(hits, decoded):
            h.update(f"{hit.offset},{int(hit.inverted)},{d.sat_id},{d.subframe_id},{d.tow},{d.week_number},".encode())
            h.update(d.payload)
        return h.digest()

    def sim_stats(self, values: list) -> dict[str, tuple[float, str]]:
        return {}


WORKLOADS = {w.name: w for w in (WakeSweep, LongTrack, BitstreamScan)}
