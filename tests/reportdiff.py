#!/usr/bin/env python3
"""Diff the run reports of two gpssim source trees over a fixed corpus.

    python tests/reportdiff.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the ``gpssim`` package (a tree's ``src``).
Each tree runs the whole corpus in its own subprocess, both at once. The
corpus is built here, once, from this tree's tests and benchmark inputs:

* the GRID scenarios of tests/test_report_digests.py;
* the pass-0 points of perfbench's wake_sweep and long_track workloads at
  seeds 1 and 7919 (perfbench/workloads.py is only read); long_track's
  900-row tables are the corpus's only ones long enough to be relaxed;
* 200 scenario texts from a seeded generator shaped like test_fuzz's
  strategy (up to eight lines drawn from its values per key);
* a sleep of 1e300 s.

It prints, per field, the largest |delta| between the two trees where both
ran the scenario to the same shape of report (sample errors, time to first
fix, power ratio, RMS error, hotstart delay, each fix's clock bias b_u_m,
each diagnostic) and each
side's mean rms_2d_m, per part of the corpus and over all of it. Then it
lists, by name, each scenario with no discrete change whose largest sample
|delta| exceeds MOVED_M (pvt.solve's 1e-4 m tolerance), such as a fix that
now sees another set of channels, and every discrete change by scenario:
an error text (or an error on one side only), the arms, an arm's fix
count, a fix's iterations and converged flag, a sample's fix_valid, and
used_estimate. It exits 1 when it finds a discrete change, else 0.
"""
from __future__ import annotations

import json
import math
from collections import Counter
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_SEEDS = (1, 7919)
FUZZ_SCENARIOS = 200
FUZZ_SEED = 2015
ARM_FIELDS = ("time_to_first_fix_s", "power_ratio", "rms_2d_m", "hotstart_delay_s")
SAMPLE_FIELDS = ("err_east_m", "err_north_m", "err_2d_m")
# Per fix, compared where both trees made the same number of fixes: the
# clock bias, which a slip in the clock offset moves first.
FIX_FIELDS = ("b_u_m",)
# pvt.solve's tolerance: a sample moved further than this is listed by name.
MOVED_M = 1e-4


# --- the corpus ----------------------------------------------------------------


def corpus() -> list[dict]:
    """Every scenario as {part, name, and grid (a GRID name) or text}. Texts
    name snapshot files under "{tmp}", which each run replaces with a
    directory of its own."""
    for path in (ROOT / "src", HERE, ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import numpy as np
    import test_fuzz
    import test_report_digests
    import workloads

    items = [dict(part="grid", name=name, grid=name) for name in sorted(test_report_digests.GRID)]
    for workload in (workloads.WakeSweep, workloads.LongTrack):
        for seed in BENCHMARK_SEEDS:
            points = workload(seed, Path("{tmp}")).inputs(0)
            part = f"{workload.name}:{seed}"
            items += [dict(part=part, name=f"{part}#{i}", text=p.text) for i, p in enumerate(points)]
    rng = np.random.default_rng(FUZZ_SEED)
    keys = sorted(test_fuzz._VALUES)
    for i in range(FUZZ_SCENARIOS):
        lines = []
        for _ in range(int(rng.integers(0, 9))):
            key = keys[rng.integers(len(keys))]
            values = test_fuzz._VALUES[key]
            lines.append(f"[{test_fuzz._SECTION[key]}]\n{key} = {values[rng.integers(len(values))]}\n")
        items.append(dict(part="fuzz", name=f"fuzz#{i}", text="".join(lines)))
    items.append(dict(part="huge_sleep", name="off_duration_s=1e300", text="[scenario]\noff_duration_s = 1e300\n"))
    return items


# --- one tree's run (the worker) --------------------------------------------------


def _outcome(report) -> dict:
    arms = {}
    for name, arm in report.arms.items():
        arms[name] = {
            **{f: getattr(arm, f) for f in ARM_FIELDS},
            "used_estimate": arm.used_estimate,
            "fixes": len(arm.fixes),
            "iterations": [f.iterations for f in arm.fixes],
            "converged": [f.converged for f in arm.fixes],
            **{f: [getattr(fix, f) for fix in arm.fixes] for f in FIX_FIELDS},
            "fix_valid": [s.fix_valid for s in arm.samples],
            **{f: [getattr(s, f) for s in arm.samples] for f in SAMPLE_FIELDS},
        }
    return {"arms": arms, "diagnostics": dict(report.diagnostics)}


def work(items: list[dict]) -> list[dict]:
    """Run every corpus item with the gpssim first on sys.path; this
    directory must be on it too."""
    from gpssim import simharness as sh
    import test_report_digests

    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, item in enumerate(items):
            scratch = Path(tmp, str(i))
            scratch.mkdir()
            try:
                if "grid" in item:
                    report = test_report_digests.run_grid_scenario(item["grid"], scratch)
                else:
                    config = sh.parse_scenario(item["text"].replace("{tmp}", scratch.as_posix()))
                    report = sh.run_scenario(config)
            except Exception as exc:  # any exception is an outcome to compare
                outcomes.append({"error": f"{type(exc).__name__}: {exc}"})
            else:
                outcomes.append(_outcome(report))
    return outcomes


def _start(src: Path, items: list[dict]) -> subprocess.Popen:
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); sys.path.insert(1, sys.argv[2]);"
        "import reportdiff, gpssim;"
        "gpssim.__file__.startswith(sys.argv[1]) or sys.exit(f'gpssim from {gpssim.__file__}');"
        "print(json.dumps(reportdiff.work(json.load(sys.stdin))))"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code, str(src.resolve()), str(HERE)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    proc.stdin.write(json.dumps(items))
    proc.stdin.close()
    return proc


def run_trees(parent_src: Path, change_src: Path, items: list[dict]) -> tuple[list, list]:
    """Each tree's outcomes, run at the same time in two subprocesses."""
    procs = [_start(Path(src), items) for src in (parent_src, change_src)]
    results = []
    for proc in procs:
        with proc.stdout:
            out = proc.stdout.read()
        if proc.wait() != 0:
            raise RuntimeError(f"reportdiff worker exited {proc.returncode}")
        results.append(json.loads(out))
    return results[0], results[1]


# --- the diff -------------------------------------------------------------------


def _delta(a, b) -> float:
    a = math.nan if a is None else a
    b = math.nan if b is None else b
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


class Diff:
    """What changed between two trees' outcomes over one corpus."""

    def __init__(self, items: list[dict], parent: list[dict], change: list[dict]) -> None:
        self.items = items
        self.fields: dict[str, list] = {}
        self.discrete: list[tuple[str, str]] = []
        # (scenario, largest sample |delta|) past MOVED_M, no discrete change.
        self.moved: list[tuple[str, float]] = []
        self.both_ran = self.both_rejected = 0
        for item, p, c in zip(items, parent, change):
            self._scenario(item["name"], p, c)
        self.means = {}
        for part in [*dict.fromkeys(i["part"] for i in items), "all"]:
            self.means[part] = tuple(
                self._mean_rms(side, part) for side in (parent, change)
            )

    def _scenario(self, name: str, p: dict, c: dict) -> None:
        if "error" in p or "error" in c:
            if p.get("error") != c.get("error"):
                self.discrete.append((name, f"error {p.get('error')!r} -> {c.get('error')!r}"))
            elif "error" in p:
                self.both_rejected += 1
            return
        self.both_ran += 1
        n_discrete = len(self.discrete)
        if sorted(p["arms"]) != sorted(c["arms"]):
            self.discrete.append((name, f"arms {sorted(p['arms'])} -> {sorted(c['arms'])}"))
            return
        deltas: dict[str, list[float]] = {}
        for arm in sorted(p["arms"]):
            pa, ca = p["arms"][arm], c["arms"][arm]
            for key in ("fixes", "used_estimate"):
                if pa[key] != ca[key]:
                    self.discrete.append((name, f"{arm} {key} {pa[key]} -> {ca[key]}"))
            for key in ("iterations", "converged"):
                if pa["fixes"] == ca["fixes"] and pa[key] != ca[key]:
                    moved = sum(a != b for a, b in zip(pa[key], ca[key]))
                    self.discrete.append((name, f"{arm} {key} moved on {moved} fixes"))
            if pa["fix_valid"] != ca["fix_valid"]:
                moved = sum(a != b for a, b in zip(pa["fix_valid"], ca["fix_valid"]))
                moved += abs(len(pa["fix_valid"]) - len(ca["fix_valid"]))
                self.discrete.append((name, f"{arm} fix_valid moved on {moved} samples"))
                continue
            for f in ARM_FIELDS:
                deltas.setdefault(f"arm {f}", []).append(_delta(pa[f], ca[f]))
            for f in SAMPLE_FIELDS:
                deltas.setdefault(f"sample {f}", []).extend(map(_delta, pa[f], ca[f]))
            if pa["fixes"] == ca["fixes"]:
                for f in FIX_FIELDS:
                    deltas.setdefault(f"fix {f}", []).extend(map(_delta, pa[f], ca[f]))
        pd, cd = p["diagnostics"], c["diagnostics"]
        for key in sorted(set(pd) | set(cd)):
            if key not in pd or key not in cd:
                self.discrete.append((name, f"diagnostic {key} only on one side"))
            else:
                deltas[f"diagnostic {key}"] = [_delta(pd[key], cd[key])]
        worst_sample = max(
            (max(v, default=0.0) for f, v in deltas.items() if f.startswith("sample ")),
            default=0.0,
        )
        if worst_sample > MOVED_M and len(self.discrete) == n_discrete:
            self.moved.append((name, worst_sample))
        # Per field: the largest |delta|, the scenarios where it is not 0
        # and the one where it is largest.
        for field, values in deltas.items():
            worst = max(values, default=0.0)
            entry = self.fields.setdefault(field, [0.0, 0, ""])
            if worst > 0:
                entry[1] += 1
                if worst > entry[0]:
                    entry[0], entry[2] = worst, name

    def _mean_rms(self, outcomes: list[dict], part: str) -> float:
        rms = [
            arm["rms_2d_m"]
            for item, o in zip(self.items, outcomes)
            if (part == "all" or item["part"] == part) and "arms" in o
            for arm in o["arms"].values()
            if math.isfinite(arm["rms_2d_m"])
        ]
        return sum(rms) / len(rms) if rms else math.nan

    def is_zero(self) -> bool:
        return (
            not self.discrete
            and all(entry[0] == 0.0 for entry in self.fields.values())
            and all(_delta(p, c) == 0.0 for p, c in self.means.values())
        )

    def render(self) -> str:
        parts = Counter(item["part"] for item in self.items)
        lines = [
            f"{len(self.items)} scenarios: "
            + ", ".join(f"{part} {n}" for part, n in parts.items())
            + f"; both ran {self.both_ran}, both rejected {self.both_rejected}",
            "",
            f"{'field':<40} {'max |delta|':>12} {'differ':>7}  largest at",
        ]
        for name, (worst, n, where) in self.fields.items():
            lines.append(f"{name:<40} {worst:>12.6g} {n:>7}  {where}")
        lines += ["", f"{'mean rms_2d_m':<40} {'parent':>12} {'change':>12}"]
        for part, (p, c) in self.means.items():
            lines.append(f"{part:<40} {p:>12.6f} {c:>12.6f}")
        lines += ["", f"moved past {MOVED_M:g} m with no discrete change: {len(self.moved)}"]
        lines += [f"  {name}: largest sample |delta| {worst:.6g} m" for name, worst in self.moved]
        lines += ["", f"discrete changes: {len(self.discrete)}"]
        lines += [f"  {name}: {what}" for name, what in self.discrete]
        return "\n".join(lines)


def diff_trees(parent_src, change_src) -> Diff:
    items = corpus()
    parent, change = run_trees(Path(parent_src), Path(change_src), items)
    return Diff(items, parent, change)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    diff = diff_trees(*argv)
    print(f"parent: {argv[0]}\nchange: {argv[1]}")
    print(diff.render())
    return 1 if diff.discrete else 0


if __name__ == "__main__":
    sys.exit(main())
