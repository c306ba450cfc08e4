#!/usr/bin/env python3
"""gpssim benchmark: one command prints every metric and checks every output.

    python3 perfbench/run.py --workload wake_sweep --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``. The
load is one process with one thread in a closed loop: each operation starts
when the previous one returns. With ``--trace 0`` operations run untraced
for about ``--seconds`` (whole passes over the workload's seeded inputs)
and the end-to-end metrics are reported. With
``--trace 1`` the same pass runs alternately untraced and traced, and the
per-layer metrics come from the traced passes. The last line of standard
output is a JSON object: correct, attempted, failed, metrics.

See perfbench/README.md for the workloads, the metrics and the held-out
seed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = Path(".perfbench_tmp")  # relative to ROOT, so inputs name the same paths everywhere
SPANS = Path(".perfbench_out")
HELD_OUT_SEED = 7919  # not run while the benchmark was built; later claims must hold on it too
SETUP_REPEATS = 5

END_TO_END = {
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
RATIOS = {
    "constellation.propagate.calls_per_fix": "calls/fix",
    "pvt.solve.iterations_mean": "count",
    "nav_message.hit_share": "ratio",
    "simharness.session_one.share": "ratio",
    "simharness.host_s_per_event": "s",
    "frame_sync.estimate.accept_share": "ratio",
    "trace.overhead_share": "ratio",
}


def load_package():
    """Import gpssim from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import gpssim
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import gpssim from {SRC}: {exc}")
    if SRC.resolve() not in Path(gpssim.__file__).resolve().parents:
        sys.exit(f"perfbench: gpssim imported from {gpssim.__file__}, not {SRC}")
    return gpssim


def per_layer_names() -> dict[str, str]:
    import tracing

    layers = [tracing.layer_name(m, p) for m, p in tracing.LAYERS if p != "power_savings_ratio"]
    layers += [tracing.SESSION_ONE, *tracing.WAKE.values()]
    names = {}
    for layer in layers:
        names[f"{layer}.calls"] = "count"
        names[f"{layer}.self_s"] = "s"
    names.update(RATIOS)
    return names


@dataclass(eq=False)
class Outcome:
    item: object
    seconds: float
    status: str  # ok | rejected | error (raised) | wrong (failed a check)
    detail: str
    value: object = None
    work: int = 0  # units of work done, for throughput


def run_pass(wl, items, tracer=None) -> list[Outcome]:
    import tracing
    from workloads import REJECTED

    out = []
    op = tracer.name_id(tracing.OP) if tracer else None
    for item in items:
        if tracer:
            tracer.new_trace()
            root = tracer.begin(op)
        t0 = time.perf_counter()
        try:
            value = wl.call(item)
        except REJECTED as exc:
            status, detail, value = "rejected", f"{type(exc).__name__}: {exc}", None
        except Exception as exc:
            status, detail, value = "error", f"{type(exc).__name__}: {exc}", None
        else:
            status, detail = "ok", ""
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.finish(root)
        work = 0
        if status == "ok":
            problems = wl.check(item, value)
            if problems:
                status, detail = "wrong", "; ".join(problems)
            else:
                work = wl.work(item, value)
        out.append(Outcome(item, seconds, status, detail, value, work))
    return out


def pass_digest(wl, outcomes: list[Outcome]) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(wl.digest_bytes(o.value) if o.status == "ok" else o.status.encode() + o.detail.encode())
    return h.hexdigest()


def rerun_identical(wl, outcome: Outcome) -> bool:
    """Run a designated operation again; its output must be byte-identical."""
    again = run_pass(wl, [outcome.item])[0]
    return again.status == "ok" and wl.digest_bytes(again.value) == wl.digest_bytes(outcome.value)


def zero_call_layers(wl, calls: dict[str, int]) -> list[str]:
    """Layers the workload must exercise that recorded no call (a missed wrapper)."""
    return [name for name in wl.expected_layers if not calls.get(name)]


def fastest_window(outcomes: list[Outcome], size: int) -> tuple[float, float]:
    """Work rate (1/s) and median latency (ms) of the fastest windows.

    The run is cut into windows of `size` consecutive operations. Load from
    other tenants of a shared machine only ever slows the program, and it
    comes and goes within seconds, so the fastest window is the steadiest
    estimate of the program's own speed. Returns the highest window work
    rate and the lowest window median latency of successful operations.
    """
    rate, p50 = 0.0, math.inf
    for i in range(0, len(outcomes) - size + 1, size):
        window = outcomes[i : i + size]
        rate = max(rate, sum(o.work for o in window) / sum(o.seconds for o in window))
        ok = [o.seconds for o in window if o.status == "ok"]
        if ok:
            p50 = min(p50, statistics.median(ok) * 1e3)
    return rate, p50


def is_edge(o: Outcome) -> bool:
    return getattr(o.item, "edge", False)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "machine": "shared machine, no CPU isolation",
        "model": "model unvalidated, no reference data",
        "load": "one process, one thread, closed loop",
    }


def setup(args):
    """Everything before the first timed operation: imports, inputs, warm-up."""
    load_package()
    import workloads

    tmp = TMP / args.workload
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
    wl.warm_up()
    return wl


def measure_setup(args) -> list[float]:
    """Seconds from process start to ready, in fresh interpreters."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=170)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed (exit {code})")
        times.append(ready)
    return times


def metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


def run_untraced(args, wl, setups: list[float]) -> tuple[bool, int, int, dict]:
    deadline = time.perf_counter() + args.seconds
    passes: list[list[Outcome]] = []
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(wl, wl.inputs(len(passes))))
        if len(passes) > 1:
            for o in passes[-1]:
                o.value = None  # only pass 0's outputs are kept
    everything = [o for p in passes for o in p]
    regular = [o for o in everything if not is_edge(o)]
    ok = [o for o in regular if o.status == "ok"]
    failed = [o for o in regular if o.status in ("error", "wrong")]
    wrong_edge = [o for o in everything if is_edge(o) and o.status == "wrong"]
    correct = not failed and not wrong_edge

    for o in (failed + wrong_edge)[:10]:
        print(f"check FAILED [{getattr(o.item, 'label', '')}] {o.status}: {o.detail[:200]}")
    if not ok:
        sys.exit("perfbench: no operation succeeded, nothing to measure")
    designated = next((o for o in passes[0] if o.status == "ok" and not is_edge(o)), None)
    identical = designated is not None and rerun_identical(wl, designated)
    correct &= identical

    best_rate, best_p50 = fastest_window(regular, wl.window_ops)
    busy_s = sum(o.seconds for o in regular)
    work = sum(o.work for o in ok)
    lat = sorted(o.seconds * 1e3 for o in ok)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "throughput_per_s": best_rate,
        "op_p50_ms": best_p50,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace=0")
    print("provenance " + json.dumps(provenance(args)))
    metric("setup_s", metrics["setup_s"], "s", f"median of {len(setups)} set-ups in fresh processes")
    metric("peak_rss_mb", rss_mb, "MB")
    n_fail = len(failed) + sum(1 for o in everything if is_edge(o) and o.status in ("error", "wrong"))
    rejected = sum(1 for o in everything if o.status == "rejected")
    metric("ops_failed_share", n_fail / len(everything), "ratio",
           f"{n_fail} failed, {rejected} rejected, {len(everything)} attempted in {len(passes)} passes")
    windows = f"{len(regular) // wl.window_ops} windows of {wl.window_ops} operations"
    metric("throughput_per_s", best_rate, "1/s", f"fastest of {windows}; unit: {wl.unit}")
    metric("op_p50_ms", best_p50, "ms", f"lowest median of {windows}")
    metric(wl.rate_name, work / busy_s, "1/s", f"whole run: {work} {wl.unit} units in {busy_s:.3f} s busy")
    if args.workload == "bitstream_scan":
        mbit = sum(len(o.item.bits) for o in regular) / 1e6
        metric("scan_mbit_per_s", mbit / busy_s, "Mbit/s", "whole run")
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    beyond = sum(1 for x in lat if x > p90)
    name = "scenario" if args.workload == "wake_sweep" else "whole_run"
    metric(f"{name}_p50_ms", statistics.median(lat), "ms", f"whole run, n={len(lat)}")
    if beyond >= 10:
        metric(f"{name}_p90_ms", p90, "ms", f"whole run, n={len(lat)}, {beyond} beyond")
    pass0 = [o.value for o in passes[0] if o.status == "ok" and not is_edge(o)]
    for key, (value, unit) in wl.sim_stats(pass0).items():
        metric(key, value, unit, "simulated, pass 0")
    print(f"digest pass0 sha256:{pass_digest(wl, passes[0])}")
    for o in passes[0]:
        if is_edge(o):
            print(f"edge_slice [{o.item.label}] {o.status}: {o.detail[:120]}")
    print(f"check designated_rerun {'identical' if identical else 'DIFFERS'}")
    return correct, len(regular), len(failed) + len(wrong_edge), metrics


def run_traced(args, wl) -> tuple[bool, int, int, dict]:
    """Alternate untraced and traced runs of pass 0 for about --seconds.

    Calls are counted on one traced pass (they must repeat exactly); self
    times are the median over traced passes; the tracing overhead is the
    traced busy time over the untraced busy time of the same passes.
    """
    import tracing

    items = wl.inputs(0)
    deadline = time.perf_counter() + args.seconds
    summaries, digests, outcomes, estimates = [], set(), [], []
    busy = {"untraced": 0.0, "traced": 0.0}
    while not summaries or time.perf_counter() < deadline:
        plain = run_pass(wl, items)
        tracer = tracing.Tracer()
        with tracer:
            traced = run_pass(wl, items, tracer)
        if not summaries:
            kept = tracer  # the first traced pass's spans are written at the end
        summaries.append(tracer.summary())
        busy["untraced"] += sum(o.seconds for o in plain)
        busy["traced"] += sum(o.seconds for o in traced)
        digests |= {pass_digest(wl, plain), pass_digest(wl, traced)}
        for o in plain + traced:
            if o.status == "ok" and not is_edge(o) and hasattr(wl, "estimator_arm"):
                estimates.append(wl.estimator_arm(o.value).used_estimate)
            o.value = None
        outcomes += plain + traced
    spans_path = SPANS / f"spans-{args.workload}.npz"
    kept.write(spans_path)
    problems = []
    if len(digests) != 1:
        problems.append("traced and untraced passes gave different outputs")
    if tracing.installed():
        problems.append("tracer left wrappers installed")
    calls = summaries[0].calls
    if any(s.calls != calls for s in summaries):
        problems.append("call counts differ between identical traced passes")
    zero = zero_call_layers(wl, calls)
    if zero:
        problems.append(f"no calls recorded for {', '.join(zero)}")
    if any(s.subtree_mismatches for s in summaries):
        problems.append("self times under run_scenario do not sum to its span")

    metrics = {}
    units = per_layer_names()
    for name in units:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = calls.get(layer, 0)
        elif kind == "self_s":
            metrics[name] = statistics.median(s.self_s.get(layer, 0.0) for s in summaries)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0  # 0 where the layer is not exercised

    s0 = summaries[0]
    total = {k: statistics.median(s.total_s.get(k, 0.0) for s in summaries)
             for k in ("simharness.run_scenario", "simharness.session_one")}
    bit_items = [o.item for o in outcomes if hasattr(o.item, "lookalikes")]
    metrics.update({
        "constellation.propagate.calls_per_fix": ratio(calls.get("constellation.propagate", 0), calls.get("pvt.solve", 0)),
        "pvt.solve.iterations_mean": ratio(s0.solve_iterations, calls.get("pvt.solve", 0)),
        "nav_message.hit_share": ratio(sum(len(i.hits) for i in bit_items), sum(i.lookalikes for i in bit_items)),
        "simharness.session_one.share": ratio(total["simharness.session_one"], total["simharness.run_scenario"]),
        "simharness.host_s_per_event": ratio(total["simharness.run_scenario"], calls.get("rx_clock.ReceiverClockState.advance", 0)),
        "frame_sync.estimate.accept_share": ratio(sum(estimates), len(estimates)),
        "trace.overhead_share": busy["traced"] / busy["untraced"] - 1.0,
    })

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace=1")
    print("provenance " + json.dumps(provenance(args)))
    print(f"trace passes={len(summaries)} spans_per_pass={len(kept.start)} written={spans_path}")
    for name, unit in units.items():
        if metrics[name]:
            metric(name, metrics[name], unit)
    print(f"digest pass0 sha256:{next(iter(digests))}")
    bad = [o for o in outcomes if not is_edge(o) and o.status in ("error", "wrong")]
    bad += [o for o in outcomes if is_edge(o) and o.status == "wrong"]
    for p in problems + [f"{o.status}: {o.detail[:200]}" for o in bad[:10]]:
        print(f"check FAILED {p}")
    regular = [o for o in outcomes if not is_edge(o)]
    return not problems and not bad, len(regular), len(bad), metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("wake_sweep", "long_track", "bitstream_scan"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if not (SRC / "gpssim").is_dir():
        sys.exit(f"perfbench: no package sources under {SRC}")
    # Set-up is timed in fresh processes first; they share the temp directory.
    setups = [] if args.setup_only or args.trace else measure_setup(args)
    try:
        wl = setup(args)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            correct, attempted, failed, metrics = run_traced(args, wl)
            units = per_layer_names()
        else:
            correct, attempted, failed, metrics = run_untraced(args, wl, setups)
            units = END_TO_END
    finally:
        shutil.rmtree(TMP / args.workload, ignore_errors=True)
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
