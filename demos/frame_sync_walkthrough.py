"""
Frame sync across a power-off, step by step
===========================================

A receiver that decodes the navigation message needs up to one full
subframe (6 s) after bit lock before it can stamp its measurements.  This
walkthrough shows the alternative: latch the message position against the
low-power RTC counter before switching off, then advance it arithmetically
on wake.

Run it with ``python3 demos/frame_sync_walkthrough.py``.
"""
import gpssim.frame_sync as fs
from gpssim.constants import SUBFRAME_S, WORD_BITS
from gpssim.nav_message import BitstreamCursor
from gpssim.rx_clock import GpsTime, Rco, ReceiverClockState, compute_rco

RTC_HZ = 32000.0

# ----------------------------------------------------------------------
# Session one.  The receiver is tracking: the cursor says "word 6, bit 19
# of the subframe labelled TOW 2679", and the RTC latched count 17362 at
# the edge of that bit.  We give the receiver clock a +0.25 ms bias so we
# can check later that the wake path recovers it.

TOW, WORD, BIT, RTC_LATCH = 2679, 6, 19, 17362
BIAS_S = 0.00025

edge_into_subframe = ((WORD - 1) * WORD_BITS + BIT) * 0.020
edge_at_antenna = TOW * SUBFRAME_S - SUBFRAME_S + edge_into_subframe + 0.075
boot_zt = edge_at_antenna + BIAS_S - RTC_LATCH / RTC_HZ

clock = ReceiverClockState(GpsTime(0, boot_zt), rtc_ppm_error=0.0)
clock.advance(RTC_LATCH / RTC_HZ)

cursor = BitstreamCursor(word_index=WORD, bit_index=BIT, tow_current=TOW)
tracking = fs.TrackingStatus(
    bit_locked=True, have_fix=True, carrier_doppler_hz=1200.0, code_phase_chips=401.25
)
snap = fs.take_snapshot(cursor, tracking, Rco(0, BIAS_S), rtc_count=RTC_LATCH)
print("snapshot taken:")
print(fs.dump_snapshot_text(snap))

# ----------------------------------------------------------------------
# Power off.  Only the RTC keeps counting.  Here the receiver sleeps a
# little over 209.8 seconds; on wake the counter reads 6731176.

rtc_now = 6731176
clock.advance((rtc_now - RTC_LATCH) / RTC_HZ)
elapsed = fs.elapsed_ms_from_rtc(rtc_now, snap.rtc_count, RTC_HZ)
print(f"elapsed while off: {elapsed:.4f} ms")

# Two ways to advance the message position:
#
#  * FIELDWISE splits the elapsed time into whole words and whole bits
#    before adding each to its own field.  The two integer divisions each
#    drop their own remainder, so the subframe count can come out one low.
#  * EXACT converts once to total bits and redistributes.  It agrees with
#    the tick-by-tick oracle everywhere.

for mode in (fs.EstimationMode.FIELDWISE, fs.EstimationMode.EXACT):
    est = fs.estimate_frame_state(snap, rtc_now, RTC_HZ, mode=mode)
    print(
        f"{mode.value:>9}: bit {est.bit_index:2d}  word {est.word_index:2d}  "
        f"tow {est.tow}  residual {est.residual_ms:.4f} ms"
    )

truth = fs.tick_frame_state(snap.word_index, snap.bit_index, snap.tow, elapsed)
print(f"   oracle: bit {truth[0]:2d}  word {truth[1]:2d}  tow {truth[2]}")

# ----------------------------------------------------------------------
# The estimate also carries a SyncTIC: the receiver-time tick at which the
# current subframe will end at the antenna.  Feeding it to the usual
# clock-offset bookkeeping rebuilds the receiver clock offset without
# decoding a single handover word; it lands on the bias we built in.

est = fs.estimate_frame_state(snap, rtc_now, RTC_HZ, current_tic=clock.tic_value)
rco = compute_rco(clock.zt, 0, est.sync_tic, est.tow)
print(f"sync_tic {est.sync_tic:.4f} ticks -> clock offset {rco.second * 1e3:+.6f} ms "
      f"(built-in bias {BIAS_S * 1e3:+.3f} ms)")

# ----------------------------------------------------------------------
# How long can the receiver stay off before the estimate risks being a
# bit wrong?  Half a bit is 10 ms; a 10 ppm RTC eats that in 10^6 ms.

for ppm in (5.0, 10.0, 20.0):
    budget_s = fs.drift_budget(ppm, 10.0) / 1000.0
    print(f"rtc error {ppm:4.0f} ppm -> safe off time {budget_s:8.1f} s")
