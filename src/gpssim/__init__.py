"""Message-level GPS receiver simulation with RTC-based frame sync.

The package models the L1 legacy navigation message down to individual
data bits, a receiver clock with a drifting low-rate RTC, and a wake
strategy that rebuilds frame synchronization from elapsed RTC counts
instead of waiting for a preamble. A scenario harness runs both wake
strategies against the same truth so their first-fix behavior can be
compared sample by sample.
"""
from .constants import (
    BIT_S,
    CHIP_RATE_HZ,
    CODE_DOPPLER_RATIO,
    L1_CARRIER_HZ,
    SPEED_OF_LIGHT_M_S,
    SUBFRAME_S,
    TIC_S,
    TOW_COUNT,
    WEEK_S,
)
from .constellation import (
    EphemerisRecord,
    Orbits,
    SatState,
    StaleEphemerisError,
    carrier_doppler,
    code_phase_chips,
    default_constellation,
    elevation_angle,
    pack_ephemeris,
    propagate,
    unpack_ephemeris,
)
from .frame_sync import (
    EstimatedFrameState,
    EstimationMode,
    PersistedSnapshot,
    SnapshotFormatError,
    code_doppler_from_carrier,
    drift_budget,
    elapsed_ms_from_rtc,
    estimate_frame_state,
    load_snapshot,
    save_snapshot,
    take_snapshot,
    tick_frame_state,
)
from .nav_message import (
    DecodeError,
    ParityError,
    PreambleHit,
    Subframe,
    build_subframe,
    check_word,
    decode_subframe,
    encode_word,
    find_subframe_boundaries,
    parity_bits,
    read_bitstream,
    solve_trailing_bits,
    subframe_bits,
    write_bitstream,
)
from .pvt import (
    GeometryError,
    InsufficientSatellitesError,
    PvtSolution,
    design_matrix,
    enu_errors,
    horizontal_error,
    rms_2d,
    solve,
)
from .receiver import (
    LockEvent,
    LockStage,
    LockState,
    ProtocolError,
    hotstart_frame_lock_delay,
)
from .rx_clock import (
    ClockBackwardsError,
    GpsTime,
    Rco,
    ReceiverClockState,
    code_time_at_tic,
    compute_rco,
    to_gps_time,
)
from .simharness import (
    ArmReport,
    RunReport,
    Sample,
    ScenarioConfig,
    ScenarioError,
    export_report,
    parse_scenario,
    power_savings_ratio,
    read_scenario,
    render_report_csv,
    run_scenario,
)

__version__ = "0.1.0"
