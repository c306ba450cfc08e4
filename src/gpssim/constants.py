"""Physical and signal-structure constants shared across the package."""
from __future__ import annotations

SPEED_OF_LIGHT_M_S = 299_792_458.0

L1_CARRIER_HZ = 1_575_420_000.0
CHIP_RATE_HZ = 1_023_000.0
CODE_LENGTH_CHIPS = 1023
# Ratio applied to carrier Doppler to get code-rate Doppler.
CODE_DOPPLER_RATIO = CHIP_RATE_HZ / L1_CARRIER_HZ

BIT_S = 0.020
WORD_BITS = 30
WORD_DATA_BITS = 24
WORD_S = WORD_BITS * BIT_S            # 0.6 s
SUBFRAME_WORDS = 10
SUBFRAME_BITS = SUBFRAME_WORDS * WORD_BITS  # 300
SUBFRAME_S = SUBFRAME_WORDS * WORD_S  # 6 s

WEEK_S = 604_800.0
# Number of 6 s handover units in one week; TOW counts live in [0, TOW_COUNT).
TOW_COUNT = 100_800
# The message's 13-bit week number counts weeks in [0, WEEK_COUNT).
WEEK_COUNT = 1 << 13

TIC_S = 0.1

PREAMBLE = 0b10001011  # one byte, which the packed preamble search relies on

GM_EARTH_M3_S2 = 3.986004418e14
EARTH_RADIUS_M = 6_378_137.0
GPS_ORBIT_RADIUS_M = 26_560_000.0

# Flat one-way propagation delay assumed before the first fix of a session.
DEFAULT_PROPAGATION_DELAY_S = 0.075
