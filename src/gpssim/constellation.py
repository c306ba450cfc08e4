"""Circular-orbit satellite truth: positions, velocities, delays, Doppler.

Satellites fly unperturbed circular orbits around an inertial Earth. There is
no Sagnac correction and no satellite clock error anywhere in the simulator,
so generated measurements and the solver share one consistent model.
"""
from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .constants import (
    CHIP_RATE_HZ,
    CODE_LENGTH_CHIPS,
    EARTH_RADIUS_M,
    GM_EARTH_M3_S2,
    GPS_ORBIT_RADIUS_M,
    L1_CARRIER_HZ,
    SPEED_OF_LIGHT_M_S,
)
from .nav_message import PAYLOAD_BYTES

DEFAULT_VALIDITY_S = 4 * 3600.0


class StaleEphemerisError(ValueError):
    """Requested a satellite state outside the ephemeris validity window."""


@dataclass(frozen=True)
class EphemerisRecord:
    """Orbit description broadcast by one satellite.

    epoch is an absolute GPS time in seconds (week * 604800 + seconds).
    phase_at_epoch is the in-plane angle from the ascending node at epoch.
    """

    sat_id: int
    inclination: float
    raan: float
    phase_at_epoch: float
    epoch: float
    orbit_radius: float = GPS_ORBIT_RADIUS_M
    validity: float = DEFAULT_VALIDITY_S

    def __post_init__(self) -> None:
        if not 1 <= self.sat_id <= 32:
            raise ValueError("sat_id out of range")
        if self.orbit_radius <= EARTH_RADIUS_M:
            raise ValueError("orbit radius must clear the Earth's surface")
        if self.validity <= 0:
            raise ValueError("validity must be positive")

    @property
    def mean_motion(self) -> float:
        return math.sqrt(GM_EARTH_M3_S2 / self.orbit_radius**3)


@dataclass(frozen=True)
class SatState:
    position: np.ndarray
    velocity: np.ndarray


def propagate(eph: EphemerisRecord, t: float) -> SatState:
    """Satellite ECI state at absolute GPS time t."""
    if abs(t - eph.epoch) > eph.validity:
        raise StaleEphemerisError(
            f"sat {eph.sat_id}: {t - eph.epoch:+.0f} s from epoch exceeds "
            f"{eph.validity:.0f} s validity"
        )
    n = eph.mean_motion
    u = eph.phase_at_epoch + n * (t - eph.epoch)
    cu, su = math.cos(u), math.sin(u)
    co, so = math.cos(eph.raan), math.sin(eph.raan)
    ci, si = math.cos(eph.inclination), math.sin(eph.inclination)
    r = eph.orbit_radius
    pos = np.array(
        [
            r * (co * cu - so * su * ci),
            r * (so * cu + co * su * ci),
            r * su * si,
        ]
    )
    vel = np.array(
        [
            r * n * (-co * su - so * cu * ci),
            r * n * (-so * su + co * cu * ci),
            r * n * cu * si,
        ]
    )
    return SatState(pos, vel)


@dataclass(frozen=True, eq=False)
class Orbits:
    """Several ephemerides as per-satellite arrays, evaluated all at once.

    Build one with Orbits.of(records); index it with an integer or boolean
    array to select satellites. positions() repeats propagate()'s
    elementwise arithmetic in the same order, so each row is bitwise equal
    to propagate(record, t).position.
    """

    sat_id: np.ndarray
    epoch: np.ndarray
    validity: np.ndarray
    phase_at_epoch: np.ndarray
    mean_motion: np.ndarray
    orbit_radius: np.ndarray
    cos_raan: np.ndarray
    sin_raan: np.ndarray
    cos_inc: np.ndarray
    sin_inc: np.ndarray

    @classmethod
    def of(cls, ephemerides: Sequence[EphemerisRecord]) -> Orbits:
        return cls(
            np.array([e.sat_id for e in ephemerides]),
            np.array([e.epoch for e in ephemerides]),
            np.array([e.validity for e in ephemerides]),
            np.array([e.phase_at_epoch for e in ephemerides]),
            np.array([e.mean_motion for e in ephemerides]),
            np.array([e.orbit_radius for e in ephemerides]),
            np.array([math.cos(e.raan) for e in ephemerides]),
            np.array([math.sin(e.raan) for e in ephemerides]),
            np.array([math.cos(e.inclination) for e in ephemerides]),
            np.array([math.sin(e.inclination) for e in ephemerides]),
        )

    def __getitem__(self, index) -> Orbits:
        return Orbits(*(getattr(self, f.name)[index] for f in fields(self)))

    def positions(self, t: float | np.ndarray) -> np.ndarray:
        """(n, 3) ECI positions at absolute GPS time t, scalar or one per satellite."""
        dt = t - self.epoch
        stale = np.abs(dt) > self.validity
        if stale.any():
            i = int(np.argmax(stale))
            raise StaleEphemerisError(
                f"sat {self.sat_id[i]}: {dt[i]:+.0f} s from epoch exceeds "
                f"{self.validity[i]:.0f} s validity"
            )
        u = self.phase_at_epoch + self.mean_motion * dt
        cu, su = np.cos(u), np.sin(u)
        co, so = self.cos_raan, self.sin_raan
        ci, si = self.cos_inc, self.sin_inc
        r = self.orbit_radius
        pos = np.empty((len(u), 3))
        pos[:, 0] = r * (co * cu - so * su * ci)
        pos[:, 1] = r * (so * cu + co * su * ci)
        pos[:, 2] = r * su * si
        return pos


def geometric_range(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))


def propagation_delay(range_m: float) -> float:
    """One-way light time for a geometric range."""
    if range_m < 0:
        raise ValueError("range must be non-negative")
    return range_m / SPEED_OF_LIGHT_M_S


def carrier_doppler(
    sat: SatState, user_pos: np.ndarray, user_vel: np.ndarray | None = None
) -> float:
    """L1 carrier Doppler in Hz; positive while the satellite approaches."""
    user_pos = np.asarray(user_pos, float)
    user_vel = np.zeros(3) if user_vel is None else np.asarray(user_vel, float)
    los = sat.position - user_pos
    rng = np.linalg.norm(los)
    if rng == 0:
        raise ValueError("satellite and user positions coincide")
    range_rate = float(np.dot(los, sat.velocity - user_vel) / rng)
    return -range_rate / SPEED_OF_LIGHT_M_S * L1_CARRIER_HZ


def code_phase_chips(transmit_time: float) -> float:
    """Code phase in chips (0..1023) of the signal point at a transmit time."""
    return (transmit_time % (CODE_LENGTH_CHIPS / CHIP_RATE_HZ)) * CHIP_RATE_HZ


def elevation_angle(sat_pos: np.ndarray, user_pos: np.ndarray) -> float | np.ndarray:
    """Elevation above the local (geocentric) horizon, rad.

    sat_pos is one position (3,) or one per row (n, 3); the result is a
    float or n elevations, each row computed exactly as a single call would.
    """
    user_pos = np.asarray(user_pos, float)
    up = user_pos / np.linalg.norm(user_pos)
    los = np.asarray(sat_pos, float) - user_pos
    return np.arcsin(np.vecdot(los, up) / np.sqrt(np.vecdot(los, los)))


# --- ephemeris payload packing --------------------------------------------
# Subframes 1..3 carry the orbit description as big-endian IEEE doubles:
#   1: orbit_radius, validity
#   2: inclination, raan
#   3: phase_at_epoch, epoch
# The remaining payload bytes are zero.

EPHEMERIS_SUBFRAMES = 3
_PAIR = struct.Struct(">dd")


def pack_ephemeris(eph: EphemerisRecord) -> tuple[bytes, bytes, bytes]:
    pairs = (
        (eph.orbit_radius, eph.validity),
        (eph.inclination, eph.raan),
        (eph.phase_at_epoch, eph.epoch),
    )
    out = tuple(_PAIR.pack(*p).ljust(PAYLOAD_BYTES, b"\x00") for p in pairs)
    return out  # type: ignore[return-value]


def unpack_ephemeris(sat_id: int, payloads: tuple[bytes, bytes, bytes]) -> EphemerisRecord:
    if len(payloads) != EPHEMERIS_SUBFRAMES:
        raise ValueError("need payloads for subframes 1..3")
    radius, validity = _PAIR.unpack(payloads[0][: _PAIR.size])
    inclination, raan = _PAIR.unpack(payloads[1][: _PAIR.size])
    phase, epoch = _PAIR.unpack(payloads[2][: _PAIR.size])
    return EphemerisRecord(
        sat_id,
        inclination,
        raan,
        phase_at_epoch=phase,
        epoch=epoch,
        orbit_radius=radius,
        validity=validity,
    )


# Elevation slots (degrees) cycled over the constellation. All are well
# above typical masks so satellites stay visible for the length of a run.
_SLOT_ELEVATIONS_DEG = (70.0, 45.0, 30.0, 55.0, 35.0, 60.0, 25.0, 50.0)


def default_constellation(
    user_pos: np.ndarray,
    t0: float,
    n_sats: int = 8,
    *,
    orbit_radius: float = GPS_ORBIT_RADIUS_M,
    inclination: float = math.radians(55.0),
    min_elevation: float = math.radians(15.0),
    validity: float = DEFAULT_VALIDITY_S,
) -> list[EphemerisRecord]:
    """Deterministic constellation visible from user_pos at epoch t0.

    Satellites are assigned azimuth/elevation slots spread around the local
    sky; each orbit plane is then solved so the satellite sits exactly on
    its slot at t0. Slots near the pole raise the plane inclination just
    enough to reach them. Alternate satellites fly the descending branch so
    velocity directions vary across the sky.
    """
    if not 1 <= n_sats <= 32:
        raise ValueError("n_sats out of range")
    user = np.asarray(user_pos, float)
    up = user / np.linalg.norm(user)
    east = np.cross([0.0, 0.0, 1.0], up)
    if np.linalg.norm(east) < 1e-9:
        east = np.array([1.0, 0.0, 0.0])
    east /= np.linalg.norm(east)
    north = np.cross(up, east)

    sats: list[EphemerisRecord] = []
    for k in range(n_sats):
        az = 2 * math.pi * k / n_sats + 0.2
        el = math.radians(_SLOT_ELEVATIONS_DEG[k % len(_SLOT_ELEVATIONS_DEG)])
        el = max(el, min_elevation + math.radians(5.0))
        los = (
            math.cos(el) * (math.sin(az) * east + math.cos(az) * north)
            + math.sin(el) * up
        )
        # Distance along the line of sight to the orbit sphere.
        b = float(user @ los)
        d = -b + math.sqrt(b * b + orbit_radius**2 - float(user @ user))
        point = (user + d * los) / orbit_radius
        lat = math.asin(max(-1.0, min(1.0, point[2])))
        lon = math.atan2(point[1], point[0])
        inc = max(inclination, min(abs(lat) + 0.03, math.pi / 2))
        # Argument of latitude whose orbit position has that latitude.
        u_arg = math.asin(max(-1.0, min(1.0, math.sin(lat) / math.sin(inc))))
        if k % 2:
            u_arg = math.pi - u_arg
        node_offset = math.atan2(math.cos(inc) * math.sin(u_arg), math.cos(u_arg))
        sats.append(
            EphemerisRecord(
                k + 1,
                inc,
                lon - node_offset,
                phase_at_epoch=u_arg,
                epoch=t0,
                orbit_radius=orbit_radius,
                validity=validity,
            )
        )
    return sats
