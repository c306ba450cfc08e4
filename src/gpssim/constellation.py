"""Circular-orbit satellite truth: positions, velocities, Doppler.

Satellites fly unperturbed circular orbits around an inertial Earth. There is
no Sagnac correction and no satellite clock error anywhere in the simulator,
so generated measurements and the solver share one consistent model.
"""
from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property

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
# Far past any navigation orbit; keeps mean_motion's radius**3 in range.
_MAX_ORBIT_RADIUS_M = 1e9


class StaleEphemerisError(ValueError):
    """Requested a satellite state outside the ephemeris validity window."""


@dataclass(frozen=True)
class EphemerisRecord:
    """Orbit description broadcast by one satellite.

    epoch is an absolute GPS time in seconds (week * 604800 + seconds).
    phase_at_epoch is the in-plane angle from the ascending node at epoch.
    validity bounds where a receiver may use the record (propagate,
    Orbits.positions); the orbit itself (Orbits.evaluate, Orbits.velocities)
    has no limit.
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
        values = (self.inclination, self.raan, self.phase_at_epoch, self.epoch,
                  self.orbit_radius, self.validity)
        if not all(map(math.isfinite, values)):
            raise ValueError("orbit values must be finite")
        if self.orbit_radius <= EARTH_RADIUS_M:
            raise ValueError("orbit radius must clear the Earth's surface")
        if self.orbit_radius > _MAX_ORBIT_RADIUS_M:
            raise ValueError(f"orbit radius must not exceed {_MAX_ORBIT_RADIUS_M:g} m")
        if self.validity <= 0:
            raise ValueError("validity must be positive")

    # Computed once per record: every Orbits built from it reads them.
    @cached_property
    def mean_motion(self) -> float:
        return math.sqrt(GM_EARTH_M3_S2 / self.orbit_radius**3)

    @cached_property
    def plane(self) -> tuple[float, float, float, float]:
        """cos and sin of the RAAN, then cos and sin of the inclination."""
        return (
            math.cos(self.raan),
            math.sin(self.raan),
            math.cos(self.inclination),
            math.sin(self.inclination),
        )


@dataclass(frozen=True)
class SatState:
    position: np.ndarray
    velocity: np.ndarray


def _stale_error(sat_id: int, dt: float, validity: float) -> StaleEphemerisError:
    return StaleEphemerisError(
        f"sat {sat_id}: {dt:+.0f} s from epoch exceeds {validity:.0f} s validity"
    )


@dataclass(frozen=True, eq=False)
class Orbits:
    """Several ephemerides as per-satellite arrays, evaluated all at once.

    Build one with Orbits.of(records); index it with an integer or boolean
    array to select satellites. This is the one copy of the orbit formula:
    evaluate() gives positions and velocities() velocities, elementwise, so
    each cell is bitwise equal to the same record and time evaluated alone.
    """

    sat_id: np.ndarray
    epoch: np.ndarray
    validity: np.ndarray
    phase_at_epoch: np.ndarray
    mean_motion: np.ndarray
    orbit_radius: np.ndarray
    # (n, 2): x and y of the unit vector to the ascending node, (cos, sin)
    # of the RAAN, and of that vector turned 90 degrees east, (-sin, cos).
    node: np.ndarray
    node_east: np.ndarray
    cos_inc: np.ndarray
    sin_inc: np.ndarray

    @classmethod
    def of(cls, ephemerides: Sequence[EphemerisRecord]) -> Orbits:
        co, so, ci, si = np.array([e.plane for e in ephemerides]).reshape(-1, 4).T
        return cls(
            np.array([e.sat_id for e in ephemerides]),
            np.array([e.epoch for e in ephemerides]),
            np.array([e.validity for e in ephemerides]),
            np.array([e.phase_at_epoch for e in ephemerides]),
            np.array([e.mean_motion for e in ephemerides]),
            np.array([e.orbit_radius for e in ephemerides]),
            np.stack([co, so], axis=1),
            np.stack([-so, co], axis=1),
            ci.copy(),
            si.copy(),
        )

    def __getitem__(self, index) -> Orbits:
        return Orbits(*(getattr(self, f.name)[index] for f in fields(self)))

    def evaluate(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """ECI positions at absolute GPS times t, and which of them are stale.

        t broadcasts against the satellites: a scalar or one time per
        satellite gives (n, 3) positions, an (m, 1) column of times an
        (m, n, 3) grid. Every cell is bitwise equal to the same time
        evaluated alone. The mask (t's broadcast shape) marks cells outside
        their satellite's validity window; those hold the formula's value
        and nothing raises.
        """
        dt, cu, su = self._angle(t)
        stale = np.abs(dt) > self.validity
        r, ci, si = self._columns
        pos = np.empty(stale.shape + (3,))
        # x and y in one pass. x = r * (co * cu - so * su * ci) is computed
        # as r * (co * cu + (-so) * su * ci): a - b is a + (-b) exactly.
        np.multiply(r, self.node * cu + self.node_east * su * ci, out=pos[..., :2])
        np.multiply(r * su, si, out=pos[..., 2:])
        return pos, stale

    def velocities(self, t: float | np.ndarray) -> np.ndarray:
        """ECI velocities at absolute GPS times t, broadcast as evaluate()
        broadcasts them, with no validity window. Kept out of evaluate(),
        which the truth and the fixes call and which needs no velocity."""
        _, cu, su = self._angle(t)
        r, ci, si = self._columns
        rn = r * self.mean_motion[:, None]
        vel = np.empty(cu.shape[:-1] + (3,))
        # vx = rn * (-co * su - so * cu * ci) is computed as
        # rn * ((-co) * su + (-so) * cu * ci), and vy as written.
        np.multiply(rn, -self.node * su + self.node_east * cu * ci, out=vel[..., :2])
        np.multiply(rn * cu, si, out=vel[..., 2:])
        return vel

    def _angle(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """t minus each epoch, then cos and sin of the argument of latitude
        at t. Those two carry a trailing axis of one, against the (n, 1)
        columns of radius and inclination."""
        dt = t - self.epoch
        u = (self.phase_at_epoch + self.mean_motion * dt)[..., None]
        return dt, np.cos(u), np.sin(u)

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """orbit_radius, cos_inc and sin_inc as (n, 1) columns."""
        return self.orbit_radius[:, None], self.cos_inc[:, None], self.sin_inc[:, None]

    def positions(self, t: float | np.ndarray) -> np.ndarray:
        """Positions as evaluate() gives them; raises StaleEphemerisError
        naming the first stale satellite, in row-major order of the cells."""
        pos, stale = self.evaluate(t)
        if stale.any():
            cell = np.unravel_index(np.argmax(stale), stale.shape)
            raise self.stale_error(np.broadcast_to(t, stale.shape)[cell], cell[-1])
        return pos

    def stale_error(self, t: float, i: int) -> StaleEphemerisError:
        """The error for satellite row i evaluated at absolute GPS time t."""
        return _stale_error(self.sat_id[i], t - self.epoch[i], self.validity[i])


def propagate(eph: EphemerisRecord, t: float) -> SatState:
    """Satellite ECI state at absolute GPS time t, as a one-record Orbits
    gives it; raises StaleEphemerisError outside the validity window."""
    orbit = Orbits.of([eph])
    return SatState(orbit.positions(t)[0], orbit.velocities(t)[0])


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

    sat_pos is one position (3,) or one per row (n, 3), and user_pos one
    position (3,); both may carry leading axes that broadcast, such as
    (m, n, 3) against (m, 1, 3). Every element is computed exactly as a
    single call would compute it.
    """
    user_pos = np.asarray(user_pos, float)
    up = user_pos / np.sqrt(np.vecdot(user_pos, user_pos))[..., None]
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
_INCLINATION = math.radians(55.0)


def default_constellation(
    user_pos: np.ndarray, t0: float, n_sats: int = 8
) -> list[EphemerisRecord]:
    """Deterministic constellation visible from user_pos at epoch t0.

    Satellites are assigned azimuth/elevation slots spread around the local
    sky; each orbit plane (GPS radius, 55 degrees inclination, default
    validity) is then solved so the satellite sits exactly on its slot at
    t0. Slots near the pole raise the plane inclination just enough to
    reach them. Alternate satellites fly the descending branch so velocity
    directions vary across the sky.
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
        los = (
            math.cos(el) * (math.sin(az) * east + math.cos(az) * north)
            + math.sin(el) * up
        )
        # Distance along the line of sight to the orbit sphere.
        b = float(user @ los)
        d = -b + math.sqrt(b * b + GPS_ORBIT_RADIUS_M**2 - float(user @ user))
        point = (user + d * los) / GPS_ORBIT_RADIUS_M
        lat = math.asin(max(-1.0, min(1.0, point[2])))
        lon = math.atan2(point[1], point[0])
        inc = max(_INCLINATION, min(abs(lat) + 0.03, math.pi / 2))
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
            )
        )
    return sats
