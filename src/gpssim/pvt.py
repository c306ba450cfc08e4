"""Pseudorange navigation solution via Gauss-Newton least squares.

Unknowns are ECEF position plus the receiver clock bias expressed in meters.
The measurement model for satellite i at position s_i is

    rho_i = |s_i - x| + b

so any error common to every pseudorange is absorbed by b and leaves the
position untouched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rx_clock import GpsTime


class InsufficientSatellitesError(ValueError):
    """Fewer measurements than unknowns."""


class GeometryError(ValueError):
    """Satellite geometry too degenerate to invert."""


@dataclass(frozen=True)
class PseudorangeMeasurement:
    """One satellite's pseudorange; `solve` reads only `rho_m`.

    The transmit and receive times are optional bookkeeping.
    """

    sat_id: int
    rho_m: float
    t_transmit: GpsTime | None = None
    t_receive_rx: GpsTime | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.rho_m) or self.rho_m < 0:
            raise ValueError("pseudorange must be finite and non-negative")


@dataclass(frozen=True)
class PvtSolution:
    x_u: float
    y_u: float
    z_u: float
    b_u: float
    iterations: int
    residual_norm: float
    converged: bool

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x_u, self.y_u, self.z_u])


def design_matrix(position: np.ndarray, sat_positions: np.ndarray) -> np.ndarray:
    """Jacobian of the measurement model at a linearization point.

    Row i is [-(unit vector to satellite i), 1]: the partial derivatives of
    |s_i - x| + b with respect to (x, b).
    """
    sat_positions = np.asarray(sat_positions, float)
    los = sat_positions - np.asarray(position, float)
    ranges = np.linalg.norm(los, axis=1)
    if np.any(ranges == 0):
        raise GeometryError("linearization point coincides with a satellite")
    jac = np.empty((len(sat_positions), 4))
    jac[:, :3] = -los / ranges[:, None]
    jac[:, 3] = 1.0
    return jac


def solve(
    measurements: list[PseudorangeMeasurement],
    sat_positions: np.ndarray,
    initial_guess: np.ndarray | None = None,
    *,
    tol_m: float = 1e-4,
    max_iterations: int = 20,
    condition_cap: float = 1e8,
) -> PvtSolution:
    """Gauss-Newton position/bias solution from pseudoranges.

    sat_positions rows pair with measurements by index. Converges when the
    position update norm drops below tol_m; a run that exhausts
    max_iterations comes back with converged=False and the last iterate.
    """
    if len(measurements) < 4:
        raise InsufficientSatellitesError(
            f"{len(measurements)} measurements; need at least 4"
        )
    sat_positions = np.asarray(sat_positions, float)
    if sat_positions.shape != (len(measurements), 3):
        raise ValueError("sat_positions must be (n, 3) matching measurements")
    rho = np.array([m.rho_m for m in measurements])

    state = np.zeros(4)
    if initial_guess is not None:
        guess = np.asarray(initial_guess, float).ravel()
        state[: len(guess)] = guess

    iterations = 0
    converged = False
    residual = rho - np.linalg.norm(sat_positions - state[:3], axis=1) - state[3]
    for iterations in range(1, max_iterations + 1):
        jac = design_matrix(state[:3], sat_positions)
        if iterations == 1 and np.linalg.cond(jac) > condition_cap:
            raise GeometryError("design matrix condition number exceeds cap")
        step, _, rank, _ = np.linalg.lstsq(jac, residual, rcond=None)
        if rank < 4:
            raise GeometryError("rank-deficient geometry")
        state += step
        residual = rho - np.linalg.norm(sat_positions - state[:3], axis=1) - state[3]
        if np.linalg.norm(step[:3]) < tol_m:
            converged = True
            break

    return PvtSolution(
        state[0],
        state[1],
        state[2],
        state[3],
        iterations,
        float(np.linalg.norm(residual)),
        converged,
    )


def enu_basis(ref_ecef: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """East/north/up unit vectors of the tangent plane at ref_ecef.

    Up is the geocentric radial; nothing else in the simulator models an
    ellipsoid, so neither does the error frame.
    """
    ref = np.asarray(ref_ecef, float)
    up = ref / np.linalg.norm(ref)
    # Both cross products are written out in np.cross's component formula,
    # zero terms included, so every bit (signed zeros too) matches it.
    ux, uy, uz = up.tolist()
    east = np.array([0.0 * uz - 1.0 * uy, 1.0 * ux - 0.0 * uz, 0.0 * uy - 0.0 * ux])
    n = np.linalg.norm(east)
    if n < 1e-12:  # polar reference: east is arbitrary, pick +x
        east = np.array([1.0, 0.0, 0.0])
    else:
        east = east / n
    ex, ey, ez = east.tolist()
    north = np.array([uy * ez - uz * ey, uz * ex - ux * ez, ux * ey - uy * ex])
    return east, north, up


def enu_errors(position: np.ndarray, truth_ecef: np.ndarray) -> tuple[float, float, float]:
    """(east, north, up) components of position - truth."""
    east, north, up = enu_basis(truth_ecef)
    delta = np.asarray(position, float) - np.asarray(truth_ecef, float)
    return float(delta @ east), float(delta @ north), float(delta @ up)


def horizontal_error(solution: PvtSolution | np.ndarray, truth_ecef: np.ndarray) -> float:
    """2D error in the local tangent plane at the truth point, meters."""
    pos = solution.position if isinstance(solution, PvtSolution) else solution
    e, n, _ = enu_errors(pos, truth_ecef)
    return math.hypot(e, n)


def rms_2d(errors_m) -> float:
    """Root-mean-square of a horizontal error series."""
    arr = np.asarray(list(errors_m), float)
    if arr.size == 0:
        raise ValueError("empty error series")
    return float(np.sqrt(np.mean(arr**2)))
