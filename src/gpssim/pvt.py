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


# Largest design-matrix condition number a solve accepts; the scenario
# harness rejects geometry past the same cap up front.
CONDITION_CAP = 1e8


class InsufficientSatellitesError(ValueError):
    """Fewer measurements than unknowns."""


class GeometryError(ValueError):
    """Satellite geometry too degenerate to invert."""


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


def _line_of_sight(
    position: np.ndarray, sat_positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectors from position to each satellite, and their lengths.

    The lengths are what np.linalg.norm(los, axis=1) computes.
    """
    los = sat_positions - position
    return los, np.sqrt(np.add.reduce(los * los, axis=1))


def _fill_design(jac: np.ndarray, los: np.ndarray, ranges: np.ndarray) -> None:
    """Write the first three columns of design_matrix's rows, for the line
    of sight (los, ranges), into jac."""
    if not ranges.all():
        raise GeometryError("linearization point coincides with a satellite")
    # los / -r is bitwise -(los / r): IEEE division is sign-symmetric.
    np.divide(los, -ranges[:, None], out=jac[:, :3])


def design_matrix(position: np.ndarray, sat_positions: np.ndarray) -> np.ndarray:
    """Jacobian of the measurement model at a linearization point.

    Row i is [-(unit vector to satellite i), 1]: the partial derivatives of
    |s_i - x| + b with respect to (x, b).
    """
    los, ranges = _line_of_sight(
        np.asarray(position, float), np.asarray(sat_positions, float)
    )
    jac = np.empty((len(los), 4))
    _fill_design(jac, los, ranges)
    jac[:, 3] = 1.0
    return jac


def solve(
    pseudoranges_m: np.ndarray,
    sat_positions: np.ndarray,
    initial_guess: np.ndarray | None = None,
    *,
    tol_m: float = 1e-4,
    max_iterations: int = 20,
    condition_cap: float = CONDITION_CAP,
) -> PvtSolution:
    """Gauss-Newton position/bias solution from pseudoranges.

    pseudoranges_m is a 1-D array; sat_positions rows pair with it by index.
    Converges when the position update norm drops below tol_m; a run that
    exhausts max_iterations comes back with converged=False and the last
    iterate.
    """
    rho = np.asarray(pseudoranges_m, float)
    if rho.ndim != 1:
        raise ValueError("pseudoranges_m must be a 1-D array")
    if len(rho) < 4:
        raise InsufficientSatellitesError(f"{len(rho)} measurements; need at least 4")
    # NaN fails the first comparison. The reductions are rho.min() and
    # rho.max() without their Python wrapper.
    if not (0 <= np.minimum.reduce(rho) and np.maximum.reduce(rho) < math.inf):
        raise ValueError("pseudorange must be finite and non-negative")
    sat_positions = np.asarray(sat_positions, float)
    if sat_positions.shape != (len(rho), 3):
        raise ValueError("sat_positions must be (n, 3) matching measurements")

    state = np.zeros(4)
    if initial_guess is not None:
        guess = np.asarray(initial_guess, float).ravel()
        state[: len(guess)] = guess

    iterations = 0
    converged = False
    # One Jacobian buffer, filled each iterate from that iterate's line of
    # sight, which also gives its residual.
    jac = np.empty((len(rho), 4))
    jac[:, 3] = 1.0
    los, ranges = _line_of_sight(state[:3], sat_positions)
    residual = rho - ranges - state[3]
    for iterations in range(1, max_iterations + 1):
        _fill_design(jac, los, ranges)
        step, _, rank, s = np.linalg.lstsq(jac, residual, rcond=None)
        if iterations == 1:
            # np.linalg.cond(jac): the ratio of extreme singular values,
            # infinite for a singular matrix. lstsq returns them descending.
            cond = s[0] / s[-1] if s[-1] else math.inf
            if cond > condition_cap:
                raise GeometryError("design matrix condition number exceeds cap")
        if rank < 4:
            raise GeometryError("rank-deficient geometry")
        state += step
        los, ranges = _line_of_sight(state[:3], sat_positions)
        residual = rho - ranges - state[3]
        # Both norms are np.linalg.norm's own formula for a vector.
        move = step[:3]
        if math.sqrt(move.dot(move)) < tol_m:
            converged = True
            break

    return PvtSolution(
        state[0],
        state[1],
        state[2],
        state[3],
        iterations,
        math.sqrt(residual.dot(residual)),
        converged,
    )


def enu_basis(ref_ecef: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """East/north/up unit vectors of the tangent plane at ref_ecef.

    Up is the geocentric radial; nothing else in the simulator models an
    ellipsoid, so neither does the error frame. One point (3,) gives three
    (3,) vectors; (m, 3) rows give three (m, 3) arrays, each row the basis
    of that row alone.
    """
    ref = np.asarray(ref_ecef, float)
    # Both norms are np.linalg.norm's own formula for a vector.
    up = ref / np.sqrt(np.vecdot(ref, ref))[..., None]
    # Both cross products are written out in np.cross's component formula,
    # zero terms included, so every bit (signed zeros too) matches it.
    ux, uy, uz = up.T
    east = np.stack([0.0 * uz - 1.0 * uy, 1.0 * ux - 0.0 * uz, 0.0 * uy - 0.0 * ux], -1)
    n = np.sqrt(np.vecdot(east, east))
    # A polar reference has an arbitrary east: pick +x.
    polar = n < 1e-12
    east /= np.where(polar, 1.0, n)[..., None]
    east[polar] = (1.0, 0.0, 0.0)
    ex, ey, ez = east.T
    north = np.stack([uy * ez - uz * ey, uz * ex - ux * ez, ux * ey - uy * ex], -1)
    return east, north, up


def enu_errors(
    position: np.ndarray, truth_ecef: np.ndarray
) -> tuple[float, float, float] | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(east, north, up) components of position - truth.

    One truth point (3,) gives three floats; (m, 3) truth rows give three
    (m,) arrays, against one position or (m, 3) rows of them. Each element
    is bitwise its row's one-point call.
    """
    truth = np.asarray(truth_ecef, float)
    delta = np.asarray(position, float) - truth
    errors = tuple(np.vecdot(delta, axis) for axis in enu_basis(truth))
    if truth.ndim == 1:
        return tuple(map(float, errors))
    return errors


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
