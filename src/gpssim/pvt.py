"""Pseudorange navigation solution via Gauss-Newton least squares.

Unknowns are ECEF position plus the receiver clock bias expressed in meters.
The measurement model for satellite i at position s_i is

    rho_i = |s_i - x| + b

so any error common to every pseudorange is absorbed by b and leaves the
position untouched.

Each Gauss-Newton step solves the normal equations J^T J s = J^T r by a
4x4 Cholesky factor in Python floats, without LAPACK, when the factor
certifies the geometry: sqrt(trace(J^T J) * trace((J^T J)^-1)), an upper
bound on cond(J), must be at most 1e3 (and at most the solve's
condition_cap on its first iteration). Squaring cond(J) then costs at most
about 2e-10 of the step's relative accuracy. A step the bound does not
certify falls back to np.linalg.lstsq, whose condition-cap and rank checks
raise GeometryError for degenerate geometry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# Largest design-matrix condition number a solve accepts; the scenario
# harness rejects geometry past the same cap up front.
CONDITION_CAP = 1e8
# Largest bound on cond(J) that certifies a normal-equations step: the
# step's relative error is then near cond**2 * eps, about 2e-10 at most.
# Every fix of the benchmark workloads reads under 60. At a limit of 1e5
# (2e-6), 10 in 20,000 cold-start solves with four or five satellites took
# another number of iterations than with lstsq steps alone; at 1e3, 1 did.
_COND_LIMIT = 1e3
# Relative margin on the bound's square for the rounding of its own
# computation.
_BOUND_MARGIN = 1e-3


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


def _normal_step(m: list[list[float]], limit: float) -> np.ndarray | None:
    """The Gauss-Newton step from the normal equations N s = J^T r, when
    their conditioning is certified; else None.

    m is aug.T @ aug as nested lists, aug = [J | r], so N is its leading
    4x4 block and J^T r its last column. The step comes from N's Cholesky
    factor L in Python floats. The same factor gives trace(N^-1) as the
    squared Frobenius norm of L^-1, and sqrt(trace(N) * trace(N^-1)) >=
    cond(J). The step is certified when that bound, with a relative margin
    for its own rounding, is at most limit; a factor that fails (a pivot
    not positive, or not a number) certifies nothing.
    """
    (n00, n01, n02, n03, g0), (_, n11, n12, n13, g1), (_, _, n22, n23, g2), (
        _, _, _, n33, g3
    ) = m[:4]
    try:
        l00 = math.sqrt(n00)
        l10, l20, l30 = n01 / l00, n02 / l00, n03 / l00
        l11 = math.sqrt(n11 - l10 * l10)
        l21, l31 = (n12 - l20 * l10) / l11, (n13 - l30 * l10) / l11
        l22 = math.sqrt(n22 - l20 * l20 - l21 * l21)
        l32 = (n23 - l30 * l20 - l31 * l21) / l22
        l33 = math.sqrt(n33 - l30 * l30 - l31 * l31 - l32 * l32)
        # The inverse factor W = L^-1, lower triangular.
        w00, w11, w22, w33 = 1.0 / l00, 1.0 / l11, 1.0 / l22, 1.0 / l33
        w10 = -l10 * w00 * w11
        w21 = -l21 * w11 * w22
        w32 = -l32 * w22 * w33
        w20 = -(l20 * w00 + l21 * w10) * w22
        w31 = -(l31 * w11 + l32 * w21) * w33
        w30 = -(l30 * w00 + l31 * w10 + l32 * w20) * w33
    except (ValueError, ZeroDivisionError):  # sqrt of a negative, or a zero pivot
        return None
    trace_inv = (
        w00 * w00 + w11 * w11 + w22 * w22 + w33 * w33 + w10 * w10 + w21 * w21
        + w32 * w32 + w20 * w20 + w31 * w31 + w30 * w30
    )
    if not math.sqrt((n00 + n11 + n22 + n33) * trace_inv * (1.0 + _BOUND_MARGIN)) <= limit:
        return None
    # L y = J^T r, then L^T s = y.
    y0 = g0 / l00
    y1 = (g1 - l10 * y0) / l11
    y2 = (g2 - l20 * y0 - l21 * y1) / l22
    y3 = (g3 - l30 * y0 - l31 * y1 - l32 * y2) / l33
    s3 = y3 / l33
    s2 = (y2 - l32 * s3) / l22
    s1 = (y1 - l21 * s2 - l31 * s3) / l11
    s0 = (y0 - l10 * s1 - l20 * s2 - l30 * s3) / l00
    return np.array((s0, s1, s2, s3))


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
    initial_guess is a position (3,) or a position and bias (4,); without
    one the iteration starts at the Earth's centre with zero bias.
    Converges when the position update norm drops below tol_m; a run that
    exhausts max_iterations comes back with converged=False and the last
    iterate.

    Each step solves the normal equations J^T J s = J^T r by a 4x4 Cholesky
    factor when their conditioning is certified: the factor's bound
    sqrt(trace(J^T J) * trace((J^T J)^-1)) >= cond(J) is at most
    min(condition_cap, 1e3) on the first iteration and at most 1e3 after
    it, so the step's relative error stays near cond**2 * eps, about 2e-10
    at most. Otherwise that step comes from np.linalg.lstsq, and the solve
    raises GeometryError on the first iteration when lstsq's cond(J)
    exceeds condition_cap, and on any iteration when J is rank-deficient.
    A certified step cannot meet either condition.
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
    if not np.isfinite(sat_positions).all():
        raise ValueError("sat_positions must be finite")

    state = np.zeros(4)
    if initial_guess is not None:
        guess = np.asarray(initial_guess, float).ravel()
        if len(guess) not in (3, 4):
            raise ValueError("initial_guess must have 3 or 4 components")
        if not all(map(math.isfinite, guess.tolist())):
            raise ValueError("initial_guess must be finite")
        state[: len(guess)] = guess

    iterations = 0
    converged = False
    limit = min(condition_cap, _COND_LIMIT)
    # One buffer [J | r], filled each iterate from that iterate's line of
    # sight, which also gives its residual.
    aug = np.empty((len(rho), 5))
    aug[:, 3] = 1.0
    los, ranges = _line_of_sight(state[:3], sat_positions)
    residual = rho - ranges - state[3]
    for iterations in range(1, max_iterations + 1):
        _fill_design(aug, los, ranges)
        aug[:, 4] = residual
        step = _normal_step(aug.T.dot(aug).tolist(), limit)
        if step is None:
            step, _, rank, s = np.linalg.lstsq(aug[:, :4], residual, rcond=None)
            if iterations == 1:
                # np.linalg.cond(J) but for the last bits (another SVD): the
                # ratio of extreme singular values, infinite for a singular
                # matrix. lstsq returns them descending.
                cond = s[0] / s[-1] if s[-1] else math.inf
                if cond > condition_cap:
                    raise GeometryError("design matrix condition number exceeds cap")
            if rank < 4:
                raise GeometryError("rank-deficient geometry")
        limit = _COND_LIMIT
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
