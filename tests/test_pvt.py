"""Navigation solver tests.

Every solver case is forward-modeled: pick a truth position and bias,
generate the exact pseudoranges |s_i - x| + b, then require the solver to
find the truth again. The Jacobian is checked against central finite
differences rather than a second analytic derivation.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpssim import pvt
from gpssim.constants import GPS_ORBIT_RADIUS_M

TRUTH = np.array([-1266643.136, -4727176.539, 4079014.032])


def _sat_positions(n, radius=GPS_ORBIT_RADIUS_M, seed=0):
    """n satellite positions spread over the sky above TRUTH."""
    rng = np.random.default_rng(seed)
    east, north, up = pvt.enu_basis(TRUTH)
    out = []
    for k in range(n):
        az = 2 * math.pi * k / n + rng.uniform(0, 0.3)
        el = math.radians(rng.uniform(25.0, 80.0))
        los = (
            math.cos(el) * (math.sin(az) * east + math.cos(az) * north)
            + math.sin(el) * up
        )
        b = TRUTH @ los
        d = -b + math.sqrt(b * b + radius**2 - TRUTH @ TRUTH)
        out.append(TRUTH + d * los)
    return np.array(out)


def _measurements(sat_positions, truth=TRUTH, bias_m=0.0, noise=None):
    rho = np.linalg.norm(sat_positions - truth, axis=1) + bias_m
    if noise is not None:
        rho = rho + noise
    return rho


def test_negative_pseudorange_rejected():
    """Negative, NaN and infinite pseudoranges at any position; zero is fine."""
    sats = _sat_positions(6)
    for bad in (-5.0, -1e-300, math.nan, math.inf, -math.inf):
        for at in (0, 3, 5):
            rho = _measurements(sats)
            rho[at] = bad
            with pytest.raises(ValueError, match="must be finite and non-negative"):
                pvt.solve(rho, sats)
    rho = _measurements(sats)
    rho[2] = 0.0
    assert pvt.solve(rho, sats, max_iterations=1).iterations == 1


def test_pseudoranges_must_be_one_dimensional():
    sats = _sat_positions(4)
    with pytest.raises(ValueError, match="1-D"):
        pvt.solve(_measurements(sats)[:, None], sats)


class TestSolve:
    def test_four_satellites_exact_recovery(self):
        sats = _sat_positions(4)
        sol = pvt.solve(_measurements(sats, bias_m=299_792.458), sats)
        assert sol.converged
        assert np.allclose(sol.position, TRUTH, atol=1e-3)
        assert sol.b_u == pytest.approx(299_792.458, abs=1e-3)
        assert sol.residual_norm < 1e-3

    def test_forward_model_trials_recover_truth(self):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            sats = _sat_positions(rng.integers(4, 9), seed=trial)
            truth = TRUTH + rng.uniform(-2e5, 2e5, 3)
            bias = rng.uniform(-1e6, 1e6)
            rho = np.linalg.norm(sats - truth, axis=1) + bias
            sol = pvt.solve(rho, sats)
            assert sol.converged
            assert sol.iterations <= 10
            assert np.linalg.norm(sol.position - truth) < 1e-3
            assert abs(sol.b_u - bias) < 1e-3

    def test_converges_from_cold_origin_guess(self):
        sats = _sat_positions(6)
        sol = pvt.solve(_measurements(sats), sats, initial_guess=None)
        assert sol.converged
        assert np.allclose(sol.position, TRUTH, atol=1e-3)

    def test_warm_guess_converges_faster(self):
        sats = _sat_positions(6)
        meas = _measurements(sats)
        cold = pvt.solve(meas, sats)
        warm = pvt.solve(meas, sats, initial_guess=TRUTH + 10.0)
        assert warm.iterations <= cold.iterations
        assert warm.iterations <= 3

    def test_overdetermined_noise_leaves_residual(self):
        rng = np.random.default_rng(5)
        sats = _sat_positions(8)
        sol = pvt.solve(_measurements(sats, noise=rng.normal(0, 1.0, 8)), sats)
        assert sol.converged
        assert sol.residual_norm > 0.0

    def test_redundancy_beats_minimum_set_on_average(self):
        """Monte-Carlo: identical 1 m noise, 8 satellites vs their first 4."""
        rng = np.random.default_rng(77)
        err8, err4 = [], []
        for trial in range(200):
            sats = _sat_positions(8, seed=1000 + trial)
            noise = rng.normal(0.0, 1.0, 8)
            m8 = _measurements(sats, noise=noise)
            sol8 = pvt.solve(m8, sats)
            sol4 = pvt.solve(m8[:4], sats[:4])
            err8.append(np.linalg.norm(sol8.position - TRUTH))
            err4.append(np.linalg.norm(sol4.position - TRUTH))
        assert np.mean(err8) < np.mean(err4)

    def test_insufficient_satellites(self):
        sats = _sat_positions(4)
        with pytest.raises(pvt.InsufficientSatellitesError):
            pvt.solve(_measurements(sats)[:3], sats[:3])

    def test_shape_mismatch(self):
        sats = _sat_positions(5)
        with pytest.raises(ValueError):
            pvt.solve(_measurements(sats), sats[:4])

    def test_collinear_geometry_raises(self):
        base = TRUTH * (GPS_ORBIT_RADIUS_M / np.linalg.norm(TRUTH))
        sats = np.array([base * (1 + 1e-4 * k) for k in range(4)])
        meas = _measurements(sats)
        with pytest.raises(pvt.GeometryError):
            pvt.solve(meas, sats, initial_guess=TRUTH)

    def test_unconverged_run_is_flagged(self):
        sats = _sat_positions(5)
        sol = pvt.solve(_measurements(sats), sats, max_iterations=1)
        assert not sol.converged
        assert sol.iterations == 1


def test_design_matrix_matches_finite_differences():
    sats = _sat_positions(6)
    x0 = TRUTH + np.array([100.0, -50.0, 20.0])
    jac = pvt.design_matrix(x0, sats)
    h = 0.5

    def model(state):
        return np.linalg.norm(sats - state[:3], axis=1) + state[3]

    for col in range(4):
        step = np.zeros(4)
        step[col] = h
        fd = (model(np.append(x0, 0.0) + step) - model(np.append(x0, 0.0) - step)) / (
            2 * h
        )
        assert np.allclose(jac[:, col], fd, rtol=1e-6, atol=1e-9)


def test_design_matrix_rejects_colocated_satellite():
    with pytest.raises(pvt.GeometryError):
        pvt.design_matrix(TRUTH, np.array([TRUTH]))


# --- the solver against its earlier form ---------------------------------------------
# ref_design_matrix and ref_solve are the solver as it was before each iterate
# computed its line of sight once and the condition number came from the
# singular values lstsq returns: np.linalg.norm and np.linalg.cond.


def ref_design_matrix(position, sat_positions):
    sat_positions = np.asarray(sat_positions, float)
    los = sat_positions - np.asarray(position, float)
    ranges = np.linalg.norm(los, axis=1)
    if np.any(ranges == 0):
        raise pvt.GeometryError("linearization point coincides with a satellite")
    jac = np.empty((len(sat_positions), 4))
    jac[:, :3] = -los / ranges[:, None]
    jac[:, 3] = 1.0
    return jac


def ref_solve(
    rho,
    sat_positions,
    initial_guess=None,
    *,
    tol_m=1e-4,
    max_iterations=20,
    condition_cap=1e8,
):
    if len(rho) < 4:
        raise pvt.InsufficientSatellitesError(f"{len(rho)} measurements; need at least 4")
    sat_positions = np.asarray(sat_positions, float)
    if sat_positions.shape != (len(rho), 3):
        raise ValueError("sat_positions must be (n, 3) matching measurements")
    state = np.zeros(4)
    if initial_guess is not None:
        guess = np.asarray(initial_guess, float).ravel()
        state[: len(guess)] = guess
    iterations = 0
    converged = False
    residual = rho - np.linalg.norm(sat_positions - state[:3], axis=1) - state[3]
    for iterations in range(1, max_iterations + 1):
        jac = ref_design_matrix(state[:3], sat_positions)
        if iterations == 1 and np.linalg.cond(jac) > condition_cap:
            raise pvt.GeometryError("design matrix condition number exceeds cap")
        step, _, rank, _ = np.linalg.lstsq(jac, residual, rcond=None)
        if rank < 4:
            raise pvt.GeometryError("rank-deficient geometry")
        state += step
        residual = rho - np.linalg.norm(sat_positions - state[:3], axis=1) - state[3]
        if np.linalg.norm(step[:3]) < tol_m:
            converged = True
            break
    return pvt.PvtSolution(
        state[0], state[1], state[2], state[3], iterations,
        float(np.linalg.norm(residual)), converged,
    )


def _outcome(fn, *args, **kwargs):
    """repr of the result (exact for every float), or the exception raised."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))


def _geometry(n, seed, kind):
    """Satellite rows: spread, repeated (singular), nearly collinear, or one
    satellite placed on the initial guess."""
    sats = _sat_positions(n, seed=seed)
    if kind == "repeated":
        sats[1:] = sats[0]
    elif kind == "collinear":
        base = TRUTH * (GPS_ORBIT_RADIUS_M / np.linalg.norm(TRUTH))
        sats = np.array([base * (1 + 1e-4 * k) for k in range(n)])
    elif kind == "two_planes":
        sats[n // 2 :] = sats[0] + (sats[n // 2 :] - sats[0]) * 1e-9
    return sats


@given(
    n=st.integers(4, 12),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["spread", "spread", "repeated", "collinear", "two_planes", "on_guess"]),
    offset=st.tuples(*[st.floats(-3e5, 3e5)] * 3),
    bias=st.floats(-3e5, 3e5),
    noise=st.floats(0.0, 50.0),
    guess=st.sampled_from(["none", "origin", "truth3", "truth4"]),
    max_iterations=st.integers(1, 20),
    condition_cap=st.sampled_from([1e8, 1e8, 1e8, 1e3, 10.0]),
    tol_m=st.sampled_from([1e-4, 1e-4, 1.0, 0.0]),
)
@settings(max_examples=300, deadline=None)
def test_solve_equals_reference(
    n, seed, kind, offset, bias, noise, guess, max_iterations, condition_cap, tol_m
):
    """Bit-identical PvtSolution, or the same GeometryError, as ref_solve."""
    sats = _geometry(n, seed, kind)
    truth = TRUTH + np.array(offset)
    rng = np.random.default_rng(seed)
    meas = _measurements(sats, truth, bias, rng.normal(0.0, noise + 1e-300, n))
    initial = {
        "none": None,
        "origin": np.zeros(4),
        "truth3": TRUTH.copy(),
        "truth4": np.append(TRUTH, bias),
    }[guess]
    if kind == "on_guess":
        sats[0] = np.zeros(3) if guess in ("none", "origin") else TRUTH
    kwargs = dict(max_iterations=max_iterations, condition_cap=condition_cap, tol_m=tol_m)
    expected = _outcome(ref_solve, meas, sats, initial, **kwargs)
    assert _outcome(pvt.solve, meas, sats, initial, **kwargs) == expected


@pytest.mark.parametrize("kind", ["repeated", "collinear", "on_guess"])
def test_singular_geometry_raises_geometry_error_like_reference(kind):
    sats = _geometry(6, 1, "spread" if kind == "on_guess" else kind)
    if kind == "on_guess":
        sats[2] = TRUTH
    meas = _measurements(_sat_positions(6))
    expected = _outcome(ref_solve, meas, sats, TRUTH)
    assert expected[0] is pvt.GeometryError
    assert _outcome(pvt.solve, meas, sats, TRUTH) == expected


@given(seed=st.integers(0, 2**16), n=st.integers(1, 12), scale=st.floats(1e-3, 1e8))
@settings(max_examples=100, deadline=None)
def test_design_matrix_equals_reference(seed, n, scale):
    rng = np.random.default_rng(seed)
    sats = rng.normal(size=(n, 3)) * scale
    x = rng.normal(size=3) * scale
    assert pvt.design_matrix(x, sats).tobytes() == ref_design_matrix(x, sats).tobytes()


# --- error frames ------------------------------------------------------------------


def test_enu_basis_is_orthonormal_and_right_handed():
    east, north, up = pvt.enu_basis(TRUTH)
    for v in (east, north, up):
        assert np.linalg.norm(v) == pytest.approx(1.0)
    assert east @ north == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(np.cross(east, north), up)
    assert east[2] == 0.0  # east has no vertical component


def _enu_basis_reference(ref):
    up = ref / np.linalg.norm(ref)
    east = np.cross([0.0, 0.0, 1.0], up)
    n = np.linalg.norm(east)
    east = np.array([1.0, 0.0, 0.0]) if n < 1e-12 else east / n
    return east, np.cross(up, east), up


def test_enu_basis_equals_cross_product_reference():
    rng = np.random.default_rng(5)
    refs = list(rng.normal(0.0, 6.4e6, (500, 3)))
    refs += [TRUTH, np.array([0.0, 0.0, 6.4e6]), np.array([0.0, 0.0, -6.4e6]),
             np.array([-6.4e6, -0.0, 0.0]), np.array([0.0, -6.4e6, 1.0])]
    for ref in refs:
        for got, want in zip(pvt.enu_basis(ref), _enu_basis_reference(ref)):
            assert got.tobytes() == want.tobytes()  # signed zeros included


def test_enu_errors_three_four_five():
    east, north, _ = pvt.enu_basis(TRUTH)
    pos = TRUTH + 3.0 * east + 4.0 * north
    e, n, u = pvt.enu_errors(pos, TRUTH)
    assert (e, n) == (pytest.approx(3.0), pytest.approx(4.0))
    assert u == pytest.approx(0.0, abs=1e-9)
    assert pvt.horizontal_error(pos, TRUTH) == pytest.approx(5.0)


def test_vertical_offset_has_no_horizontal_error():
    _, _, up = pvt.enu_basis(TRUTH)
    assert pvt.horizontal_error(TRUTH + 12.0 * up, TRUTH) == pytest.approx(0.0, abs=1e-9)


def test_horizontal_error_accepts_solution_objects():
    sats = _sat_positions(5)
    sol = pvt.solve(_measurements(sats), sats)
    assert pvt.horizontal_error(sol, TRUTH) < 1e-3


def test_rms_2d_values():
    assert pvt.rms_2d([5.0]) == 5.0
    assert pvt.rms_2d([1.0, 1.0]) == pytest.approx(1.0)
    assert pvt.rms_2d([0.0, 2.0]) == pytest.approx(math.sqrt(2.0))
    assert pvt.rms_2d([0.0, 0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        pvt.rms_2d([])
