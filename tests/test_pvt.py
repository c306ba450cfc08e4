"""Navigation solver tests.

Every solver case is forward-modeled: pick a truth position and bias,
generate the exact pseudoranges |s_i - x| + b, then require the solver to
find the truth again. The Jacobian is checked against central finite
differences rather than a second analytic derivation.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpssim import pvt
from gpssim import simharness as sh
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
# computed its line of sight once, the condition number came from the
# singular values lstsq returns, and a certified step came from the normal
# equations: np.linalg.norm, np.linalg.cond and np.linalg.lstsq each step.


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
    step_norms=None,
):
    """step_norms, a list, receives the length of each step's position part."""
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
        if step_norms is not None:
            step_norms.append(np.linalg.norm(step[:3]))
        if np.linalg.norm(step[:3]) < tol_m:
            converged = True
            break
    return pvt.PvtSolution(
        state[0], state[1], state[2], state[3], iterations,
        float(np.linalg.norm(residual)), converged,
    )


def _outcome(fn, *args, **kwargs):
    """The result, or the exception raised as (type, message)."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))


def _solve_counting_lstsq(*args, **kwargs):
    """pvt.solve's outcome and how many of its steps came from lstsq."""
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        return _outcome(pvt.solve, *args, **kwargs), lstsq.call_count


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


# A certified normal-equations step differs from lstsq's by about
# cond(J)**2 * eps of its length and of the residual's (see
# test_normal_step_stays_within_its_certificate). A solve, converged or
# stopped by max_iterations, lands within 1e-6 m plus 10 * cond(J0)**2 * eps
# of the distance ref_solve moved its state, J0 the design matrix at the
# initial guess: over 10,000 inputs drawn like test_solve_equals_reference's,
# 6,000 of them cold starts with four or five satellites, the largest
# difference in position, bias or residual_norm was under 0.04 of this bound.
# The bound holds only while the iterate stays near the Earth: an iterate
# that runs out past the constellation (beyond RAN_AWAY_M from the centre)
# magnifies a last-bit difference each step, or converges to the range
# equations' second root far out.
ABS_BOUND_M = 1e-6
EPS = np.finfo(float).eps
RAN_AWAY_M = 2 * GPS_ORBIT_RADIUS_M


def _state(sol):
    return np.array([sol.x_u, sol.y_u, sol.z_u, sol.b_u])


def _bound(expected, start, sat_positions):
    """The bound above, for ref_solve's solution from state start."""
    cond0 = np.linalg.cond(pvt.design_matrix(start[:3], sat_positions))
    return ABS_BOUND_M + 10 * cond0**2 * EPS * np.linalg.norm(_state(expected) - start)


def _equal_within(got, expected, bound):
    return (
        np.abs(_state(got) - _state(expected)).max() <= bound
        and abs(got.residual_norm - expected.residual_norm) <= bound
    )


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
# Cold starts on which the two step rules decide differently. Here ref_solve
# converges after 5 iterations, its fifth step 9.99967e-5 m against tol_m
# 1e-4, and pvt.solve's fifth step is 1.00004e-4 m, so it takes a sixth.
@example(
    n=5, seed=21876, kind="spread",
    offset=(158545.07086678757, -286067.4181943321, -290723.9551635706),
    bias=0.0, noise=1.9109801950429717, guess="none",
    max_iterations=20, condition_cap=1e8, tol_m=1e-4,
)
# Here ref_solve converges after 11 iterations to the second root, 5.97e8 m
# from the centre, and pvt.solve wanders there for all 20.
@example(
    n=4, seed=5208, kind="spread", offset=(0.0, 0.0, 0.0), bias=280576.7414680107,
    noise=0.0, guess="none", max_iterations=20, condition_cap=1e8, tol_m=1e-4,
)
def test_solve_equals_reference(
    n, seed, kind, offset, bias, noise, guess, max_iterations, condition_cap, tol_m
):
    """The same exception (type and text) as ref_solve, or a solution:
    bit-identical where lstsq made every step; else finite, and within the
    bound above with the same iterations and converged flag. The flag or
    count may differ only where ref_solve's step at the first iteration
    they part was within the bound of tol_m, and then the solutions may
    differ by tol_m more. An iterate that ran away is only required to have
    run away on both sides."""
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
    ref_steps = []
    expected = _outcome(ref_solve, meas, sats, initial, step_norms=ref_steps, **kwargs)
    got, lstsq_steps = _solve_counting_lstsq(meas, sats, initial, **kwargs)
    if isinstance(expected, tuple) or isinstance(got, tuple):
        assert got == expected
        return
    if lstsq_steps == got.iterations:
        assert repr(got) == repr(expected)
        return
    assert np.isfinite(_state(got)).all() and math.isfinite(got.residual_norm)
    if np.linalg.norm(_state(expected)[:3]) > RAN_AWAY_M:
        assert np.linalg.norm(_state(got)[:3]) > RAN_AWAY_M
        return
    start = np.zeros(4)
    if initial is not None:
        start[: len(initial)] = initial
    bound = _bound(expected, start, sats)
    if (got.iterations, got.converged) != (expected.iterations, expected.converged):
        parted = min(got.iterations, expected.iterations)
        assert abs(ref_steps[parted - 1] - tol_m) <= bound
        bound += tol_m
    assert _equal_within(got, expected, bound)


@given(
    n=st.integers(4, 12),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["spread", "two_planes", "collinear"]),
    at=st.sampled_from(["origin", "truth", "near", "far"]),
    residual_m=st.sampled_from([1e-3, 1.0, 50.0, 1e5, 1e7]),
)
@settings(max_examples=200, deadline=None)
def test_normal_step_stays_within_its_certificate(n, seed, kind, at, residual_m):
    """Where _normal_step certifies a step, it is lstsq's step to within
    10 * cond(J)**2 * eps of |step| + |r|. Over 10,000 steps certified at a
    limit of 1e5, the largest difference was 0.7 of cond(J)**2 * eps *
    (|step| + |r|)."""
    rng = np.random.default_rng(seed)
    point = {
        "origin": np.zeros(3),
        "truth": TRUTH,
        "near": TRUTH + rng.normal(0.0, 1e5, 3),
        "far": rng.normal(0.0, 1e8, 3),
    }[at]
    jac = pvt.design_matrix(point, _geometry(n, seed, kind))
    residual = rng.normal(0.0, residual_m, n)
    aug = np.column_stack([jac, residual])
    step = pvt._normal_step(aug.T.dot(aug).tolist(), pvt._COND_LIMIT)
    if step is None:
        return
    want = np.linalg.lstsq(jac, residual, rcond=None)[0]
    cond = np.linalg.cond(jac)
    assert cond <= pvt._COND_LIMIT
    bound = 10 * cond**2 * EPS * (np.linalg.norm(want) + np.linalg.norm(residual))
    assert np.linalg.norm(np.array(step) - want) <= bound


@pytest.mark.parametrize("kind", ["repeated", "collinear", "two_planes", "on_guess"])
def test_singular_geometry_raises_geometry_error_like_reference(kind):
    """ref_solve's exact GeometryError: from the line of sight for a
    satellite on the guess, else from the lstsq fallback, since no singular
    geometry certifies a normal-equations step."""
    sats = _geometry(6, 1, "spread" if kind == "on_guess" else kind)
    if kind == "on_guess":
        sats[2] = TRUTH
    meas = _measurements(_sat_positions(6))
    expected = _outcome(ref_solve, meas, sats, TRUTH)
    assert expected[0] is pvt.GeometryError
    got, lstsq_steps = _solve_counting_lstsq(meas, sats, TRUTH)
    assert got == expected
    assert (lstsq_steps > 0) == (kind != "on_guess")


@pytest.mark.parametrize("side", [1.0 + 1e-9, 1.0 - 1e-9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_condition_cap_edge_matches_reference(seed, side):
    """A cap just above or just below np.linalg.cond(J) decides like
    ref_solve. (Relative 1e-9, not one ulp: lstsq's singular values and
    np.linalg.cond's come from different SVDs and can differ in the last
    bits, as they did before the normal-equations step.)"""
    sats = _sat_positions(6, seed=seed)
    meas = _measurements(sats, bias_m=100.0)
    cap = np.linalg.cond(pvt.design_matrix(TRUTH, sats)) * side
    expected = _outcome(ref_solve, meas, sats, TRUTH, condition_cap=cap)
    assert isinstance(expected, tuple) == (side < 1.0)
    got, _ = _solve_counting_lstsq(meas, sats, TRUTH, condition_cap=cap)
    if side < 1.0:
        assert got == expected
    else:
        assert (got.iterations, got.converged) == (expected.iterations, expected.converged)
        start = np.append(TRUTH, 0.0)
        assert _equal_within(got, expected, _bound(expected, start, sats))


def test_default_scenario_needs_no_lstsq():
    """Every fix of the default scenario takes the normal-equations step."""
    with mock.patch.object(np.linalg, "lstsq", side_effect=AssertionError("lstsq called")):
        report = sh.run_scenario(sh.ScenarioConfig())
    assert all(arm.fixes for arm in report.arms.values())


def test_non_finite_satellite_position_rejected(capfd):
    """Named in a ValueError, before any LAPACK call could print to stderr."""
    sats = _sat_positions(6)
    meas = _measurements(sats)
    for bad in (math.nan, math.inf, -math.inf):
        sats_bad = sats.copy()
        sats_bad[3, 1] = bad
        with pytest.raises(ValueError, match="sat_positions must be finite"):
            pvt.solve(meas, sats_bad)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("size", [3, 4])
def test_non_finite_initial_guess_rejected(bad, size):
    sats = _sat_positions(6)
    guess = np.append(TRUTH, 0.0)[:size]
    guess[size - 1] = bad
    with pytest.raises(ValueError, match="initial_guess must be finite"):
        pvt.solve(_measurements(sats), sats, guess)


@pytest.mark.parametrize("size", [0, 1, 2, 5])
def test_initial_guess_needs_three_or_four_components(size):
    sats = _sat_positions(6)
    with pytest.raises(ValueError, match="initial_guess must have 3 or 4 components"):
        pvt.solve(_measurements(sats), sats, np.ones(size))


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
    rows = pvt.enu_basis(np.array(refs))
    for k, ref in enumerate(refs):
        for got, in_rows, want in zip(pvt.enu_basis(ref), rows, _enu_basis_reference(ref)):
            assert got.tobytes() == want.tobytes()  # signed zeros included
            assert in_rows[k].tobytes() == want.tobytes()


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


# Truth points on the polar axis, or within 1e-12 of it in east norm, where
# enu_basis picks +x for east; signed zeros included.
_POLAR = [
    (0.0, 0.0, 6.4e6),
    (0.0, -0.0, -6.4e6),
    (-0.0, 0.0, 6.4e6),
    (1e-6, -2e-6, 6.4e6),
]


@given(
    seed=st.integers(0, 2**16),
    m=st.integers(1, 40),
    speed=st.floats(0.0, 1000.0),
    offset=st.floats(1e-3, 1e5),
    polar=st.lists(st.sampled_from(range(len(_POLAR))), max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_enu_errors_rows_equal_one_point_calls(seed, m, speed, offset, polar):
    """enu_errors on (m, 3) rows gives, element by element, the floats of m
    one-point calls, bit for bit, and those of the cross-product reference
    basis with 1-D dot products: a user moving along a track, with polar
    truth rows mixed in."""
    assert all(pvt.enu_basis(np.array(p))[0].tolist() == [1.0, 0.0, 0.0] for p in _POLAR)
    rng = np.random.default_rng(seed)
    start = rng.normal(0.0, 6.4e6, 3)
    velocity = rng.normal(0.0, 1.0, 3)
    velocity *= speed / np.linalg.norm(velocity)
    truth = start + velocity * np.arange(m)[:, None]
    for k, i in enumerate(polar):
        truth[(k * 7) % m] = _POLAR[i]
    position = truth + rng.normal(0.0, offset, (m, 3))
    rows = pvt.enu_errors(position, truth)
    for k in range(m):
        one = pvt.enu_errors(position[k], truth[k])
        assert all(type(v) is float for v in one)
        delta = position[k] - truth[k]
        want = [float(delta @ axis) for axis in _enu_basis_reference(truth[k])]
        got = tuple(float(axis[k]) for axis in rows)
        assert np.array(got).tobytes() == np.array(one).tobytes() == np.array(want).tobytes()
