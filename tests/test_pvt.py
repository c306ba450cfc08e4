"""Navigation solver tests.

Every solver case is forward-modeled: pick a truth position and bias,
generate the exact pseudoranges |s_i - x| + b, then require the solver to
find the truth again. The Jacobian is checked against central finite
differences rather than a second analytic derivation.
"""
import math

import numpy as np
import pytest

from gpssim import pvt
from gpssim.constants import GPS_ORBIT_RADIUS_M
from gpssim.rx_clock import GpsTime

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
    t = GpsTime(100, 0.0)
    return [
        pvt.PseudorangeMeasurement(i + 1, float(r), t, t.add(0.075))
        for i, r in enumerate(rho)
    ]


def test_negative_pseudorange_rejected():
    t = GpsTime(0, 0.0)
    with pytest.raises(ValueError):
        pvt.PseudorangeMeasurement(1, -5.0, t, t)


def test_measurement_times_do_not_change_the_solution():
    sats = _sat_positions(6)
    four = _measurements(sats, bias_m=1234.5, noise=np.linspace(-3.0, 3.0, 6))
    two = [pvt.PseudorangeMeasurement(m.sat_id, m.rho_m) for m in four]
    assert two[0].t_transmit is None and two[0].t_receive_rx is None
    assert pvt.solve(two, sats) == pvt.solve(four, sats)


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
            t = GpsTime(100, 0.0)
            meas = [
                pvt.PseudorangeMeasurement(i + 1, float(r), t, t.add(0.07))
                for i, r in enumerate(rho)
            ]
            sol = pvt.solve(meas, sats)
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
