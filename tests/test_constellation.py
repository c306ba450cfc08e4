"""Orbit truth model tests.

propagate() is checked against an independent rotation-matrix oracle
(Rz(raan) @ Rx(inclination) applied to the in-plane circle) and a central
finite difference for velocity.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpssim import constellation as con
from gpssim.constants import (
    EARTH_RADIUS_M,
    GM_EARTH_M3_S2,
    GPS_ORBIT_RADIUS_M,
    L1_CARRIER_HZ,
    SPEED_OF_LIGHT_M_S,
)

USER = np.array([-1266643.136, -4727176.539, 4079014.032])


def _eph(inc=0.0, raan=0.0, phase=0.0, epoch=0.0, radius=GPS_ORBIT_RADIUS_M, **kw):
    return con.EphemerisRecord(
        1, inc, raan, phase_at_epoch=phase, epoch=epoch, orbit_radius=radius, **kw
    )


def oracle_state(eph, t):
    n = math.sqrt(GM_EARTH_M3_S2 / eph.orbit_radius**3)
    u = eph.phase_at_epoch + n * (t - eph.epoch)
    ci, si = math.cos(eph.inclination), math.sin(eph.inclination)
    co, so = math.cos(eph.raan), math.sin(eph.raan)
    rx = np.array([[1, 0, 0], [0, ci, -si], [0, si, ci]])
    rz = np.array([[co, -so, 0], [so, co, 0], [0, 0, 1]])
    in_plane = eph.orbit_radius * np.array([math.cos(u), math.sin(u), 0.0])
    return rz @ rx @ in_plane


class TestPropagate:
    def test_equatorial_orbit_starts_on_x_axis(self):
        st = con.propagate(_eph(), 0.0)
        assert np.allclose(st.position, [GPS_ORBIT_RADIUS_M, 0, 0], atol=1e-6)
        n = _eph().mean_motion
        assert np.allclose(st.velocity, [0, GPS_ORBIT_RADIUS_M * n, 0], atol=1e-6)

    def test_quarter_period_reaches_y_axis(self):
        eph = _eph(validity=50000.0)
        quarter = math.pi / 2 / eph.mean_motion
        st = con.propagate(eph, quarter)
        assert np.allclose(
            st.position, [0, GPS_ORBIT_RADIUS_M, 0], atol=1e-6 * GPS_ORBIT_RADIUS_M
        )

    def test_matches_rotation_matrix_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            eph = _eph(
                inc=rng.uniform(0, math.pi / 2),
                raan=rng.uniform(-math.pi, math.pi),
                phase=rng.uniform(0, 2 * math.pi),
                epoch=rng.uniform(0, 1e6),
            )
            t = eph.epoch + rng.uniform(-eph.validity, eph.validity)
            st = con.propagate(eph, t)
            assert np.allclose(st.position, oracle_state(eph, t), atol=1e-6)

    def test_velocity_matches_central_difference(self):
        eph = _eph(inc=0.9, raan=2.1, phase=0.4, epoch=5000.0)
        t, h = 6000.0, 0.05
        fd = (
            con.propagate(eph, t + h).position - con.propagate(eph, t - h).position
        ) / (2 * h)
        assert np.allclose(con.propagate(eph, t).velocity, fd, atol=1e-3)

    def test_speed_and_radius_are_constant(self):
        eph = _eph(inc=1.0, raan=0.3, phase=2.0)
        for t in (0.0, 1234.5, 9999.0):
            st = con.propagate(eph, t)
            assert np.linalg.norm(st.position) == pytest.approx(GPS_ORBIT_RADIUS_M)
            speed = math.sqrt(GM_EARTH_M3_S2 / GPS_ORBIT_RADIUS_M)
            assert np.linalg.norm(st.velocity) == pytest.approx(speed)

    def test_outside_validity_raises(self):
        eph = _eph(epoch=1000.0, validity=600.0)
        con.propagate(eph, 1600.0)  # boundary is inclusive
        with pytest.raises(con.StaleEphemerisError):
            con.propagate(eph, 1600.1)
        with pytest.raises(con.StaleEphemerisError):
            con.propagate(eph, 399.0)


_ephemerides = st.builds(
    con.EphemerisRecord,
    sat_id=st.integers(1, 32),
    inclination=st.floats(-math.pi, math.pi),
    raan=st.floats(-math.pi, math.pi),
    phase_at_epoch=st.floats(-10.0, 10.0),
    epoch=st.floats(0.0, 1e9),
    orbit_radius=st.floats(EARTH_RADIUS_M * 1.01, 5e7),
    validity=st.floats(1.0, 1e5),
)


class TestOrbits:
    """Orbits.positions must reproduce propagate() bit for bit."""

    @given(
        ephs=st.lists(_ephemerides, min_size=1, max_size=32),
        t=st.floats(0.0, 1e9),
        fracs=st.lists(st.floats(-0.999, 0.999), min_size=64, max_size=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_propagate(self, ephs, t, fracs):
        # Scalar t: move each epoch so that t lies inside its validity window.
        moved = [
            dataclasses.replace(e, epoch=t + f * e.validity)
            for e, f in zip(ephs, fracs)
        ]
        pos = con.Orbits.of(moved).positions(t)
        assert pos.shape == (len(ephs), 3)
        for row, eph in zip(pos, moved):
            assert row.tobytes() == con.propagate(eph, t).position.tobytes()
        # One time per satellite.
        ts = [e.epoch + f * e.validity for e, f in zip(ephs, fracs[32:])]
        pos = con.Orbits.of(ephs).positions(np.array(ts))
        for row, eph, ti in zip(pos, ephs, ts):
            assert row.tobytes() == con.propagate(eph, ti).position.tobytes()

    @given(
        ephs=st.lists(_ephemerides, min_size=1, max_size=12),
        fracs=st.lists(st.floats(-1.5, 1.5), min_size=12, max_size=12),
        m=st.integers(1, 9),
        dt=st.floats(0.0, 5e4),
    )
    @settings(max_examples=150, deadline=None)
    def test_time_grid_rows_equal_per_row_calls(self, ephs, fracs, m, dt):
        """An (m, 1) column of times gives (m, n, 3); each row equals the
        scalar call and each valid cell equals position(), stale cells
        included (their mask marks them and nothing raises)."""
        moved = [
            dataclasses.replace(e, epoch=1e6 + f * e.validity)
            for e, f in zip(ephs, fracs)
        ]
        orbits = con.Orbits.of(moved)
        times = 1e6 + np.linspace(0.0, dt, m)
        pos, stale = orbits.evaluate(times[:, None])
        assert pos.shape == (m, len(ephs), 3) and stale.shape == (m, len(ephs))
        for row, t in enumerate(times.tolist()):
            single, single_stale = orbits.evaluate(t)
            assert pos[row].tobytes() == single.tobytes()
            assert stale[row].tolist() == single_stale.tolist()
            for eph, cell, cell_stale in zip(moved, pos[row], stale[row]):
                assert cell_stale == (abs(t - eph.epoch) > eph.validity)
                if not cell_stale:
                    assert np.array(con.position(eph, t)).tobytes() == cell.tobytes()

    @given(
        ephs=st.lists(_ephemerides, min_size=1, max_size=12),
        fracs=st.lists(st.floats(-0.999, 0.999), min_size=24, max_size=24),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_of_per_satellite_times_equal_separate_calls(self, ephs, fracs):
        """A (2, n) array of times, one per satellite in each row, gives
        (2, n, 3) whose rows equal the two (n,) calls."""
        orbits = con.Orbits.of(ephs)
        n = len(ephs)
        times = np.array([
            [e.epoch + f * e.validity for e, f in zip(ephs, fracs[k * 12 :])]
            for k in (0, 1)
        ])
        pos = orbits.positions(times)
        assert pos.shape == (2, n, 3)
        for row in (0, 1):
            assert pos[row].tobytes() == orbits.positions(times[row]).tobytes()

    def test_grid_raises_for_first_stale_cell_in_row_major_order(self):
        ephs = [
            _eph(epoch=1000.0, validity=600.0),
            dataclasses.replace(_eph(epoch=1000.0, validity=100.0), sat_id=5),
            dataclasses.replace(_eph(epoch=1000.0, validity=50.0), sat_id=9),
        ]
        times = np.array([[1000.0], [1060.0], [1200.0]])
        with pytest.raises(con.StaleEphemerisError, match="sat 9: \\+60 s"):
            con.Orbits.of(ephs).positions(times)

    def test_index_selects_rows(self):
        ephs = con.default_constellation(USER, 0.0, 8)
        orbits = con.Orbits.of(ephs)
        pick = np.array([6, 1, 3])
        assert orbits[pick].positions(900.0).tobytes() == (
            orbits.positions(900.0)[pick].tobytes()
        )
        mask = np.arange(8) % 2 == 0
        assert list(orbits[mask].sat_id) == [1, 3, 5, 7]

    def test_stale_row_raises_naming_first_stale_satellite(self):
        ephs = [
            _eph(epoch=1000.0, validity=600.0),
            dataclasses.replace(_eph(epoch=1000.0, validity=100.0), sat_id=5),
            dataclasses.replace(_eph(epoch=1000.0, validity=200.0), sat_id=9),
        ]
        orbits = con.Orbits.of(ephs)
        orbits.positions(1100.0)  # boundary is inclusive, as in propagate
        with pytest.raises(con.StaleEphemerisError, match="sat 5: \\+101 s") as exc:
            orbits.positions(1101.0)
        with pytest.raises(con.StaleEphemerisError) as ref:
            con.propagate(ephs[1], 1101.0)
        assert str(exc.value) == str(ref.value)
        with pytest.raises(con.StaleEphemerisError, match="sat 9"):
            orbits.positions(np.array([1000.0, 1000.0, 1201.0]))


@given(eph=_ephemerides, frac=st.floats(-1.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_position_equals_propagate(eph, frac):
    # epoch + validity can round past the window edge; then both must raise.
    t = eph.epoch + frac * eph.validity
    try:
        want = con.propagate(eph, t).position.tobytes()
    except con.StaleEphemerisError as exc:
        with pytest.raises(con.StaleEphemerisError) as got:
            con.position(eph, t)
        assert str(got.value) == str(exc)
        return
    assert np.array(con.position(eph, t)).tobytes() == want


def test_position_raises_like_propagate():
    eph = _eph(epoch=1000.0, validity=600.0)
    with pytest.raises(con.StaleEphemerisError) as exc:
        con.position(eph, 1601.0)
    with pytest.raises(con.StaleEphemerisError) as ref:
        con.propagate(eph, 1601.0)
    assert str(exc.value) == str(ref.value)


def test_record_validation():
    with pytest.raises(ValueError):
        con.EphemerisRecord(0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        _eph(radius=6.0e6)  # inside the Earth
    with pytest.raises(ValueError):
        _eph(validity=0.0)


# --- doppler -------------------------------------------------------------------


def test_doppler_sign_and_worked_value():
    # Satellite closing at 1903 m/s along the line of sight.
    sat = con.SatState(np.array([2.0e7, 0, 0]), np.array([-1903.0, 0, 0]))
    f = con.carrier_doppler(sat, np.zeros(3))
    expected = 1903.0 / SPEED_OF_LIGHT_M_S * L1_CARRIER_HZ
    assert f == pytest.approx(expected, abs=1e-6)
    assert abs(f - 10_000.0) < 1.0


def test_doppler_zero_for_tangential_motion():
    sat = con.SatState(np.array([2.0e7, 0, 0]), np.array([0.0, 3000.0, 0]))
    assert con.carrier_doppler(sat, np.zeros(3)) == 0.0


def test_doppler_includes_user_velocity():
    sat = con.SatState(np.array([2.0e7, 0, 0]), np.zeros(3))
    f = con.carrier_doppler(sat, np.zeros(3), user_vel=np.array([100.0, 0, 0]))
    assert f == pytest.approx(100.0 / SPEED_OF_LIGHT_M_S * L1_CARRIER_HZ)


def test_doppler_envelope_over_full_orbits():
    """Any Earth-fixed user sees at most v * Re / r of radial rate, well
    inside the 10 kHz search envelope; sweep a full period to confirm."""
    sats = con.default_constellation(USER, 0.0, 8)
    period = 2 * math.pi / sats[0].mean_motion
    worst = 0.0
    for eph in sats:
        wide = dataclasses.replace(eph, validity=period)
        for t in np.arange(0.0, period, 60.0):
            f = con.carrier_doppler(con.propagate(wide, t), USER)
            worst = max(worst, abs(f))
    assert worst <= 10_000.0


def test_code_phase_wraps_every_millisecond():
    assert con.code_phase_chips(0.0) == 0.0
    assert con.code_phase_chips(0.5e-3) == pytest.approx(511.5)
    assert con.code_phase_chips(1e-3) == pytest.approx(0.0, abs=1e-9)
    assert con.code_phase_chips(2.5e-3) == pytest.approx(511.5)


def test_elevation_angle_overhead_and_horizon():
    user = np.array([EARTH_RADIUS_M, 0, 0])
    overhead = con.elevation_angle(user * 4.0, user)
    assert overhead == pytest.approx(math.pi / 2)
    level = con.elevation_angle(user + np.array([0, 1e7, 0]), user)
    assert level == pytest.approx(0.0, abs=1e-12)


def ref_elevation_angle(sat_pos, user_pos):
    """elevation_angle as it was before it broadcast over user positions."""
    user_pos = np.asarray(user_pos, float)
    up = user_pos / np.linalg.norm(user_pos)
    los = np.asarray(sat_pos, float) - user_pos
    return np.arcsin(np.vecdot(los, up) / np.sqrt(np.vecdot(los, los)))


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), n=st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_elevation_angle_grid_rows_equal_reference_calls(seed, m, n):
    """(m, n, 3) satellites against (m, 1, 3) users: each row equals the
    one-user call of the reference, and each element a single call."""
    rng = np.random.default_rng(seed)
    users = USER + rng.normal(0.0, 5e4, (m, 3))
    sats = rng.normal(0.0, GPS_ORBIT_RADIUS_M, (m, n, 3))
    grid = con.elevation_angle(sats, users[:, None, :])
    assert grid.shape == (m, n)
    for row in range(m):
        assert grid[row].tobytes() == ref_elevation_angle(sats[row], users[row]).tobytes()
        for i in range(n):
            one = con.elevation_angle(sats[row, i], users[row])
            assert np.float64(one).tobytes() == grid[row, i].tobytes()


def test_elevation_angle_rows_equal_single_calls():
    rng = np.random.default_rng(7)
    for n in (1, 4, 8, 32):
        sats = rng.normal(0.0, GPS_ORBIT_RADIUS_M, (n, 3))
        batch = con.elevation_angle(sats, USER)
        assert batch.shape == (n,)
        for row, el in zip(sats, batch):
            assert np.float64(con.elevation_angle(row, USER)).tobytes() == el.tobytes()


# --- payload packing ------------------------------------------------------------


def test_ephemeris_pack_unpack_round_trip():
    eph = con.EphemerisRecord(
        7, 0.97, -2.5, phase_at_epoch=1.25, epoch=60_480_000.0,
        orbit_radius=2.66e7, validity=7200.0,
    )
    chunks = con.pack_ephemeris(eph)
    assert len(chunks) == con.EPHEMERIS_SUBFRAMES
    assert all(len(c) == 20 for c in chunks)
    assert con.unpack_ephemeris(7, chunks) == eph


def test_unpack_requires_three_chunks():
    eph = _eph()
    with pytest.raises(ValueError):
        con.unpack_ephemeris(1, con.pack_ephemeris(eph)[:2])


# --- default constellation -------------------------------------------------------


def test_default_constellation_sits_on_slots_at_epoch():
    sats = con.default_constellation(USER, 0.0, 8)
    assert [s.sat_id for s in sats] == list(range(1, 9))
    expected_el = [70.0, 45.0, 30.0, 55.0, 35.0, 60.0, 25.0, 50.0]
    for eph, el_deg in zip(sats, expected_el):
        pos = con.propagate(eph, 0.0).position
        assert np.linalg.norm(pos) == pytest.approx(eph.orbit_radius, rel=1e-9)
        el = con.elevation_angle(pos, USER)
        assert math.degrees(el) == pytest.approx(el_deg, abs=1e-6)


def test_default_constellation_stays_visible():
    sats = con.default_constellation(USER, 500.0, 8)
    for t in (500.0, 1000.0, 1500.0):
        for eph in sats:
            el = con.elevation_angle(con.propagate(eph, t).position, USER)
            assert el > math.radians(5.0)


def test_default_constellation_mixed_plane_directions():
    # Alternating ascending/descending slots should give both signs of
    # vertical velocity, so geometry is not degenerate.
    sats = con.default_constellation(USER, 0.0, 8)
    vz = [con.propagate(s, 0.0).velocity[2] for s in sats]
    assert min(vz) < 0 < max(vz)


def test_default_constellation_respects_count_limits():
    assert len(con.default_constellation(USER, 0.0, 4)) == 4
    with pytest.raises(ValueError):
        con.default_constellation(USER, 0.0, 0)
    with pytest.raises(ValueError):
        con.default_constellation(USER, 0.0, 33)
