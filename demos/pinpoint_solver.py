"""
Position and clock bias from pseudoranges
=========================================

Forward model: place a user, propagate a constellation, form exact
pseudoranges (geometric range plus one shared clock bias).  Inverse
problem: hand the solver a guess that is off by hundreds of kilometres and
watch Gauss-Newton walk back to the truth in a handful of iterations.
"""
import numpy as np

from gpssim import pvt
from gpssim.constants import SPEED_OF_LIGHT_M_S
from gpssim.constellation import default_constellation, propagate, elevation_angle

truth = np.array([-1266643.136, -4727176.539, 4079014.032])
bias_m = 0.0015 * SPEED_OF_LIGHT_M_S  # 1.5 ms of receiver clock error
t0 = 345600.0

# ----------------------------------------------------------------------
# Eight satellites on deterministic slots around the local sky.

constellation = default_constellation(truth, t0)
states = [propagate(eph, t0) for eph in constellation]
for eph, st in zip(constellation, states):
    el = np.degrees(elevation_angle(st.position, truth))
    print(f"  sat {eph.sat_id}: elevation {el:5.1f} deg")

sat_positions = np.array([st.position for st in states])
pseudoranges = np.linalg.norm(sat_positions - truth, axis=1) + bias_m

# ----------------------------------------------------------------------
# Solve from a deliberately bad initial guess.

guess = truth + np.array([3e5, -2e5, 4e5])
solution = pvt.solve(pseudoranges, sat_positions, guess)

err = np.linalg.norm(solution.position - truth)
print(f"\nconverged in {solution.iterations} iterations")
print(f"position error   {err:.2e} m")
print(f"bias recovered   {solution.b_u:.3f} m (truth {bias_m:.3f} m)")

# ----------------------------------------------------------------------
# With measurement noise, extra satellites average it down.  Same noise
# draw per satellite across both solves, so the comparison is fair.

rng = np.random.default_rng(12)
print("\nwith 5 m pseudorange noise:")
for n in (4, 8):
    noisy = pseudoranges[:n] + rng.standard_normal(n) * 5.0
    sol = pvt.solve(noisy, sat_positions[:n], truth)
    print(
        f"  {n} sats: horizontal error {pvt.horizontal_error(sol, truth):6.2f} m,"
        f"  residual norm {sol.residual_norm:6.2f} m"
    )
