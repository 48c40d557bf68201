"""Measure the order of the scheme by rerunning one config at finer steps.

Halving dt should quarter the one-step relative entropy (slope 2 in a
log-log fit) and halve both its sum over the horizon and the distance to
the continuous-limit endpoint exp(T M') (slope 1).  The deviation from the
exact field reference is different: it sits on a floor that no dt can
remove (aliasing, and the closed form's error on the conjugate pair the data
packing stores twice), so its slope is near zero.

    python3 demos/04_convergence_sweep.py
"""

import numpy as np

from infodyn import simulator

config = simulator.parse_config(
    {
        "n_modes": 4,
        "Y": 5,
        "mu": 1.0,
        "beta": 1.0,
        "sigma_n2": 0.01,
        "T": 1.0,
        "N": 4,
        "seed": 123,
        "initial_data": "generate",
        "scheme": "iterated",
    }
)

resolutions = range(4, 10)
sweep = simulator.convergence_sweep(config, resolutions)

print(" N        dt   first-step kl   cumulative kl   direct gap   deviation")
for i, n in enumerate(sweep.resolutions):
    print(f"{n:2d}  {sweep.dts[i]:8.5f}   {sweep.per_step_kl[i]:13.4e}  "
          f"{sweep.cumulative_kl[i]:14.4e}  {sweep.direct_gaps[i]:11.4e}  "
          f"{sweep.final_deviations[i]:10.4f}")

print("\nper-halving shrink factors (ideal 4.0 for slope 2, 2.0 for slope 1):")
step_ratios = sweep.per_step_kl[:-1] / sweep.per_step_kl[1:]
cumulative_ratios = sweep.cumulative_kl[:-1] / sweep.cumulative_kl[1:]
print("  first-step kl :", np.array2string(step_ratios, precision=2))
print("  cumulative kl :", np.array2string(cumulative_ratios, precision=2))

print("\nfitted log-log slopes vs dt:")
print(f"  first-step kl  : {sweep.slope_per_step:+.4f}   (expected ~ +2)")
print(f"  cumulative kl  : {sweep.slope_cumulative:+.4f}   (expected ~ +1)")
print(f"  direct gap     : {sweep.slope_direct_gap:+.4f}   (expected ~ +1)")
print(f"  deviation      : {sweep.slope_deviation:+.4f}   (floor)")
