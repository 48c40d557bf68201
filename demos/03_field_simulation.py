"""Evolve measured Klein-Gordon data and watch the per-step information error.

Runs the iterated data update M = 1 + dt M' on pixel-averaged measurements
of a random thermal field state, next to the exact per-mode solution.  Two
things to notice in the output: the per-step relative entropy is tiny and
shrinks with dt, while the deviation from the exact reference saturates;
the pixel data cannot tell certain field modes apart (aliasing), so part of
the exact trajectory is invisible to any data-space update, and the closed
form errs on the conjugate pair the data packing stores twice.

    python3 demos/03_field_simulation.py
"""

import logging
import sys

from infodyn import simulator

config = simulator.parse_config(
    {
        "n_modes": 4,
        "Y": 5,
        "mu": 1.0,
        "beta": 1.0,
        "sigma_n2": 0.01,
        "T": 1.0,
        "N": 6,
        "seed": 123,
        "initial_data": "generate",
        "scheme": "both",
    }
)
model = config.model
print(f"signal dim {model.signal_dim}, data dim {model.data_dim}, "
      f"steps {config.steps}, dt {config.dt:.4f} (limit 1/w_max^2 = {model.dt_limit:.4f})")

# The stored data coefficients (Y-1)/2 and (Y+1)/2 are complex conjugates of
# each other: the measurement is redundant there, which conditions the data
# Gram and forces the matcher onto its projected branch at every step.  The
# run logs both at INFO; here the log goes to stdout, as `infodyn --verbose`
# sends it to stderr.
logging.basicConfig(
    level=logging.INFO, stream=sys.stdout, format="%(levelname)s %(name)s: %(message)s"
)
result = simulator.run_ifd(config)

print("\n step      t    kl_step   kl_cumulative   deviation   branch")
for step in (1, 2, 4, 8, 16, 32, 64):
    i = step - 1  # column entry i belongs to step i + 1, at t = (i + 1) dt
    print(f"{step:5d}  {step * config.dt:5.3f}  {result.kl_step[i]:9.3e}  "
          f"{result.kl_cumulative[i]:13.3e}  {result.exact_deviation[i]:9.4f}   "
          f"{result.branch[i]}")

print("\nfinal deviation from exact reference:", f"{result.final_deviation:.4f}")
print("reference energy drift (exact step)  :",
      f"{result.reference_energy_drift:.2e}")
print("gap to continuous-limit endpoint     :", f"{result.direct_gap:.4f}")

out = "demo_run.csv"
simulator.write_csv(result, out)
print(f"\nper-step table written to {out} "
      "(rerunning reproduces it bit for bit)")
