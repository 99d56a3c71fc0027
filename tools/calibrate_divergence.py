"""Calibrate the divergence envelope constants frozen in diagnostics.py.

Runs 1000 well-conditioned noisy problems (ball cloud, noise sigma 0.01,
init = closed-form SVD pose, 5 refinements), collects per-trial
(max_col_distance, divergence) pairs, and prints the three regression
constants:

  DIVERGENCE_ENVELOPE_ALPHA  slope of the per-trial upper envelope
                             D <= alpha * max_col_distance + beta
  DIVERGENCE_ENVELOPE_BETA   intercept of the same envelope
  DIVERGENCE_P95_BASELINE    95th-percentile divergence, with 10x headroom

The envelope is fit once and frozen: beta is twice the largest divergence
observed with max_col_distance below its median (covering the flat part of
the scatter), alpha is the smallest slope that puts every calibration trial
under the line, rounded up one decade for cross-platform headroom. These are
regression constants for this repository's generator, not published numbers.

Run:  python3 tools/calibrate_divergence.py
Seed: trials use seeds CALIBRATION_SEED + 0..999 (xoshiro256++, pinned).

Output of the frozen run (2026-08-16, linux x86-64):
  trials          1000
  divergence      median 3.47e-15  p95 7.29e-15  max 4.15e-14
  max_col_dist    median 0.00723  p95 0.0126  max 0.0178
  alpha (raw)     0 (intercept alone covers the scatter)  -> frozen 1e-12
  beta  (raw)     8.3e-14  -> frozen 1e-13
  p95 baseline    7.29e-15  -> frozen 1e-13 (10x headroom, rounded up a decade)
"""

import numpy as np

from rigid_refine.cli import ExperimentConfig, run_experiment
from rigid_refine.synth import ProblemSpec

CALIBRATION_SEED = 20260816
TRIALS = 1000


def run():
    config = ExperimentConfig(
        problem=ProblemSpec(n_points=32, noise_sigma=0.01, seed=CALIBRATION_SEED),
        method="refined",
        refinements=5,
        trials=TRIALS,
    )
    records = run_experiment(config)
    distances = np.array([r.max_col_distance for r in records])
    divergences = np.array([r.divergence for r in records])

    median_dist = np.median(distances)
    flat = divergences[distances < median_dist]
    beta_raw = 2.0 * flat.max()
    alpha_raw = np.max((divergences - beta_raw) / distances)
    alpha_raw = max(alpha_raw, 0.0)
    p95 = np.percentile(divergences, 95)

    def decade_up(x):
        return 10.0 ** np.ceil(np.log10(x))

    print(f"trials          {TRIALS}")
    print(
        f"divergence      median {np.median(divergences):.3g}  "
        f"p95 {p95:.3g}  max {divergences.max():.3g}"
    )
    print(
        f"max_col_dist    median {median_dist:.3g}  "
        f"p95 {np.percentile(distances, 95):.3g}  max {distances.max():.3g}"
    )
    alpha = decade_up(max(alpha_raw, 1e-12))
    beta = decade_up(beta_raw)
    baseline = decade_up(10.0 * p95)
    print(f"alpha (raw)     {alpha_raw:.3g}  -> frozen {alpha:g}")
    print(f"beta  (raw)     {beta_raw:.3g}  -> frozen {beta:g}")
    print(f"p95 baseline    {p95:.3g}  -> frozen {baseline:g}")
    print()
    print("paste into src/rigid_refine/diagnostics.py:")
    print(f"DIVERGENCE_ENVELOPE_ALPHA = {alpha:g}")
    print(f"DIVERGENCE_ENVELOPE_BETA = {beta:g}")
    print(f"DIVERGENCE_P95_BASELINE = {baseline:g}")


if __name__ == "__main__":
    run()
