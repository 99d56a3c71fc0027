"""Conditioning regimes of the linearized refiner.

Three synthetic families run under one protocol (32 independently resampled
pairs, 25 refinement steps): round ball clouds, near-planar slabs, and
needle-like laths. The normalized det(G) diagnostic collapses for both
degenerate shapes, but sustained divergence from the closed-form estimate
appears only for the needle, whose target second moment is nearly rank-1.
A tiny det(G) therefore flags risk; actual divergence also needs geometry
that leaves the unconstrained minimizer free to wander.
"""

import argparse

import numpy as np

from rigid_refine import (
    PointCloud,
    ProblemSpec,
    Xoshiro256PlusPlus,
    ball_cloud,
    divergence_report,
    estimate_pose_kabsch,
    make_problem,
    refine,
    slab_cloud,
)

DIVERGENCE_THRESHOLD = 0.5


def lath_cloud(n, rng):
    # 2 x 1e-3 x 1e-3 footprint: one long axis, two vanishing ones.
    pts = np.empty((n, 3))
    for i in range(n):
        pts[i, 0] = rng.uniform(-1.0, 1.0)
        pts[i, 1] = rng.uniform(-5e-4, 5e-4)
        pts[i, 2] = rng.uniform(-5e-4, 5e-4)
    return PointCloud(pts)


def run_family(name, cloud_fn, seeds, n_points, n_refinements):
    dets, divergences = [], []
    for seed in seeds:
        rng = Xoshiro256PlusPlus(seed)
        cloud = cloud_fn(2 * n_points, rng)
        spec = ProblemSpec(n_points=n_points, independent_resample=True, seed=seed)
        problem = make_problem(spec, cloud, rng)
        initial = estimate_pose_kabsch(problem.correspondences)
        trace = refine(problem.correspondences, initial, n_refinements)
        report = divergence_report(trace)
        dets.append(report.det_g_normalized)
        divergences.append(report.divergence)
    divergences = np.array(divergences)
    hits = int(np.count_nonzero(divergences > DIVERGENCE_THRESHOLD))
    print(
        f"{name:>12} {np.median(dets):>14.3e} {np.median(divergences):>14.3e}"
        f" {hits:>5d}/{len(divergences)} {divergences.max():>12.3e}"
    )
    return hits


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7000, help="first seed of each family")
    parser.add_argument("--trials", type=int, default=100, help="problems per family")
    args = parser.parse_args()
    seeds = range(args.seed, args.seed + args.trials)
    print(
        f"{'family':>12} {'med det(G)':>14} {'med diverg.':>14}"
        f" {'hits':>9} {'max diverg.':>12}"
    )
    print("-" * 66)
    run_family("ball", ball_cloud, seeds, 32, 25)
    run_family("slab", slab_cloud, seeds, 32, 25)
    hits = run_family("lath", lath_cloud, seeds, 32, 25)
    print(f"\nhits = trials whose cumulative divergence exceeds {DIVERGENCE_THRESHOLD}.")
    print("Ball clouds keep det(G) healthy and never diverge. Slabs crush det(G)")
    print("yet the refiner stays pinned to the closed-form pose. Needle-like")
    print(f"laths produced {hits} diverging runs in this sweep: degeneracy of the")
    print("target spread, not small det(G) alone, is what lets iterates escape.")


if __name__ == "__main__":
    main()
