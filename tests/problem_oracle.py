"""Per-trial reference for synth's stacked problem generation.

This is trial generation as it was before synth made a chunk's problems as
stacked arrays: one generator per seed, a base cloud from it (the per-point
clouds of rng_oracle), then make_problem's pipeline on plain (n, 3) arrays,
one trial at a time, building the containers. synth._problems and
make_problem must reproduce its bytes and leave every generator where it
leaves it.

`rng` is either the library's Xoshiro256PlusPlus or
rng_oracle.ScalarXoshiro256PlusPlus, which draws one value at a time.
"""

import numpy as np

import rng_oracle
from rigid_refine import (
    CorrespondenceSet,
    CropOverlapUnsatisfied,
    InsufficientPoints,
    LabeledProblem,
    RigidTransform,
    Rotation,
    Xoshiro256PlusPlus,
    so3,
)
from rigid_refine.synth import CROP_MAX_ATTEMPTS, CROP_MIN_OVERLAP


def sample_transform(spec, rng):
    """6 uniform draws: z, y, x Euler angles (degrees), then tx, ty, tz."""
    z, y, x = (rng.uniform(lo, hi) for lo, hi in spec.rot_range_deg)
    t = np.array([rng.uniform(lo, hi) for lo, hi in spec.trans_range])
    return RigidTransform(Rotation(so3.rotation_zyx(z, y, x, degrees=True)), t)


def half_space_keep(points, normal, keep):
    """Ascending indices of the `keep` most-positive signed distances from
    the centroid (stable sort, ascending-index tie-break)."""
    centroid = points.mean(axis=0)
    signed = (points - centroid) @ normal
    order = np.argsort(-signed, kind="stable")
    return np.sort(order[:keep])


def make_problem(spec, base_cloud, rng):
    """One labeled problem from a base cloud, in make_problem's draw order."""
    n = spec.n_points
    gt = sample_transform(spec, rng)

    if spec.independent_resample:
        if base_cloud.count < 2 * n:
            raise InsufficientPoints(
                f"independent resampling needs >= {2 * n} base points, have {base_cloud.count}"
            )
        chosen = rng.shuffled_prefix(base_cloud.count, 2 * n)
        source_pts = base_cloud.points[chosen[:n]].copy()
        target_base = base_cloud.points[chosen[n:]]
    else:
        if base_cloud.count < n:
            raise InsufficientPoints(f"need >= {n} base points, have {base_cloud.count}")
        source_pts = base_cloud.points[:n].copy()
        target_base = base_cloud.points[:n]

    target_pts = gt.apply(target_base)

    if spec.noise_sigma > 0.0:
        noise = rng.normals(3 * n, sigma=spec.noise_sigma)
        noise = np.clip(noise, -spec.noise_clamp, spec.noise_clamp)
        source_pts = source_pts + noise.reshape(n, 3)

    if spec.crop_keep_fraction < 1.0:
        keep = int(np.floor(spec.crop_keep_fraction * n))
        if keep < 1:
            raise InsufficientPoints(f"crop of {n} points keeps {keep}")
        min_shared = int(np.ceil(CROP_MIN_OVERLAP * n))
        for _ in range(CROP_MAX_ATTEMPTS):
            keep_src = half_space_keep(source_pts, rng.unit_vector(), keep)
            keep_tgt = half_space_keep(target_pts, rng.unit_vector(), keep)
            shared = np.intersect1d(keep_src, keep_tgt)
            if shared.size >= min_shared:
                break
        else:
            raise CropOverlapUnsatisfied(
                f"no half-space pair shared >= {min_shared} indices "
                f"in {CROP_MAX_ATTEMPTS} attempts"
            )
        target_in = np.zeros(n, dtype=bool)
        target_in[keep_tgt] = True
        overlap_mask = target_in[keep_src]
        source_pts = source_pts[keep_src]
        target_pts = target_pts[keep_tgt]
    else:
        overlap_mask = np.ones(len(source_pts), dtype=bool)

    return LabeledProblem(
        CorrespondenceSet.from_arrays(source_pts, target_pts),
        gt,
        overlap_mask,
    )


def base_cloud(spec, rng):
    """The base cloud of kind spec.cloud: cloud_points, or the smallest
    count the problem needs."""
    needed = 2 * spec.n_points if spec.independent_resample else spec.n_points
    count = spec.cloud_points or needed
    if spec.cloud == "ball":
        return rng_oracle.ball_cloud(count, rng)
    if spec.cloud == "sphere":
        return rng_oracle.sphere_cloud(count, rng)
    return rng_oracle.slab_cloud(count, rng, thickness=spec.slab_thickness)


def problem(spec, seed, generator=Xoshiro256PlusPlus):
    """(LabeledProblem or None, the generator after it) for one seed: its
    base cloud, then make_problem; None where it cannot be made."""
    rng = generator(seed)
    try:
        return make_problem(spec, base_cloud(spec, rng), rng), rng
    except (InsufficientPoints, CropOverlapUnsatisfied):
        return None, rng
