"""Synthetic registration problems with the standard corruption protocols
(Gaussian noise with symmetric clamp, independent resampling, half-space
crops), base-cloud generators, and a point-to-point ICP baseline. Matching
uses the exact k-d tree search of neighbors.nearest, so its nearest points
and ties (lowest target index) equal those of a brute-force scan.

Randomness is drawn exclusively from rng.Xoshiro256PlusPlus so that problems
are bit-identical across platforms. Draw orders are documented per function.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import so3
from .core import CorrespondenceSet, PointCloud, RigidTransform, Rotation
from .kabsch import DegenerateGeometry, _kabsch_pose
from .neighbors import nearest

# Resample-free crops must share at least this fraction of original indices.
CROP_MIN_OVERLAP = 0.3
CROP_MAX_ATTEMPTS = 100

# In-plane side of the slab cloud, [-1, 1]^2.
SLAB_EXTENT = 2.0


class InsufficientPoints(Exception):
    """Base cloud too small for the requested problem."""


class CropOverlapUnsatisfied(Exception):
    """No half-space pair with enough shared indices within the attempt budget."""


def _per_axis_ranges(value, name):
    """Normalize a range spec to ((lo, hi), (lo, hi), (lo, hi))."""
    arr = np.asarray(value, dtype=float)
    if arr.shape == (2,):
        arr = np.tile(arr, (3, 1))
    if arr.shape != (3, 2):
        raise ValueError(f"{name} must be (lo, hi) or three (lo, hi) pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr[:, 0] > arr[:, 1]):
        raise ValueError(f"{name} ranges must be ordered lo <= hi")
    return tuple((float(lo), float(hi)) for lo, hi in arr)


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Parameters of one synthetic problem family.

    rot_range_deg / trans_range accept a single (lo, hi) pair applied to all
    three axes, or one pair per axis (z, y, x order for rotations; x, y, z
    for translation).
    """

    n_points: int
    rot_range_deg: tuple = (0.0, 45.0)
    trans_range: tuple = (-0.5, 0.5)
    noise_sigma: float = 0.0
    noise_clamp: float = 0.05
    crop_keep_fraction: float = 1.0
    independent_resample: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        object.__setattr__(self, "rot_range_deg", _per_axis_ranges(self.rot_range_deg, "rot_range_deg"))
        object.__setattr__(self, "trans_range", _per_axis_ranges(self.trans_range, "trans_range"))
        # Written so that NaN fails too: NaN < 0 is false.
        if not (self.noise_sigma >= 0.0):
            raise ValueError("noise_sigma must be >= 0")
        if not (self.noise_clamp >= 0.0):
            raise ValueError("noise_clamp must be >= 0")
        if not 0.0 < self.crop_keep_fraction <= 1.0:
            raise ValueError("crop_keep_fraction must lie in (0, 1]")


@dataclass(frozen=True, eq=False)
class LabeledProblem:
    """A correspondence set with its generating ground-truth transform.

    overlap_mask[i] is True when the i-th retained source point's original
    index also survived the target crop (all True without cropping). With
    zero noise, no resampling, and no crop, target = R_gt source + t_gt
    exactly.
    """

    correspondences: CorrespondenceSet
    gt: RigidTransform
    overlap_mask: np.ndarray

    def __post_init__(self):
        mask = np.array(self.overlap_mask, dtype=bool)
        if mask.shape != (self.correspondences.count,):
            raise ValueError("overlap_mask must have one entry per correspondence")
        mask.setflags(write=False)
        object.__setattr__(self, "overlap_mask", mask)


def sample_transform(spec, rng):
    """Draw a ground-truth transform (6 uniform draws).

    Draw order: z, y, x Euler angles (degrees, intrinsic z-y'-x'' composition)
    then tx, ty, tz.
    """
    z, y, x = (rng.uniform(lo, hi) for lo, hi in spec.rot_range_deg)
    t = np.array([rng.uniform(lo, hi) for lo, hi in spec.trans_range])
    return RigidTransform(Rotation(so3.rotation_zyx(z, y, x, degrees=True)), t)


def _half_space_keep(points, normal, keep):
    """Indices of the `keep` most-positive signed distances from the centroid.

    Stable sort with ascending-index tie-break; returned ascending so the
    retained points keep their original relative order.
    """
    centroid = points.mean(axis=0)
    signed = (points - centroid) @ normal
    order = np.argsort(-signed, kind="stable")
    return np.sort(order[:keep])


def make_problem(spec, base_cloud, rng):
    """Generate one labeled problem from a base cloud.

    Pipeline (and draw order): ground-truth transform (6 draws); when
    independent_resample, a 2n-prefix shuffle of the base indices giving
    disjoint source/target subsets (otherwise both clouds use the first
    n_points, no draws); source-only Gaussian noise, clamped symmetrically
    (3n draws, point-major; zero sigma draws nothing); per-cloud half-space
    crops (3 draws per unit normal, source first, both resampled on overlap
    failure; keep fraction 1 draws nothing).

    Parameters
    ----------
    spec : ProblemSpec
    base_cloud : PointCloud
    rng : Xoshiro256PlusPlus

    Returns
    -------
    LabeledProblem

    Raises
    ------
    InsufficientPoints
        Base cloud smaller than n_points (2 * n_points when resampling).
    CropOverlapUnsatisfied
        No crop pair shared >= 30% of indices in 100 attempts.
    """
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
            keep_src = _half_space_keep(source_pts, rng.unit_vector(), keep)
            keep_tgt = _half_space_keep(target_pts, rng.unit_vector(), keep)
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


def ball_cloud(n, rng):
    """n points uniform in the unit ball (4 draws per point: 3 normals + 1 uniform).

    Point i is unit direction i (rng.unit_vectors, whose redraws come before
    the radius draw) times the cube root of its uniform draw. All 4n draws
    are taken in one batch; the cube root is Python's float ``**`` per value,
    which np.cbrt / np.power do not reproduce bit for bit.
    """
    directions, u = rng.unit_vectors(n, extra=1)
    third = 1.0 / 3.0
    radius = np.array([x**third for x in u[:, 0].tolist()])
    return PointCloud(directions * radius[:, None])


def sphere_cloud(n, rng):
    """n points uniform on the unit sphere (3 draws per point, plus 3 per redraw)."""
    return PointCloud(rng.unit_vectors(n)[0])


def slab_cloud(n, rng, thickness=1e-3):
    """n points uniform in a near-planar slab [-1,1]^2 x [-thickness/2, thickness/2].

    3 draws per point (x, y, z), taken in one batch. Deliberately provokes the
    divergent regime: the target Gram matrix becomes nearly rank-2 as
    thickness -> 0.
    """
    # Written so that NaN fails too: NaN comparisons are false.
    if not 0.0 <= thickness < np.inf:
        raise ValueError("thickness must be finite and >= 0")
    half = SLAB_EXTENT / 2.0
    low = np.array([-half, -half, -thickness / 2.0])
    high = np.array([half, half, thickness / 2.0])
    return PointCloud(low + (high - low) * rng.uniforms(3 * n).reshape(n, 3))


def matching_cost(src, tgt, pose):
    """Mean squared nearest-neighbor distance from posed source to target."""
    _, d2 = nearest(pose.apply(src.points), tgt.points)
    return float(d2.mean())


def icp_baseline(src, tgt, init, max_iters=50, tol=1e-9):
    """Point-to-point ICP: alternate nearest-neighbor matching and the
    closed-form pose solve.

    Matching is the exact nearest-neighbor search of neighbors.nearest over
    one k-d tree of the target, built once per call; ties go to the lowest
    target index, so runs are deterministic and match a brute-force scan bit
    for bit. Stops when the pose change (chordal rotation distance plus
    translation distance) drops below tol, or after max_iters.
    The per-iteration matching cost is monotone nonincreasing because each
    half-step minimizes the same objective.

    Parameters
    ----------
    src, tgt : PointCloud
    init : RigidTransform
    max_iters : int
    tol : float

    Returns
    -------
    RigidTransform

    Raises
    ------
    DegenerateGeometry
        Propagated when a matched set does not determine a rotation.
    NonFiniteDistance
        Propagated from neighbors.nearest when squared distances overflow.
    """
    tree = cKDTree(tgt.points)
    stacked_source = src.points[None]
    unit_weights = np.ones((1, src.count))
    r, t = init.rotation.m, init.translation
    for _ in range(max_iters):
        index, _ = nearest(src.points @ r.T + t, tgt.points, tree)
        new_r, new_t, ok = _kabsch_pose(stacked_source, tgt.points[index][None], unit_weights)
        if not ok[0]:
            raise DegenerateGeometry("matched points do not determine a rotation")
        new_r, new_t = new_r[0], new_t[0]
        change = np.linalg.norm(new_r - r) + np.linalg.norm(new_t - t)
        r, t = new_r, new_t
        if change < tol:
            break
    return RigidTransform(Rotation(r), t)
