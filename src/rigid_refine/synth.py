"""Synthetic registration problems with the standard corruption protocols
(Gaussian noise with symmetric clamp, independent resampling, half-space
crops), base-cloud generators, and a point-to-point ICP baseline. Matching
uses the exact k-d tree search of neighbors, so its nearest points and ties
(lowest target index) equal those of a brute-force scan; the ICP kernel,
_icp_lanes, runs a stack of trials at once, searches the targets of a group
of trials with one lane-tagged tree (neighbors._LaneTrees), and re-queries
only the rows whose match the last pose change may have moved.

Randomness is drawn exclusively from rng.Xoshiro256PlusPlus so that problems
are bit-identical across platforms. Draw orders are documented per function.

The experiment runner gets a chunk's problems from _problems(spec, seeds):
each seed's problem is made with its own generator, in seed order; one call
of the stacked RNG kernel fills every generator of the chunk with the draws
a trial takes when nothing is redrawn (_trial_draws), and a redraw refills
through the same kernel. A problem that cannot be made (InsufficientPoints,
CropOverlapUnsatisfied) is None.
"""

from dataclasses import dataclass

import numpy as np

from . import so3
from .core import CorrespondenceSet, PointCloud, RigidTransform, Rotation, _dot, _frozen
from .kabsch import DegenerateGeometry, _kabsch_pose
from .neighbors import _TREE_MAX_DISTANCE, TREE_SLACK, _LaneTrees, nearest
from .rng import Xoshiro256PlusPlus

# Resample-free crops must share at least this fraction of original indices.
CROP_MIN_OVERLAP = 0.3
CROP_MAX_ATTEMPTS = 100

# In-plane side of the slab cloud, [-1, 1]^2.
SLAB_EXTENT = 2.0

# Draws per point of each base cloud kind when nothing is redrawn (see
# ball_cloud, sphere_cloud and slab_cloud).
_CLOUD_DRAWS = {"ball": 4, "sphere": 3, "slab": 3}


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
    # Python floats, so an overflowing width hi - lo is inf without a warning.
    if not all(np.isfinite(hi - lo) for lo, hi in arr.tolist()):
        raise ValueError(f"{name} must be finite, and so must each width hi - lo")
    if np.any(arr[:, 0] > arr[:, 1]):
        raise ValueError(f"{name} ranges must be ordered lo <= hi")
    return tuple((float(lo), float(hi)) for lo, hi in arr)


@dataclass(frozen=True)
class ProblemSpec:
    """Parameters of one synthetic problem family; specs compare by value.

    rot_range_deg / trans_range accept a single (lo, hi) pair applied to all
    three axes, or one pair per axis (z, y, x order for rotations; x, y, z
    for translation).

    cloud ("ball", "sphere" or "slab"), cloud_points (0 = the smallest count
    the problem needs) and slab_thickness choose the base cloud the
    experiment runner draws per seed (_problems); make_problem uses the base
    cloud it is given.
    """

    n_points: int
    rot_range_deg: tuple = (0.0, 45.0)
    trans_range: tuple = (-0.5, 0.5)
    noise_sigma: float = 0.0
    noise_clamp: float = 0.05
    crop_keep_fraction: float = 1.0
    independent_resample: bool = False
    seed: int = 0
    cloud: str = "ball"
    cloud_points: int = 0
    slab_thickness: float = 1e-3

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        object.__setattr__(self, "rot_range_deg", _per_axis_ranges(self.rot_range_deg, "rot_range_deg"))
        object.__setattr__(self, "trans_range", _per_axis_ranges(self.trans_range, "trans_range"))
        # Written so that NaN fails too: every comparison with NaN is false.
        if not (0.0 <= self.noise_sigma < np.inf):
            raise ValueError("noise_sigma must be finite and >= 0")
        if not (0.0 <= self.noise_clamp < np.inf):
            raise ValueError("noise_clamp must be finite and >= 0")
        if not 0.0 < self.crop_keep_fraction <= 1.0:
            raise ValueError("crop_keep_fraction must lie in (0, 1]")
        if self.cloud not in _CLOUD_DRAWS:
            raise ValueError(f"unknown cloud kind {self.cloud!r}")
        if self.cloud_points < 0:
            raise ValueError("cloud_points must be >= 0")
        # Thicker than its in-plane extent, a slab is no longer thin; it also
        # keeps overflow-scale values away from the centering arithmetic.
        if not 0.0 <= self.slab_thickness <= SLAB_EXTENT:
            raise ValueError(
                f"slab_thickness must be in [0, {SLAB_EXTENT}], got {self.slab_thickness!r}"
            )


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
        count = self.correspondences.count
        mask = _frozen(self.overlap_mask, "overlap_mask", (count,), dtype=bool)
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


def _cloud_count(spec):
    """Points in the base cloud: cloud_points, or the smallest count the
    problem needs (2 n_points when resampling, else n_points)."""
    needed = 2 * spec.n_points if spec.independent_resample else spec.n_points
    return spec.cloud_points or needed


def _base_cloud(spec, rng):
    """The base cloud of kind spec.cloud, _cloud_count(spec) points."""
    count = _cloud_count(spec)
    if spec.cloud == "ball":
        return ball_cloud(count, rng)
    if spec.cloud == "sphere":
        return sphere_cloud(count, rng)
    return slab_cloud(count, rng, thickness=spec.slab_thickness)


def _trial_draws(spec):
    """Draws one trial takes when nothing is redrawn: the base cloud, then
    make_problem by its draw order (6 for the transform, 2n for the resample
    shuffle, 3n of noise, 6 for the first crop pair). Integer rejections,
    norm redraws and crop retries take more."""
    n = spec.n_points
    draws = _CLOUD_DRAWS[spec.cloud] * _cloud_count(spec) + 6
    if spec.independent_resample:
        draws += 2 * n
    if spec.noise_sigma > 0.0:
        draws += 3 * n
    if spec.crop_keep_fraction < 1.0:
        draws += 6
    return draws


def _problems(spec, seeds):
    """The problem of each seed, in order: a base cloud, then make_problem,
    from the seed's generator; None where one cannot be made."""
    problems = []
    for rng in Xoshiro256PlusPlus._prefetched(seeds, _trial_draws(spec)):
        try:
            problems.append(make_problem(spec, _base_cloud(spec, rng), rng))
        except (InsufficientPoints, CropOverlapUnsatisfied):
            problems.append(None)
    return problems


def matching_cost(src, tgt, pose):
    """Mean squared nearest-neighbor distance from posed source to target."""
    _, d2 = nearest(pose.apply(src.points), tgt.points)
    return float(d2.mean())


# Rounding headroom of the ICP match cache, relative to the coordinate scale
# max|src| + max|tgt| + 1: the summed row moves and the tree's distances are
# off by a few ulps of it, so a row kept with this margin has its match
# exact, even at a nearest distance of 0.
_CACHE_SLACK = 1e-12


def _icp_lanes(src, tgt, r0, t0, max_iters, tol):
    """icp_baseline per trial: (B, N, 3) sources and (B, M, 3) targets from
    (B, 3, 3) / (B, 3) start poses.

    Returns (r, t, ok, iters): the final poses, a mask that is False where a
    lane stopped on an overflowed match (NonFiniteDistance) or a matched set
    without a rotation (DegenerateGeometry), r and t then holding the pose
    it stopped at, and the iterations each lane ran.

    Every lane keeps running until its pose changes by less than tol or it
    has run max_iters; each iteration matches the active lanes and solves
    their poses in one stacked Kabsch call. The targets are searched by one
    neighbors._LaneTrees, built once: its grouped trees take the rows of
    every active lane that need a match in one query per group. A lane's
    matches are cached: the tree distances d1 and d2 of each row's nearest
    and second-nearest target point are kept, and when the pose moves the row
    by delta, d1 grows and d2 shrinks by delta. While
    d1 (1 + TREE_SLACK) + s < d2 (1 - TREE_SLACK) - s (s = _CACHE_SLACK times
    the lane's coordinate scale), the cached point is still the row's unique
    nearest, so only the other rows are queried. The pose change is a sum of
    two norms taken with core._dot, the dot product np.linalg.norm takes, so
    every lane is bit-identical to running it alone and to ICP that matches
    every row on every iteration.
    """
    b, n = src.shape[:2]
    r, t = np.array(r0, dtype=float), np.array(t0, dtype=float)
    ok = np.ones(b, dtype=bool)
    iters = np.zeros(b, dtype=np.intp)
    scale = np.abs(src).max(axis=(1, 2)) + np.abs(tgt).max(axis=(1, 2))
    targets = _LaneTrees(tgt, requery=True)
    slack = _CACHE_SLACK * (scale + 1.0)
    index = np.zeros((b, n), dtype=np.intp)
    d1 = np.full((b, n), np.inf)  # nothing cached: every row is queried first
    d2 = np.zeros((b, n))
    last = np.empty((b, n, 3))
    lanes = np.arange(b)
    for iteration in range(max_iters):
        if not lanes.size:
            break
        moved = src[lanes] @ r[lanes].swapaxes(1, 2) + t[lanes][:, None, :]
        if iteration:  # an overflowed (inf or NaN) move makes the row stale
            with np.errstate(over="ignore", invalid="ignore"):
                step = moved - last[lanes]
                step = np.sqrt((step * step).sum(axis=2))
                d1[lanes] += step
                d2[lanes] -= step
        last[lanes] = moved
        low = d1[lanes] * (1.0 + TREE_SLACK) + slack[lanes, None]
        high = d2[lanes] * (1.0 - TREE_SLACK) - slack[lanes, None]
        # Past _TREE_MAX_DISTANCE the row must reach the tree, to be masked
        # as a full query's overflow would be.
        stale = ~((low < high) & (low < _TREE_MAX_DISTANCE))
        k, rows = np.nonzero(stale)
        found, dist, finite = targets.query(lanes[k], moved[k, rows])
        index[lanes[k], rows] = found
        d1[lanes[k], rows], d2[lanes[k], rows] = dist.T
        ok &= finite
        lanes = lanes[ok[lanes]]
        matched = np.take_along_axis(tgt[lanes], index[lanes][:, :, None], axis=1)
        new_r, new_t, solved = _kabsch_pose(src[lanes], matched, np.ones((len(lanes), n)))
        ok[lanes[~solved]] = False
        lanes, new_r, new_t = lanes[solved], new_r[solved], new_t[solved]
        turn = (new_r - r[lanes]).reshape(-1, 9)
        shift = new_t - t[lanes]
        change = np.sqrt(_dot(turn, turn)) + np.sqrt(_dot(shift, shift))
        r[lanes], t[lanes] = new_r, new_t
        iters[lanes] += 1
        lanes = lanes[~(change < tol)]
    return r, t, ok, iters


def icp_baseline(src, tgt, init, max_iters=50, tol=1e-9):
    """Point-to-point ICP: alternate nearest-neighbor matching and the
    closed-form pose solve.

    Matching is the exact nearest-neighbor search of neighbors._LaneTrees
    over one k-d tree of the target, built once per call, with each row's match
    cached while the pose provably keeps it (see _icp_lanes, which this runs
    at B = 1); ties go to the lowest target index, so runs are deterministic
    and match a brute-force scan bit for bit. Stops when the pose change
    (chordal rotation distance plus translation distance) drops below tol,
    or after max_iters.
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
    ValueError
        max_iters < 1, or tol not finite and >= 0.
    DegenerateGeometry
        Propagated when a matched set does not determine a rotation.
    NonFiniteDistance
        Propagated from neighbors.nearest when squared distances overflow.
    """
    # Without one iteration the start pose would be reported as ICP's.
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    # Written so that NaN fails too: every comparison with NaN is false.
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    r, t, ok, _ = _icp_lanes(
        src.points[None], tgt.points[None], init.rotation.m[None], init.translation[None],
        max_iters, tol,
    )
    if not ok[0]:
        # Name the failure: matching at the pose the lane stopped at
        # overflows, or the set it matched does not determine a rotation.
        nearest(src.points @ r[0].T + t[0], tgt.points)
        raise DegenerateGeometry("matched points do not determine a rotation")
    return RigidTransform(Rotation(r[0]), t[0])
