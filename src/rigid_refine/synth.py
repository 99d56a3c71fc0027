"""Synthetic registration problems with the standard corruption protocols
(Gaussian noise with symmetric clamp, independent resampling, half-space
crops), base-cloud generators, and a point-to-point ICP baseline. Matching
uses the exact k-d tree search of neighbors, so its nearest points and ties
(lowest target index) equal those of a brute-force scan; the ICP kernel,
_icp_lanes, runs a stack of trials at once, searches the targets of a group
of trials with one lane-tagged tree (neighbors._LaneTrees), and re-queries
only the rows whose match the last pose change may have moved.

Randomness is drawn exclusively from rng.Xoshiro256PlusPlus streams so that
problems are bit-identical across platforms. Draw orders are documented per
function.

Generation is one array kernel over a stack of trials, each with its own
stream: _make_problems (the pose, the resample shuffle, clamped noise and the
half-space crops of every trial at once) after the base clouds of
_base_clouds. Its streams are an rng._Lanes: the experiment runner's
_problems(spec, seeds) fills the streams of a chunk's seeds with one call of
the stacked RNG kernel, sized by the draws a trial takes when nothing is
redrawn (_trial_draws), and parses the draws as (B, ...) arrays, following
the draw orders. Each trial's stream keeps its own cursor: a crop retry
draws for the trials still trying, trials that run past their prefetched
draws refill together in one kernel call, and a redraw (a Gaussian triple at
the norm floor, a rejected integer draw; near-impossible) is parsed again on
that trial's stream alone. _problems returns stacked arrays and a `made`
mask, False for a trial that cannot be made (InsufficientPoints,
CropOverlapUnsatisfied); it builds no container per trial. The public
ball_cloud, sphere_cloud, slab_cloud, sample_transform and make_problem run
the same kernel on the caller's generator, which is one lane of rng._Lanes,
and keep their containers, exceptions and draw counts. Every trial is
bit-identical to making it alone, one trial at a time
(tests/problem_oracle.py).
"""

from dataclasses import dataclass

import numpy as np

from . import so3
from .core import (
    CorrespondenceSet,
    PointCloud,
    RigidTransform,
    Rotation,
    _check_finite,
    _check_rotations,
    _dot,
    _frozen,
    _scalar_pow,
)
from .kabsch import DegenerateGeometry, _kabsch_pose
from .neighbors import _LaneTrees, _scale_slack, _surely_below, nearest
from .rng import _Lanes

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


def _poses(spec, lanes):
    """(B, 3, 3) ground-truth rotations and (B, 3) translations, 6 uniform
    draws per lane: z, y, x Euler angles (degrees, intrinsic z-y'-x''
    composition), then tx, ty, tz."""
    lo, hi = np.array(spec.rot_range_deg + spec.trans_range).T
    values = lo + (hi - lo) * lanes._uniforms(6)
    z, y, x = values[:, :3].T
    return so3.rotation_zyx(z, y, x, degrees=True), values[:, 3:]


def sample_transform(spec, rng):
    """Draw a ground-truth transform (6 uniform draws).

    Draw order: z, y, x Euler angles (degrees, intrinsic z-y'-x'' composition)
    then tx, ty, tz.
    """
    r, t = _poses(spec, rng)
    return RigidTransform(Rotation(r[0]), t[0])


def _half_space_keep(points, normals, keep):
    """Per lane, the indices of the `keep` most-positive signed distances of
    (L, n, 3) points from their centroid along (L, 3) normals.

    Stable sort with ascending-index tie-break; returned ascending so the
    retained points keep their original relative order. A lane whose
    centroid or distances could pass the float range (coordinates near
    2^1024 / n) is first divided by the power of two at or above its largest
    coordinate: the scale is exact, so it keeps the order of the distances,
    and every other lane keeps its bytes.
    """
    _, exponent = np.frexp(np.abs(points).max(axis=(1, 2)))
    huge = exponent + max(points.shape[1].bit_length(), 3) > 1023
    points = np.ldexp(points, -np.where(huge, exponent, 0)[:, None, None])
    centroid = points.mean(axis=1)
    signed = ((points - centroid[:, None, :]) @ normals[:, :, None])[:, :, 0]
    order = np.argsort(-signed, axis=1, kind="stable")
    return np.sort(order[:, :keep], axis=1)


def _gather(points, index):
    """points[b, index[b]] per lane: (B, M, 3) points, (B, k) indices."""
    return np.take_along_axis(points, index[:, :, None], axis=1)


def _crops(spec, source, target, lanes):
    """The half-space crops of every lane: (keep_src, keep_tgt, overlap,
    made), overlap[b, i] True where kept source point i's index is also
    kept in the target.

    Each attempt draws a unit normal for the source, then one for the
    target, for the lanes still trying; a lane stops at the first pair whose
    kept index sets share >= CROP_MIN_OVERLAP of the points, and is not made
    if no pair of CROP_MAX_ATTEMPTS does.
    """
    b, n = source.shape[:2]
    keep = int(np.floor(spec.crop_keep_fraction * n))
    if keep < 1:
        raise InsufficientPoints(f"crop of {n} points keeps {keep}")
    min_shared = int(np.ceil(CROP_MIN_OVERLAP * n))
    keep_src = np.empty((b, keep), dtype=np.intp)
    keep_tgt = np.empty((b, keep), dtype=np.intp)
    overlap = np.empty((b, keep), dtype=bool)
    trying = np.arange(b)
    for attempt in range(CROP_MAX_ATTEMPTS):
        normals = lanes._unit_vectors(2, lanes=None if attempt == 0 else trying)[0]
        kept_src = _half_space_keep(source[trying], normals[:, 0], keep)
        kept_tgt = _half_space_keep(target[trying], normals[:, 1], keep)
        in_target = np.zeros((len(trying), n), dtype=bool)
        np.put_along_axis(in_target, kept_tgt, True, axis=1)
        shared = np.take_along_axis(in_target, kept_src, axis=1)
        keep_src[trying], keep_tgt[trying], overlap[trying] = kept_src, kept_tgt, shared
        trying = trying[shared.sum(axis=1) < min_shared]
        if not trying.size:
            break
    made = np.ones(b, dtype=bool)
    made[trying] = False
    return keep_src, keep_tgt, overlap, made


def _make_problems(spec, base, lanes):
    """make_problem for every lane at once: (B, count, 3) base clouds and
    their lanes' draws.

    Returns (source, target, gt_r, gt_t, overlap, made): (B, m, 3) source and
    target points (m = n_points, or the crop's keep count), the (B, 3, 3) /
    (B, 3) ground truth, the (B, m) overlap masks, and a (B,) mask that is
    False for a lane whose crop failed (CropOverlapUnsatisfied); its other
    entries are then meaningless. Raises InsufficientPoints as make_problem
    does, for every lane at once: the base count is shared.
    """
    b, count = base.shape[:2]
    n = spec.n_points
    gt_r, gt_t = _poses(spec, lanes)

    if spec.independent_resample:
        if count < 2 * n:
            raise InsufficientPoints(
                f"independent resampling needs >= {2 * n} base points, have {count}"
            )
        chosen = lanes._shuffled_prefixes(count, 2 * n)
        source = _gather(base, chosen[:, :n])
        target_base = _gather(base, chosen[:, n:])
    else:
        if count < n:
            raise InsufficientPoints(f"need >= {n} base points, have {count}")
        source = base[:, :n].copy()
        target_base = base[:, :n]

    # gt.apply: points @ R.T + t, R.T read in the column-major layout of a
    # transposed matrix, which picks the BLAS kernel a lone trial used.
    target = target_base @ gt_r.swapaxes(1, 2) + gt_t[:, None, :]

    if spec.noise_sigma > 0.0:
        noise = lanes._normals(3 * n, spec.noise_sigma)
        noise = np.clip(noise, -spec.noise_clamp, spec.noise_clamp)
        source = source + noise.reshape(b, n, 3)

    if spec.crop_keep_fraction < 1.0:
        keep_src, keep_tgt, overlap, made = _crops(spec, source, target, lanes)
        source = _gather(source, keep_src)
        target = _gather(target, keep_tgt)
    else:
        overlap = np.ones((b, n), dtype=bool)
        made = np.ones(b, dtype=bool)
    return source, target, gt_r, gt_t, overlap, made


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
    source, target, gt_r, gt_t, overlap, made = _make_problems(
        spec, base_cloud.points[None], rng
    )
    if not made[0]:
        min_shared = int(np.ceil(CROP_MIN_OVERLAP * spec.n_points))
        raise CropOverlapUnsatisfied(
            f"no half-space pair shared >= {min_shared} indices "
            f"in {CROP_MAX_ATTEMPTS} attempts"
        )
    return LabeledProblem(
        CorrespondenceSet.from_arrays(source[0], target[0]),
        RigidTransform(Rotation(gt_r[0]), gt_t[0]),
        overlap[0],
    )


def _ball(n, lanes):
    """(B, n, 3) ball clouds (see ball_cloud)."""
    directions, u = lanes._unit_vectors(n, extra=1)
    return directions * _scalar_pow(u, 1.0 / 3.0)


def _sphere(n, lanes):
    """(B, n, 3) sphere clouds (see sphere_cloud)."""
    return lanes._unit_vectors(n)[0]


def _slab(n, lanes, thickness):
    """(B, n, 3) slab clouds (see slab_cloud)."""
    half = SLAB_EXTENT / 2.0
    low = np.array([-half, -half, -thickness / 2.0])
    high = np.array([half, half, thickness / 2.0])
    return low + (high - low) * lanes._uniforms(3 * n).reshape(-1, n, 3)


def ball_cloud(n, rng):
    """n points uniform in the unit ball (4 draws per point: 3 normals + 1 uniform).

    Point i is unit direction i (rng.unit_vectors, whose redraws come before
    the radius draw) times the cube root of its uniform draw. All 4n draws
    are taken in one batch; the cube root is Python's float ``**`` per value
    (core._scalar_pow), which np.cbrt / np.power do not reproduce bit for bit.
    """
    return PointCloud(_ball(n, rng)[0])


def sphere_cloud(n, rng):
    """n points uniform on the unit sphere (3 draws per point, plus 3 per redraw)."""
    return PointCloud(_sphere(n, rng)[0])


def slab_cloud(n, rng, thickness=1e-3):
    """n points uniform in a near-planar slab [-1,1]^2 x [-thickness/2, thickness/2].

    3 draws per point (x, y, z), taken in one batch. Deliberately provokes the
    divergent regime: the target Gram matrix becomes nearly rank-2 as
    thickness -> 0.
    """
    # Written so that NaN fails too: NaN comparisons are false.
    if not 0.0 <= thickness < np.inf:
        raise ValueError("thickness must be finite and >= 0")
    return PointCloud(_slab(n, rng, thickness)[0])


def _cloud_count(spec):
    """Points in the base cloud: cloud_points, or the smallest count the
    problem needs (2 n_points when resampling, else n_points)."""
    needed = 2 * spec.n_points if spec.independent_resample else spec.n_points
    return spec.cloud_points or needed


def _base_clouds(spec, lanes):
    """(B, _cloud_count(spec), 3) base clouds of kind spec.cloud."""
    count = _cloud_count(spec)
    if spec.cloud == "ball":
        return _ball(count, lanes)
    if spec.cloud == "sphere":
        return _sphere(count, lanes)
    return _slab(count, lanes, spec.slab_thickness)


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
    """The problem of each seed, in order, as stacked arrays: (source,
    target, gt_r, gt_t, overlap, made) (see _make_problems), made False
    where a problem cannot be made (every entry of the other arrays is then
    meaningless; where the spec leaves too few points, they hold no points).

    Seed b's problem is its base cloud, then make_problem, from its own
    stream. The streams come in blocks of rng._Lanes, each filled by one
    kernel call with _trial_draws(spec) draws per seed and at most
    rng._PREFETCH_DRAWS draws in all (at least one seed). The made problems
    pass the containers' checks at once: finite points and proper
    rotations, with the containers' ValueError.
    """
    try:
        blocks = [
            _make_problems(spec, _base_clouds(spec, lanes), lanes)
            for lanes in _Lanes.prefetched(seeds, _trial_draws(spec))
        ]
    except InsufficientPoints:  # the spec leaves too few points for any trial
        b = len(seeds)
        points, made = np.zeros((b, 0, 3)), np.zeros(b, dtype=bool)
        return points, points, np.zeros((b, 3, 3)), np.zeros((b, 3)), points[..., 0] > 0, made
    source, target, gt_r, gt_t, overlap, made = (np.concatenate(part) for part in zip(*blocks))
    # In the order the containers of one trial were built: pose, then points.
    _check_finite(gt_r[made], "rotation matrix")
    _check_rotations(gt_r[made])
    for value, name in ((gt_t, "translation"), (source, "points"), (target, "points")):
        _check_finite(value[made], name)
    return source, target, gt_r, gt_t, overlap, made


def matching_cost(src, tgt, pose):
    """Mean squared nearest-neighbor distance from posed source to target."""
    _, d2 = nearest(pose.apply(src.points), tgt.points)
    return float(d2.mean())


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
    and second-nearest target point are kept, and when the pose moves the
    row by delta, d1 grows and d2 shrinks by delta. While d1 is below d2 by
    more than the rounding margins of neighbors._surely_below, the cached
    point is still the row's unique nearest, so only the other rows are
    queried. The pose change is a sum of two norms taken with core._dot, the
    dot product np.linalg.norm takes, so every lane is bit-identical to
    running it alone and to ICP that matches every row on every iteration.
    """
    b, n = src.shape[:2]
    r, t = np.array(r0, dtype=float), np.array(t0, dtype=float)
    ok = np.ones(b, dtype=bool)
    iters = np.zeros(b, dtype=np.intp)
    targets = _LaneTrees(tgt)
    slack = _scale_slack(src, tgt)  # an inf scale keeps no cached row
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
        # A row that may overflow reaches the tree, to be masked as a full
        # query's overflow would be.
        k, rows = np.nonzero(~_surely_below(d1[lanes], d2[lanes], slack[lanes, None]))
        found, dist, finite = targets.search(lanes[k], moved[k, rows])
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
