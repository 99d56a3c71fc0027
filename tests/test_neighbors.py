"""The k-d tree nearest-neighbor kernel and its three callers (Chamfer distance,
matching cost, ICP) against the brute-force oracle in nn_oracle.py, bit for bit."""

import warnings

import numpy as np
import pytest

from rigid_refine import (
    PointCloud,
    ProblemSpec,
    RigidTransform,
    Rotation,
    ball_cloud,
    chamfer_distance,
    icp_baseline,
    make_problem,
    matching_cost,
    so3,
)
from rigid_refine.neighbors import NonFiniteDistance, nearest
from rigid_refine.rng import Xoshiro256PlusPlus

from nn_oracle import brute_chamfer, brute_icp, brute_matching_cost, brute_nearest

SIZES = (1, 2, 32, 717, 1024)


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_matches_oracle(query, ref):
    index, d2 = nearest(query, ref)
    oracle_index, oracle_d2 = brute_nearest(query, ref)
    assert_bitwise(index, oracle_index)
    assert_bitwise(d2, oracle_d2)


def tie_heavy_clouds(rng, n, m):
    """Query and reference on a coarse lattice, with duplicates, exact ties
    and (half the time) ulp-scale perturbations that make near ties."""
    lattice = 0.25 * rng.integers(-4, 5, size=(m, 3)).astype(float)
    ref = np.concatenate([lattice, lattice[rng.permutation(m)[: m // 2]]])
    ref = ref[rng.permutation(len(ref))]
    query = 0.125 * rng.integers(-8, 9, size=(n, 3)).astype(float)
    if rng.random() < 0.5:
        ref = ref * (1.0 + 1e-15 * rng.standard_normal(ref.shape))
    return query, ref


@pytest.mark.parametrize("n", SIZES)
def test_nearest_matches_brute_force(n):
    for seed in range(200):
        rng = np.random.default_rng([n, seed])
        m = SIZES[seed % len(SIZES)]
        if seed % 4 == 3:
            query, ref = tie_heavy_clouds(rng, n, m)
        else:
            query = rng.uniform(-1.0, 1.0, size=(n, 3))
            ref = rng.uniform(-1.0, 1.0, size=(m, 3)) * rng.uniform(0.1, 10.0)
        assert_matches_oracle(query, ref)


def test_nearest_ties_go_to_lowest_index():
    ref = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    query = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])
    index, d2 = nearest(query, ref)
    assert index.tolist() == [0, 0, 3, 0]
    assert d2.tolist() == [1.0, 0.0, 0.0, 0.5]
    assert_matches_oracle(query, ref)


def test_chamfer_matches_oracle_bitwise():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 300, size=2)
        if seed % 4 == 3:
            pa, pb = tie_heavy_clouds(rng, n, m)
        else:
            pa = rng.standard_normal((n, 3))
            pb = rng.standard_normal((m, 3)) + rng.uniform(-1.0, 1.0, size=3)
        a, b = PointCloud(pa), PointCloud(pb)
        assert chamfer_distance(a, b) == brute_chamfer(a, b)
        assert chamfer_distance(b, a) == brute_chamfer(b, a)


def test_chamfer_duplicates_and_ties_match_oracle():
    grid = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
    a = PointCloud(np.concatenate([grid, grid[::-1], grid[:3]]))
    b = PointCloud(grid + 0.5)
    for x, y in ((a, b), (b, a), (a, a)):
        assert chamfer_distance(x, y) == brute_chamfer(x, y)
    assert chamfer_distance(a, a) == 0.0


def test_matching_cost_matches_oracle_bitwise():
    for seed in range(50):
        rng = Xoshiro256PlusPlus(seed)
        src = ball_cloud(40, rng)
        tgt = ball_cloud(60, rng)
        pose = RigidTransform(
            Rotation(so3.rotation_zyx(*(rng.uniform(-30.0, 30.0) for _ in range(3)), degrees=True)),
            np.array([rng.uniform(-0.2, 0.2) for _ in range(3)]),
        )
        assert matching_cost(src, tgt, pose) == brute_matching_cost(src, tgt, pose)


# The ICP benchmark workload: N=717, sigma=0.01, independent resampling and
# 70% half-space crops, first problem seeds of the default benchmark seed.
ICP_SPEC = dict(n_points=717, noise_sigma=0.01, crop_keep_fraction=0.7, independent_resample=True)


# A start away from the identity, so the loop's first pose is not trivial.
TURNED_INIT = RigidTransform(
    Rotation(so3.rotation_zyx(20.0, -10.0, 5.0, degrees=True)), np.array([0.1, -0.2, 0.05])
)


@pytest.mark.parametrize(
    "seed, init",
    [(seed, RigidTransform.identity()) for seed in range(4)] + [(0, TURNED_INIT)],
    ids=["0", "1", "2", "3", "0-turned-init"],
)
def test_icp_matches_oracle_on_benchmark_problems(seed, init):
    spec = ProblemSpec(seed=seed, **ICP_SPEC)
    rng = Xoshiro256PlusPlus(seed)
    problem = make_problem(spec, ball_cloud(2 * spec.n_points, rng), rng)
    corr = problem.correspondences
    pose = icp_baseline(corr.source, corr.target, init)
    oracle = brute_icp(corr.source, corr.target, init)
    assert_bitwise(pose.rotation.m, oracle.rotation.m)
    assert_bitwise(pose.translation, oracle.translation)


def test_nearest_rejects_overflowing_distances():
    # The tree reports an overflowed distance as inf with the out-of-range
    # index M; nearest must name the failure, not index with M.
    query = np.array([[0.0, 0.0, 0.0], [1e300, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteDistance):
            nearest(query, np.eye(3))
