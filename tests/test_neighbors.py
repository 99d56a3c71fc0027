"""The k-d tree nearest-neighbor kernel and its three callers (Chamfer distance,
matching cost, ICP) against the brute-force oracle in nn_oracle.py, bit for bit,
with and without the work they skip: bounded queries, cached ICP matches and
Chamfer rows answered from the target's close pairs, for one lane and for
stacks of lanes searched through lane-tagged trees."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from rigid_refine import (
    DegenerateGeometry,
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
from rigid_refine import cli, neighbors
from rigid_refine.cli import config_from_entries, parse_config_text, run_experiment
from rigid_refine.metrics import _chamfers
from rigid_refine.neighbors import (
    _PAIR_OCCUPANCY,
    _TREE_MAX_DISTANCE,
    TREE_SLACK,
    NonFiniteDistance,
    _LaneTrees,
    _surely_below,
    nearest,
)
from rigid_refine.rng import Xoshiro256PlusPlus
from rigid_refine.synth import _icp_lanes

from nn_oracle import (
    brute_chamfer,
    brute_icp,
    brute_matching_cost,
    brute_nearest,
    squared_distances,
)

SIZES = (1, 2, 32, 717, 1024)


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_matches_oracle(query, ref, bound=np.inf):
    index, d2 = nearest(query, ref, bound=bound)
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
    # Unbounded, and bounded: the tightest bound puts the farthest query's
    # nearest point exactly at it (scipy's own bound is strict); looser
    # bounds drop fewer candidates.
    for seed in range(200):
        rng = np.random.default_rng([n, seed])
        m = SIZES[seed % len(SIZES)]
        if seed % 4 == 3:
            query, ref = tie_heavy_clouds(rng, n, m)
        else:
            query = rng.uniform(-1.0, 1.0, size=(n, 3))
            ref = rng.uniform(-1.0, 1.0, size=(m, 3)) * rng.uniform(0.1, 10.0)
        oracle_index, oracle_d2 = brute_nearest(query, ref)
        tightest = float(np.sqrt(oracle_d2.max()))
        for bound in (np.inf, tightest, 1.5 * tightest, 1e3 * tightest):
            index, d2 = nearest(query, ref, bound=bound)
            assert_bitwise(index, oracle_index)
            assert_bitwise(d2, oracle_d2)


def test_bounded_nearest_hand_cases():
    # A point exactly at the bound is found, and so is a tie at the bound.
    ref = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    index, d2 = nearest(np.zeros((1, 3)), ref, bound=1.0)
    assert index.tolist() == [0] and d2.tolist() == [1.0]
    index, d2 = nearest(np.array([[1.5, 0.0, 0.0], [0.0, 0.0, 0.0]]), ref, bound=1.0)
    assert index.tolist() == [0, 0] and d2.tolist() == [0.25, 1.0]
    # Duplicates of the nearest point, the second one beyond a tight bound.
    assert_matches_oracle(np.array([[1.0, 0.1, 0.0], [0.0, 0.9, 0.0]]), ref, 0.1)


def test_zero_bound_searches_everything_on_exact_data():
    # Queries that are reference points, duplicates included: every nearest
    # distance is 0, and a bound of 0 must still find the lowest index.
    for seed in range(50):
        rng = np.random.default_rng(seed)
        if seed % 2:
            _, ref = tie_heavy_clouds(rng, 1, int(rng.integers(1, 200)))
        else:
            ref = rng.standard_normal((int(rng.integers(1, 200)), 3))
        query = ref[rng.permutation(len(ref))]
        assert_matches_oracle(query, ref, 0.0)
        assert not nearest(query, ref, bound=0.0)[1].any()


@pytest.mark.parametrize("bound", [np.inf, np.nan, 1e300, 0.0, 1.0])
def test_bounded_nearest_still_rejects_overflowing_distances(bound):
    # An overflowed gap gives an infinite (or NaN) bound: the search is
    # unbounded, and the overflowed row is named as before, silently.
    query = np.array([[0.0, 0.0, 0.0], [1e300, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteDistance):
            nearest(query, np.eye(3), bound=bound)


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


def test_bounded_chamfer_matches_oracle_bitwise():
    # Equal-length clouds, which Chamfer bounds by their largest
    # correspondence gap (exact and overflowing cases included), and
    # unequal-length clouds searched with their Hausdorff distance as bound.
    for seed in range(200):
        rng = np.random.default_rng([7, seed])
        n = int(rng.integers(1, 300))
        if seed % 4 == 3:
            pa, pb = tie_heavy_clouds(rng, n, n)
            pb = pb[:n] if len(pb) >= n else np.resize(pb, (n, 3))
        else:
            pa = rng.standard_normal((n, 3))
            pb = pa + rng.uniform(0.0, 0.3) * rng.standard_normal((n, 3))
        if seed % 10 == 0:
            pb = pa.copy()
        a, b = PointCloud(pa), PointCloud(pb)
        assert chamfer_distance(a, b) == brute_chamfer(a, b)
        assert chamfer_distance(b, a) == brute_chamfer(b, a)
        m = int(rng.integers(1, 300))
        pc = rng.standard_normal((m, 3))
        d2 = brute_nearest(pa, pc)[1].max(), brute_nearest(pc, pa)[1].max()
        hausdorff = float(np.sqrt(max(d2)))
        assert_lanes_match_oracle(pa[None], pc[None], np.array([hausdorff]))
        assert_lanes_match_oracle(pc[None], pa[None], np.array([hausdorff]))


def test_chamfers_bound_equal_size_clouds_by_their_largest_gap(monkeypatch):
    # With N = M each point's partner bounds its nearest distance in the
    # other cloud, in both directions: the one tree search of each direction,
    # of the far pairs that the guard sends to it, is bounded by each pair's
    # largest gap. Clouds of unequal size have no bound.
    searches = []
    search = _LaneTrees.search

    def spy(self, lane, query, bound=None):
        searches.append((self.ref, lane, bound))
        return search(self, lane, query, bound)

    monkeypatch.setattr(_LaneTrees, "search", spy)
    far_query, far_ref = lane_clouds(7, 3, 40, 40)
    # Sparse targets with gaps near their spacing: these pairs are enumerated.
    rng = np.random.default_rng(8)
    close_ref = rng.uniform(-1.0, 1.0, size=(3, 40, 3))
    close_query = close_ref + 0.05 * rng.standard_normal(close_ref.shape)
    query, ref = np.concatenate([far_query, close_query]), np.concatenate([far_ref, close_ref])
    gaps = np.sqrt(((query - ref) ** 2).sum(axis=2).max(axis=1))
    _chamfers(query, ref)
    clouds = [(query[j].tobytes(), ref[j].tobytes()) for j in range(6)]
    partial = 0
    for cloud, lane, bound in searches:
        assert bound is not None
        for k in np.unique(lane):
            pair = [j for j, both in enumerate(clouds) if cloud[k].tobytes() in both]
            assert len(pair) == 1
            assert_bitwise(bound[k : k + 1], gaps[pair])
        partial += len(lane) < cloud.shape[0] * cloud.shape[1]
    assert len(searches) == 2 and partial
    searches.clear()
    _chamfers(query, ref[:, :15])
    assert searches and all(bound is None for _, _, bound in searches)


def oracle_chamfer(a, b):
    """brute_chamfer of two point arrays, or NaN (an NA cell) where a nearest
    squared distance overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = squared_distances(a, b)
        if not (np.isfinite(d2.min(axis=1)).all() and np.isfinite(d2.min(axis=0)).all()):
            return np.nan
        return brute_chamfer(PointCloud(a), PointCloud(b))


def paired_lane(rng, n, kind, eps):
    """One (a, b) pair of N points for the paired-Chamfer fuzz test.

    noise: b uniform at its own scale and offset, a = b + eps * scale * noise,
    eps from 0 to past the point spacing. lattice: b on a coarse lattice, with
    duplicates, and a = b + eps * noise, on a finer lattice half the time
    (exact ties). equal: a == b. overflow: b at 1e200 or 1e308 scale (where
    the coordinate scale itself overflows) and a = (1 - eps) b: every gap 0 at
    eps = 0, else gaps whose squares overflow. close: noise, but b_1 lies
    near b_0, a_0 is moved next to b_1 and a_1 away from it, so that neither
    b_1 nor a_0 has its partner as nearest point, and b_1 is within twice
    its own gap of a_0 but not within the largest gap. far: noise whose
    scale is a twentieth to a quarter of the point spacing, so that the lane's
    occupancy falls on either side of _PAIR_OCCUPANCY. flat: noise or far
    with one axis of zero extent in both clouds. clusters: b in two or three
    tight clusters far apart, a = b + eps * noise.
    """
    if kind == "far":
        a, b = paired_lane(rng, n, "noise", 0.0)
        spacing = 2.0 * np.abs(b - b.mean(axis=0)).max() / np.cbrt(n)
        return b + rng.uniform(0.05, 0.25) * spacing * rng.standard_normal((n, 3)), b
    if kind == "flat":
        a, b = paired_lane(rng, n, rng.choice(["noise", "far"]), eps)
        axis = rng.integers(3)
        a[:, axis] = b[:, axis] = b[0, axis]
        return a, b
    if kind == "clusters":
        centers = 10.0 * rng.standard_normal((int(rng.integers(2, 4)), 3))
        b = centers[rng.integers(len(centers), size=n)] + 1e-3 * rng.standard_normal((n, 3))
        return b + eps * rng.standard_normal((n, 3)), b
    if kind == "close":
        a, b = paired_lane(rng, n, "noise", eps)
        if n > 1:
            step = 0.05 * np.abs(b).max() * rng.standard_normal(3) / np.sqrt(3.0)
            b[1] = b[0] + step
            a[0], a[1] = b[0] + 0.9 * step, b[1] + 0.4 * step
        return a, b
    if kind == "lattice":
        b = 0.25 * rng.integers(-2, 3, size=(n, 3)).astype(float)
        a = b + eps * rng.standard_normal((n, 3))
        if rng.random() < 0.5:
            a = np.round(8.0 * a) / 8.0
        return a, b
    if kind == "overflow":
        b = rng.uniform(-1.0, 1.0, size=(n, 3)) * rng.choice([1e200, 1e308])
        return b * (1.0 - eps), b
    scale = rng.uniform(0.1, 10.0)
    b = rng.uniform(-1.0, 1.0, size=(n, 3)) * scale + rng.uniform(-5.0, 5.0, size=3)
    if kind == "equal":
        return b.copy(), b
    return b + eps * scale * rng.standard_normal((n, 3)), b


@settings(max_examples=80, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from((1, 2, 3, 24, 90, 501)),
    st.lists(
        st.tuples(
            st.sampled_from(
                ("noise", "noise", "lattice", "equal", "overflow", "close", "far", "flat", "clusters")
            ),
            st.sampled_from((0.0, 1e-12, 1e-4, 0.01, 0.05, 0.2, 1.0)),
        ),
        min_size=1,
        max_size=8,
    ),
    st.integers(0, 2**32 - 1),
)
def test_paired_chamfers_match_the_oracle_lane_by_lane(n, kinds, seed):
    # Stacks of paired lanes, enumerated or searched, in one call: each lane
    # equals the brute-force Chamfer of its pair alone, bit for bit,
    # silently.
    rng = np.random.default_rng(seed)
    pairs = [paired_lane(rng, n, kind, eps) for kind, eps in kinds]
    a, b = np.stack([pair[0] for pair in pairs]), np.stack([pair[1] for pair in pairs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _chamfers(a, b)
    for k, (pa, pb) in enumerate(pairs):
        assert_bitwise(value[k : k + 1], np.array([oracle_chamfer(pa, pb)]))


def benchmark_chunk(settings, trials):
    """Run `refined` or `icp` trials of a config's settings (one chunk)."""
    text = f"{settings}problem.seed = 0\ntrials = {trials}\n"
    return run_experiment(config_from_entries(parse_config_text(text)))


@pytest.fixture
def tree_calls(monkeypatch):
    """The k-d tree methods neighbors calls, by name, through a counting
    cKDTree."""
    calls = []

    class CountingTree(cKDTree):
        def query(self, *args, **kwargs):
            calls.append("query")
            return super().query(*args, **kwargs)

        def query_pairs(self, *args, **kwargs):
            calls.append("query_pairs")
            return super().query_pairs(*args, **kwargs)

    monkeypatch.setattr(neighbors, "cKDTree", CountingTree)
    return calls


def spy_on(monkeypatch, name, record):
    """Wrap _LaneTrees.<name>, appending record(self, args, result) per call."""
    method = getattr(_LaneTrees, name)

    def spy(self, *args):
        result = method(self, *args)
        calls.append(record(self, args, result))
        return result

    calls = []
    monkeypatch.setattr(_LaneTrees, name, spy)
    return calls


def assert_lanes_equal_brute_chamfer(value, query, ref):
    for k in range(len(ref)):
        expected = brute_chamfer(PointCloud(query[k]), PointCloud(ref[k]))
        assert_bitwise(value[k : k + 1], np.array([expected]))


def test_paired_chamfer_enumerates_the_sweep_chunk_once(monkeypatch, tree_calls):
    # At the calibration-sweep shape (N=32, sigma=0.01, 1000 trials) every
    # lane takes the pair path: one enumeration of the targets' close pairs
    # answers the chunk, with no search and no self-query of any tree.
    # Clouds of unequal size have no pairs and enumerate nothing.
    enumerated = spy_on(monkeypatch, "pairs", lambda self, args, _: (self.ref.shape[:2], (args[0] > 0).all()))
    searched = spy_on(monkeypatch, "search", lambda self, args, _: len(args[1]))
    sweep = (
        "method = refined\nproblem.noise_sigma = 0.01\nrefinements = 5\n"
        "report_diagnostics = true\nproblem.n_points = 32\n"
    )
    records = benchmark_chunk(sweep, 1000)
    assert all(r.chamfer is not None for r in records)
    assert enumerated == [((1000, 32), True)] and searched == []
    assert set(tree_calls) == {"query_pairs"}
    enumerated.clear()
    tree_calls.clear()
    query, ref = lane_clouds(9, 4, 30, 30)
    _chamfers(query * 1e-3, ref[:, :20])
    assert enumerated == [] and tree_calls == ["query", "query"]


def test_paired_chamfer_of_a_dense_target_equals_the_oracle(monkeypatch):
    # 600 uniform target points with 1e-3 noise, and one row moved 0.1 away:
    # more than one other target point is expected within 2 G of a point
    # ((M - 1) (4 pi / 3) (2 G) ** 3 is about 20, past the box's volume 8),
    # and the lanes hold more close pairs than points. The stack still
    # takes the pair path, searches no row, and each lane equals the
    # brute-force Chamfer of its pair.
    enumerated = spy_on(monkeypatch, "pairs", lambda self, args, found: ((args[0] > 0).sum(), len(found)))
    searched = spy_on(monkeypatch, "search", lambda self, args, _: len(args[1]))
    rng = np.random.default_rng(27)
    ref = rng.uniform(-1.0, 1.0, size=(4, 600, 3))
    query = ref + 1e-3 * rng.standard_normal(ref.shape)
    query[:, 0] += [0.1, 0.0, 0.0]
    gaps = np.sqrt(((query - ref) ** 2).sum(axis=2).max(axis=1))
    box = np.prod(ref.max(axis=1) - ref.min(axis=1), axis=1)
    assert (599 * (4.0 * np.pi / 3.0) * (2.0 * gaps) ** 3 > box).all()
    value = _chamfers(query, ref)
    assert len(enumerated) == 1 and enumerated[0][0] == 4 and enumerated[0][1] > 4 * 600
    assert searched == []
    assert_lanes_equal_brute_chamfer(value, query, ref)


def blocked_brute_chamfer(a, b, rows=200):
    """brute_chamfer of two point arrays, its (N, M) squared distances taken
    a block of rows at a time: the same minima, so the same bytes."""
    near_a, near_b = [], np.full(len(b), np.inf)
    for lo in range(0, len(a), rows):
        d2 = squared_distances(a[lo : lo + rows], b)
        near_a.append(d2.min(axis=1))
        near_b = np.minimum(near_b, d2.min(axis=0))
    return float(np.concatenate(near_a).mean() + near_b.mean())


def test_clustered_target_is_searched_not_enumerated(monkeypatch, tree_calls):
    # Two tight clusters of 1500 target points, far apart, and one gap wider
    # than a cluster: every target point lies within 2 G of its whole
    # cluster, so enumerating the lane's pairs would list 2 * 1500 * 1499 / 2
    # of them. Its occupancy sends the lane to the search. The spy counts,
    # without listing them, the pairs each enumeration would return, and
    # refuses more than the 13.5 * _PAIR_OCCUPANCY * M that the guard allows.
    def counting_pairs(self, bound):
        m = self.ref.shape[1]
        for start, stop, points, _ in self.groups:
            if (bound[start:stop] > 0.0).any():
                tree = cKDTree(points)
                radius = float(bound[start:stop].max()) * (1.0 + TREE_SLACK)
                would = (tree.count_neighbors(tree, radius) - len(points)) // 2
                assert would <= 13.5 * _PAIR_OCCUPANCY * m * (stop - start)
        found = pairs(self, bound)
        enumerated.append(len(found))
        return found

    enumerated, pairs = [], _LaneTrees.pairs
    monkeypatch.setattr(_LaneTrees, "pairs", counting_pairs)
    searched = spy_on(monkeypatch, "search", lambda self, args, _: len(args[1]))
    rng = np.random.default_rng(28)
    ball = rng.standard_normal((3000, 3))
    ref = 1e-3 * ball / np.linalg.norm(ball, axis=1, keepdims=True) * rng.uniform(size=(3000, 1))
    ref[1500:] += [10.0, 0.0, 0.0]
    query = ref + 1e-4 * rng.standard_normal(ref.shape)
    query[0] += [0.01, 0.0, 0.0]
    value = _chamfers(query[None], ref[None])
    assert enumerated == [0] and searched == [3000, 3000]
    assert tree_calls == ["query", "query"]
    assert value[0] == blocked_brute_chamfer(query, ref)


def test_group_enumerates_to_its_pair_path_lanes_reach(monkeypatch):
    # A tagged group of 31 N=32 lanes, one of which fails the guard: its 32
    # target points sit in a cube of side 2e-3 and its largest gap is 0.5.
    # The group enumerates no farther than the largest reach of the other
    # lanes, returns no pair of the failing lane (whose points are all
    # within that reach of each other), and searches only that lane; every
    # lane equals the brute-force Chamfer.
    limits = spy_on(monkeypatch, "_tree", lambda self, args, result: result[1])
    enumerated = spy_on(monkeypatch, "pairs", lambda self, args, found: (args[0].copy(), found))
    searched = spy_on(monkeypatch, "search", lambda self, args, _: np.unique(args[0]).tolist())
    rng = np.random.default_rng(29)
    ref = rng.uniform(-1.0, 1.0, size=(31, 32, 3))
    query = ref + 0.01 * rng.standard_normal(ref.shape)
    ref[5] = 1e-3 * rng.uniform(-1.0, 1.0, size=(32, 3))
    query[5] = ref[5] + 1e-4 * rng.standard_normal((32, 3))
    query[5, 7] += [0.5, 0.0, 0.0]
    assert groups_of(ref) == [(0, 31, True)]
    value = _chamfers(query, ref)
    (bound, found), = enumerated
    assert bound[5] == 0.0 and (np.delete(bound, 5) > 0.0).all()
    assert limits[0] == bound.max() * (1.0 + TREE_SLACK) < 0.5
    assert len(found) and not (found // 32 == 5).any()
    assert (found[:, 0] // 32 == found[:, 1] // 32).all()
    assert searched == [[5], [5]]
    assert_lanes_equal_brute_chamfer(value, query, ref)


def test_group_retests_its_lanes_at_the_group_reach(monkeypatch):
    # A tagged group of two N=32 lanes: lane 0 sparse in [-1, 1] ** 3 with
    # one gap of 0.15, lane 1 a tight cluster of side 0.05 with gaps of
    # 1e-5. Alone, each passes the guard at its own reach; at lane 0's reach
    # (the group's) all of lane 1 shares one cube, so it is sent to the
    # search, and the group enumerates no more than the guard allows for
    # lane 0. Both lanes equal the brute-force Chamfer.
    enumerated = spy_on(monkeypatch, "pairs", lambda self, args, found: (args[0].copy(), found))
    rng = np.random.default_rng(31)
    ref = np.stack([rng.uniform(-1.0, 1.0, size=(32, 3)), 0.05 * rng.uniform(size=(32, 3))])
    query = ref + 1e-5 * rng.standard_normal(ref.shape)
    query[0, 3] += [0.15, 0.0, 0.0]
    assert groups_of(ref) == [(0, 2, True)]
    trees = _LaneTrees(ref)
    assert (trees.pair_bounds(np.array([0.3, 0.0])) > 0.0).tolist() == [True, False]
    assert (trees.pair_bounds(np.array([0.0, 1e-4])) > 0.0).tolist() == [False, True]
    assert (trees.pair_bounds(np.array([0.3, 1e-4])) > 0.0).tolist() == [True, False]
    value = _chamfers(query, ref)
    (bound, found), = enumerated
    assert bound[0] > 0.0 and bound[1] == 0.0
    assert not (found // 32 == 1).any() and len(found) <= 13.5 * _PAIR_OCCUPANCY * 32
    assert_lanes_equal_brute_chamfer(value, query, ref)


def test_paired_lanes_near_the_tree_limit_equal_the_oracle():
    # Lanes at 5e153 and 3e153 scale with small gaps: a reach far below
    # _TREE_MAX_DISTANCE, but untagged trees (the tags would overflow) whose
    # boxes' squared diagonals reach the float range, where
    # cKDTree.query_pairs refuses to run. Such a lane is searched; a lane of
    # the same stack at 1e150 scale is enumerated; each equals the
    # brute-force Chamfer, silently.
    rng = np.random.default_rng(30)
    ref = rng.uniform(-1.0, 1.0, size=(3, 24, 3)) * np.array([5e153, 1e150, 3e153])[:, None, None]
    query = ref * (1.0 + 1e-4 * rng.standard_normal(ref.shape))
    trees = _LaneTrees(ref)
    with np.errstate(over="ignore"):
        gaps = np.sqrt(((query - ref) ** 2).sum(axis=2).max(axis=1))
    assert [step is None for _, _, _, step in trees.groups] == [True] * 3
    assert (trees.pair_bounds(2.0 * gaps) > 0.0).tolist() == [False, True, False]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _chamfers(query, ref)
    assert_lanes_equal_brute_chamfer(value, query, ref)


def test_icp_chunk_enumerates_no_pairs_and_searches_once_per_direction(monkeypatch, tree_calls):
    # ICP's independent resamples put each source point far from its
    # partner beside the target's spacing: every lane of an
    # icp_halfspace_n717 chunk fails the guard. Its Chamfer enumerates no
    # pair and runs one search of every row per direction, with no
    # self-query.
    stacks = []
    chamfers = cli._chamfers
    monkeypatch.setattr(cli, "_chamfers", lambda a, b: (stacks.append((a, b)), chamfers(a, b))[1])
    icp = (
        "method = icp\nproblem.n_points = 717\nproblem.noise_sigma = 0.01\n"
        "problem.crop_keep_fraction = 0.7\nproblem.independent_resample = true\n"
    )
    records = benchmark_chunk(icp, 8)
    assert all(r.chamfer is not None for r in records)
    (a, b), = stacks
    assert a.shape == b.shape == (8, 501, 3)
    enumerated = spy_on(monkeypatch, "pairs", lambda self, args, found: ((args[0] > 0).any(), len(found)))
    searched = spy_on(monkeypatch, "search", lambda self, args, _: len(args[1]))
    tree_calls.clear()
    value = _chamfers(a, b)
    assert enumerated == [(False, 0)] and searched == [8 * 501, 8 * 501]
    assert tree_calls == ["query"] * 16
    assert_lanes_equal_brute_chamfer(value, a, b)


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


def start_poses(init, lanes):
    return np.tile(init.rotation.m, (lanes, 1, 1)), np.tile(init.translation, (lanes, 1))


def test_icp_lanes_match_oracle_on_ties_and_exact_data():
    # Tie-heavy lattices (near and exact ties at every iteration) and exact
    # data (nearest distances reach 0): each lane of one stacked call, and
    # icp_baseline on it alone, equal brute_icp bit for bit.
    clouds = [tie_heavy_clouds(np.random.default_rng([11, seed]), 120, 80) for seed in range(4)]
    for seed in range(2):
        rng = Xoshiro256PlusPlus(seed)
        problem = make_problem(ProblemSpec(n_points=120, seed=seed), ball_cloud(120, rng), rng)
        clouds.append((problem.correspondences.source.points, problem.correspondences.target.points))
    src, tgt = np.stack([c[0] for c in clouds]), np.stack([c[1] for c in clouds])
    for init in (RigidTransform.identity(), TURNED_INIT):
        r, t, ok, iters = _icp_lanes(src, tgt, *start_poses(init, len(clouds)), 50, 1e-9)
        assert ok.all() and len(set(iters.tolist())) > 1
        for k, (s, g) in enumerate(clouds):
            oracle = brute_icp(PointCloud(s), PointCloud(g), init)
            alone = icp_baseline(PointCloud(s), PointCloud(g), init)
            for pose_r, pose_t in ((r[k], t[k]), (alone.rotation.m, alone.translation)):
                assert_bitwise(pose_r, oracle.rotation.m)
                assert_bitwise(pose_t, oracle.translation)


def test_icp_lanes_mask_failed_lanes_and_keep_the_others_exact():
    # One chunk holds good lanes, a collinear lane (its matched set has no
    # rotation) and a lane whose squared distances overflow: the bad lanes are
    # masked, silently, and the good ones keep the bytes of running alone;
    # alone, the bad ones raise what icp_baseline always raised.
    good = []
    for seed in (3, 4):
        rng = Xoshiro256PlusPlus(seed)
        spec = ProblemSpec(n_points=64, noise_sigma=0.01, seed=seed)
        corr = make_problem(spec, ball_cloud(64, rng), rng).correspondences
        good.append((corr.source.points, corr.target.points))
    line = np.linspace(-1.0, 1.0, 64)[:, None] * np.array([1.0, 2.0, 3.0])
    collinear = (line, line[::-1] + 0.5)
    overflow = (good[0][0] + np.array([1e300, 0.0, 0.0]), good[0][1])
    lanes = [good[0], collinear, overflow, good[1]]
    src, tgt = np.stack([c[0] for c in lanes]), np.stack([c[1] for c in lanes])
    init = RigidTransform.identity()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, t, ok, _ = _icp_lanes(src, tgt, *start_poses(init, len(lanes)), 50, 1e-9)
        assert ok.tolist() == [True, False, False, True]
        for k in (0, 3):
            alone = icp_baseline(PointCloud(src[k]), PointCloud(tgt[k]), init)
            assert_bitwise(r[k], alone.rotation.m)
            assert_bitwise(t[k], alone.translation)
        with pytest.raises(DegenerateGeometry):
            icp_baseline(PointCloud(src[1]), PointCloud(tgt[1]), init)
        with pytest.raises(NonFiniteDistance):
            icp_baseline(PointCloud(src[2]), PointCloud(tgt[2]), init)


def test_icp_cache_sends_few_rows_to_the_tree(monkeypatch):
    # Without the cache every row reaches the tree on every iteration.
    counted = []
    search = _LaneTrees.search

    def counting_search(self, lane, query, *args, **kwargs):
        counted.append(len(query))
        return search(self, lane, query, *args, **kwargs)

    monkeypatch.setattr(_LaneTrees, "search", counting_search)
    spec = ProblemSpec(seed=0, **ICP_SPEC)
    rng = Xoshiro256PlusPlus(0)
    corr = make_problem(spec, ball_cloud(2 * spec.n_points, rng), rng).correspondences
    src, tgt = corr.source.points[None], corr.target.points[None]
    _, _, ok, iters = _icp_lanes(src, tgt, *start_poses(RigidTransform.identity(), 1), 50, 1e-9)
    assert ok[0] and iters[0] > 10
    assert sum(counted) < 0.7 * corr.count * iters[0]


def test_surely_below_never_passes_a_distance_that_may_overflow():
    # The test behind ICP's cache: a near at or past _TREE_MAX_DISTANCE
    # fails even against an inf far (a second neighbor whose squared distance
    # overflowed), and so does a NaN distance or an inf slack, silently;
    # ordinary distances pass.
    near = [1.0, 0.5 * _TREE_MAX_DISTANCE, _TREE_MAX_DISTANCE, 1.2e154, 1e300, np.nan, 1.0, 1.0]
    far = [2.0, np.inf, np.inf, np.inf, np.inf, 2.0, np.nan, 2.0]
    slack = [1e-12, 1e-12, 0.0, 1e-12, 0.0, 0.0, 0.0, np.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        below = _surely_below(np.array(near), np.array(far), np.array(slack))
    assert below.tolist() == [True, True] + [False] * 6


def test_icp_requeries_a_cached_row_whose_distance_nears_overflow():
    # At 1e154 scale a row's second-nearest squared tree distance overflows
    # (an inf second distance, which the cache never shrinks), so only the
    # _TREE_MAX_DISTANCE guard sends the row back to the tree once its
    # cached distance grows past it; kept, its match would go stale.
    src = np.array(
        [[0.0, 0.0, -0.7], [-0.2, -0.2, 1.0], [0.1, 0.3, 0.2],
         [0.0, 0.1, 0.0], [-1.2, 0.1, -0.3], [-0.1, -0.5, -0.5]]
    ) * 1e154
    tgt = np.array(
        [[-0.2, 0.1, 0.2], [0.0, 0.1, -0.3], [-0.1, 0.4, -0.1], [0.3, 0.1, 0.6], [-0.5, 0.2, 0.5]]
    ) * 1e154
    init = RigidTransform(
        Rotation(so3.rotation_zyx(62.0, 114.0, -44.0, degrees=True)),
        np.array([0.6, 0.3, -0.1]) * 1e154,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, t, ok, iters = _icp_lanes(src[None], tgt[None], *start_poses(init, 1), 50, 1e-9)
    assert ok[0] and iters[0] > 2
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = brute_icp(PointCloud(src), PointCloud(tgt), init)
    assert_bitwise(r[0], oracle.rotation.m)
    assert_bitwise(t[0], oracle.translation)


def test_nearest_rejects_overflowing_distances():
    # The tree reports an overflowed distance as inf with the out-of-range
    # index M; nearest must name the failure, not index with M.
    query = np.array([[0.0, 0.0, 0.0], [1e300, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteDistance):
            nearest(query, np.eye(3))


# The lane-tagged kernel: a stack of lanes searched through grouped trees.
# Every lane must equal the brute-force oracle on that lane alone, bit for
# bit, whatever the other lanes of its group hold.


def groups_of(ref):
    """(first lane, last lane + 1, tagged) of each tree _LaneTrees builds."""
    groups = _LaneTrees(ref).groups
    return [(start, stop, step is not None) for start, stop, _, step in groups]


def search_lanes(query, ref, bound=None):
    """One _LaneTrees search of every row of (B, N, 3) queries against
    (B, M, 3) references: (B, N) indices, the (B, N) elementwise squared
    distances to the points found, and the (B,) finite mask."""
    b, n = query.shape[:2]
    index, _, finite = _LaneTrees(ref).search(np.repeat(np.arange(b), n), query.reshape(-1, 3), bound)
    index = index.reshape(b, n)
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = np.sum((query - np.take_along_axis(ref, index[:, :, None], axis=1)) ** 2, axis=2)
    return index, d2, finite


def assert_lanes_match_oracle(query, ref, bound=None):
    index, d2, finite = search_lanes(query, ref, bound)
    assert finite.all()
    for k in range(len(ref)):
        oracle_index, oracle_d2 = brute_nearest(query[k], ref[k])
        assert_bitwise(index[k], oracle_index)
        assert_bitwise(d2[k], oracle_d2)


def lane_clouds(seed, lanes, n, m):
    """Uniform queries and references, each lane at its own scale and offset."""
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.1, 10.0, size=(lanes, 1, 1))
    offset = rng.uniform(-5.0, 5.0, size=(lanes, 1, 3))
    query = rng.uniform(-1.0, 1.0, size=(lanes, n, 3)) * scale + offset
    ref = rng.uniform(-1.0, 1.0, size=(lanes, m, 3)) * scale + offset
    return query, ref


def tightest_bounds(query, ref):
    """Each lane's largest nearest distance: its nearest point lies at the bound."""
    return np.array([np.sqrt(brute_nearest(q, r)[1].max()) for q, r in zip(query, ref)])


def test_identical_lanes_are_separated_by_the_tag_alone():
    # Two lanes holding the same clouds share one tagged tree; each must
    # find its own copy (index within its lane), never the other lane's.
    query, ref = lane_clouds(0, 1, 40, 30)
    query, ref = np.concatenate([query, query]), np.concatenate([ref, ref])
    assert groups_of(ref) == [(0, 2, True)]
    assert_lanes_match_oracle(query, ref)
    # The tag alone keeps the other copy away: no row needs a re-scan (which
    # would report inf tree distances).
    targets = _LaneTrees(ref)
    _, dist, _ = targets.search(np.repeat([0, 1], 40), query.reshape(-1, 3))
    assert np.isfinite(dist).all()
    assert_lanes_match_oracle(query, ref, tightest_bounds(query, ref))
    # Queries that are the reference points: each is at distance 0 from its
    # own lane's copy and at exactly the tag step from the other lane's.
    assert_lanes_match_oracle(ref, ref, np.zeros(2))
    a, b = PointCloud(query[0]), PointCloud(ref[0])
    chamfers = _chamfers(query, ref)
    assert chamfers[0] == chamfers[1] == brute_chamfer(a, b)


def test_lanes_on_exact_data_with_zero_bounds():
    # Every nearest distance is 0, duplicates included; a bound of 0 searches
    # everything, alone in a group or next to lanes with positive bounds.
    rng = np.random.default_rng(1)
    ref = np.stack([tie_heavy_clouds(rng, 1, 20)[1][:30] for _ in range(6)])
    query = np.stack([lane[rng.permutation(len(lane))] for lane in ref])
    assert groups_of(ref) == [(0, 6, True)]
    assert_lanes_match_oracle(query, ref, np.zeros(6))
    assert not search_lanes(query, ref, np.zeros(6))[1].any()
    shift = np.array([0.0, 1e-3, 0.0, 0.5, 0.0, 0.0])
    noisy = query + shift[:, None, None] * np.array([1.0, 0.0, 0.0])
    assert_lanes_match_oracle(noisy, ref, shift)


def test_one_overflowing_lane_is_masked_and_the_others_keep_their_bytes():
    # A lane at 1e200 scale squares to inf: its Chamfer is NaN (an NA cell),
    # silently, and every other lane equals the oracle and its value alone.
    query, ref = lane_clouds(2, 5, 24, 24)
    query[2] *= 1e200
    ref[2] *= 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            bounds = np.sqrt(((query - ref) ** 2).sum(axis=2).max(axis=1))
        chamfers = _chamfers(query, ref)
        finite = search_lanes(query, ref, bounds)[2]
    assert np.isnan(chamfers[2]) and finite.tolist() == [True, True, False, True, True]
    for k in (0, 1, 3, 4):
        expected = brute_chamfer(PointCloud(query[k]), PointCloud(ref[k]))
        assert_bitwise(chamfers[k : k + 1], np.array([expected]))
        assert chamfer_distance(PointCloud(query[k]), PointCloud(ref[k])) == expected
    with pytest.raises(NonFiniteDistance):
        chamfer_distance(PointCloud(query[2]), PointCloud(ref[2]))


def test_lanes_of_one_reference_point():
    # M = 1: a group of many lanes, where every second neighbor lies in
    # another lane (or, alone, is absent).
    query, ref = lane_clouds(3, 300, 7, 1)
    assert groups_of(ref) == [(0, 300, True)]
    assert_lanes_match_oracle(query, ref)
    assert_lanes_match_oracle(query, ref, tightest_bounds(query, ref))
    assert_lanes_match_oracle(query[:1], ref[:1])


def test_lanes_with_different_bounds_in_one_group():
    # Lanes at scales 0.1 to 10 with their own tightest bounds: the group
    # searches to the largest, and each lane still gets the oracle's bytes.
    query, ref = lane_clouds(4, 12, 50, 40)
    bounds = tightest_bounds(query, ref)
    assert bounds.max() > 10.0 * bounds.min()
    assert groups_of(ref) == [(0, 12, True)]
    assert_lanes_match_oracle(query, ref, bounds)
    chamfers = _chamfers(query, ref)
    for k in range(12):
        assert chamfers[k] == brute_chamfer(PointCloud(query[k]), PointCloud(ref[k]))


def test_a_stack_spans_several_groups_and_a_short_last_one():
    # M = 100 puts ten lanes in a tree: 25 lanes are groups of 10, 10 and 5.
    query, ref = lane_clouds(5, 25, 60, 100)
    assert groups_of(ref) == [(0, 10, True), (10, 20, True), (20, 25, True)]
    assert_lanes_match_oracle(query, ref)
    assert_lanes_match_oracle(query, ref, tightest_bounds(query, ref))
    # A last group of one lane is searched untagged.
    assert groups_of(ref[:21])[-1] == (20, 21, False)
    assert_lanes_match_oracle(query[:21], ref[:21])


def test_rows_whose_nearest_point_lies_in_another_lane_are_rescanned():
    # Queries 50 times beyond the references' scale reach past the tag step,
    # so many rows find another lane's point first; they are re-scanned
    # against their own lane and reported with inf tree distances, so ICP
    # re-queries them.
    query, ref = lane_clouds(6, 8, 30, 20)
    query *= 50.0
    targets = _LaneTrees(ref)
    lane = np.repeat(np.arange(8), 30)
    index, dist, finite = targets.search(lane, query.reshape(-1, 3))
    assert finite.all() and np.isinf(dist).any()
    for k in range(8):
        assert_bitwise(index[30 * k : 30 * (k + 1)], brute_nearest(query[k], ref[k])[0])


def test_icp_lanes_of_one_group_converge_at_different_iterations():
    # Eight small problems share one tagged tree; lanes leave the loop at
    # different iterations and each equals brute-force ICP alone.
    lanes = []
    for seed in range(8):
        rng = Xoshiro256PlusPlus(seed)
        spec = ProblemSpec(n_points=40, noise_sigma=0.01, crop_keep_fraction=0.7,
                           independent_resample=True, seed=seed)
        corr = make_problem(spec, ball_cloud(80, rng), rng).correspondences
        lanes.append((corr.source.points, corr.target.points))
    src, tgt = np.stack([c[0] for c in lanes]), np.stack([c[1] for c in lanes])
    assert groups_of(tgt) == [(0, 8, True)]
    r, t, ok, iters = _icp_lanes(src, tgt, *start_poses(TURNED_INIT, 8), 50, 1e-9)
    assert ok.all() and len(set(iters.tolist())) > 2
    for k, (s, g) in enumerate(lanes):
        oracle = brute_icp(PointCloud(s), PointCloud(g), TURNED_INIT)
        assert_bitwise(r[k], oracle.rotation.m)
        assert_bitwise(t[k], oracle.translation)
