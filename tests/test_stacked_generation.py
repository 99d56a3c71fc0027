"""Stacked problem generation against the per-trial oracle.

synth makes a chunk's problems as stacked arrays from one block of RNG lanes
(rng._Lanes). Every lane must equal, byte for byte, the problem the
per-trial pipeline of tests/problem_oracle.py makes from the same seed, and
leave its stream where the oracle leaves its generator (told by their next
draws): on every spec
branch, on the rare redraw paths (forced here by tightening the limits of
the library and of the one-draw-at-a-time oracle together), and with crops
that retry or fail. The public make_problem runs the same kernel on one
lane and must match too.
"""

import numpy as np
import pytest

import problem_oracle
import rng_oracle
from rigid_refine import InsufficientPoints, LabeledProblem, ProblemSpec, make_problem, synth
from rigid_refine import core
from rigid_refine import rng as rng_module
from rigid_refine.cli import ExperimentConfig, run_experiment
from rigid_refine.rng import Xoshiro256PlusPlus, _Lanes
from rigid_refine.synth import _trial_draws

SPEC_CASES = [
    (cloud, resample, sigma, keep, cloud_points)
    for cloud in ("ball", "sphere", "slab")
    for resample in (False, True)
    for sigma in (0.0, 0.01)
    for keep in (1.0, 0.7)
    for cloud_points in (0, 90)
]


def spec_of(case, n=20):
    cloud, resample, sigma, keep, cloud_points = case
    return ProblemSpec(
        n_points=n, noise_sigma=sigma, crop_keep_fraction=keep,
        independent_resample=resample, cloud=cloud, cloud_points=cloud_points,
    )


def stacked(spec, seeds):
    """One block of lanes for the seeds, and the problems made from it (None
    where the spec leaves too few points)."""
    (lanes,) = _Lanes.prefetched(seeds, _trial_draws(spec))
    try:
        return synth._make_problems(spec, synth._base_clouds(spec, lanes), lanes), lanes
    except InsufficientPoints:
        return None, lanes


def same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_lane_is_oracle(problems, b, problem):
    """Lane b of stacked problems holds the oracle's LabeledProblem (or is
    unmade where the oracle made none)."""
    source, target, gt_r, gt_t, overlap, made = problems
    assert made[b] == (problem is not None)
    if problem is not None:
        corr = problem.correspondences
        same_bytes(source[b], corr.source.points)
        same_bytes(target[b], corr.target.points)
        same_bytes(gt_r[b], problem.gt.rotation.m)
        same_bytes(gt_t[b], problem.gt.translation)
        same_bytes(overlap[b], problem.overlap_mask)


def assert_matches_oracle(spec, seeds, generator=Xoshiro256PlusPlus):
    """The stacked block of the seeds equals the oracle lane by lane, in
    bytes and stream position (the next 4 draws); returns the made mask."""
    problems, lanes = stacked(spec, seeds)
    oracles = []
    for b, seed in enumerate(seeds):
        problem, rng = problem_oracle.problem(spec, seed, generator)
        if problems is None:
            assert problem is None
        else:
            assert_lane_is_oracle(problems, b, problem)
        oracles.append(rng)
    assert lanes._take(4).tolist() == [rng_oracle.next_draws(rng) for rng in oracles]
    return np.zeros(len(seeds), dtype=bool) if problems is None else problems[-1]


def redrawn(spec, seeds, generator=Xoshiro256PlusPlus):
    """Mask of the seeds whose oracle problem takes more draws than
    _trial_draws(spec), by its position after the problem."""
    count = _trial_draws(spec)
    moved = []
    for seed in seeds:
        _, rng = problem_oracle.problem(spec, seed, generator)
        predicted = rng_oracle.stream(rng_oracle.seed_state(seed), {count + 4})[0][count:]
        moved.append(rng_oracle.next_draws(rng) != predicted)
    return np.array(moved)


@pytest.mark.parametrize("case", SPEC_CASES)
def test_stacked_problems_match_the_per_trial_oracle(case):
    spec = spec_of(case)
    seeds = list(range(7, 19))
    assert assert_matches_oracle(spec, seeds).all()
    # Nothing is redrawn on these seeds: every lane takes exactly the draws
    # _trial_draws predicts, so its next draws follow them.
    _, lanes = stacked(spec, seeds)
    count = _trial_draws(spec)
    predicted = [rng_oracle.stream(rng_oracle.seed_state(seed), {count + 4})[0][count:] for seed in seeds]
    assert lanes._take(4).tolist() == predicted


@pytest.mark.parametrize("case", SPEC_CASES[::3])
def test_public_make_problem_is_the_kernel_at_one_lane(case):
    spec = spec_of(case)
    for seed in (3, 4):
        want, oracle = problem_oracle.problem(spec, seed)
        rng = Xoshiro256PlusPlus(seed)
        got = make_problem(spec, problem_oracle.base_cloud(spec, rng), rng)
        lane = (
            got.correspondences.source.points[None],
            got.correspondences.target.points[None],
            got.gt.rotation.m[None],
            got.gt.translation[None],
            got.overlap_mask[None],
            np.ones(1, dtype=bool),
        )
        assert_lane_is_oracle(lane, 0, want)
        assert rng_oracle.same_position(rng, oracle)


def test_problems_are_bit_identical_at_paper_scale():
    spec = ProblemSpec(n_points=1024, noise_sigma=0.01)
    assert assert_matches_oracle(spec, [2000, 2001, 2002]).all()


def test_norm_redraws_leave_the_step(monkeypatch):
    # With a floor of 1 about one Gaussian triple in five is redrawn, in the
    # base clouds and the crop normals alike; the scalar oracle redraws the
    # same triples.
    monkeypatch.setattr(rng_module, "_NORM_FLOOR", 1.0)
    monkeypatch.setattr(rng_oracle, "NORM_FLOOR", 1.0)
    for case in (("ball", True, 0.01, 0.7, 0), ("sphere", False, 0.0, 0.7, 90)):
        spec = spec_of(case, n=6)
        seeds = list(range(12))
        assert_matches_oracle(spec, seeds, rng_oracle.ScalarXoshiro256PlusPlus)
        assert redrawn(spec, seeds, rng_oracle.ScalarXoshiro256PlusPlus).any()


def test_integer_rejections_leave_the_step(monkeypatch):
    # Accept only draws below about 2^62: three draws in four are rejected,
    # so every shuffle redraws.
    monkeypatch.setattr(rng_oracle, "rejection_limit", lambda n: ((1 << 62) // n) * n)
    monkeypatch.setattr(
        rng_module,
        "_largest_accepted",
        lambda bounds: (np.uint64(1 << 62) // bounds) * bounds - np.uint64(1),
    )
    spec = spec_of(("slab", True, 0.01, 1.0, 40), n=8)
    seeds = list(range(10))
    assert_matches_oracle(spec, seeds, rng_oracle.ScalarXoshiro256PlusPlus)
    assert redrawn(spec, seeds, rng_oracle.ScalarXoshiro256PlusPlus).all()


def test_crop_retries_and_unmade_lanes_interleave():
    # keep = floor(0.35 * 25) = 8 points must share ceil(0.3 * 25) = 8
    # indices: lanes retry, many for a long time, and some never succeed.
    spec = ProblemSpec(n_points=25, noise_sigma=0.01, crop_keep_fraction=0.35)
    seeds = list(range(40))
    made = assert_matches_oracle(spec, seeds)
    assert 0 < made.sum() < len(seeds)
    assert (np.diff(made.astype(int)) != 0).sum() >= 4  # made and unmade alternate
    same = synth._problems(spec, seeds)
    for got, want in zip(same, stacked(spec, seeds)[0]):
        same_bytes(got, want)


def test_insufficient_points_make_no_lane():
    for spec in (
        ProblemSpec(n_points=40, cloud_points=30),
        ProblemSpec(n_points=20, cloud_points=30, independent_resample=True),
        ProblemSpec(n_points=2, crop_keep_fraction=0.3),
    ):
        source, target, gt_r, gt_t, overlap, made = synth._problems(spec, [0, 1, 2])
        assert not made.any()
        assert source.shape == target.shape == (3, 0, 3) and overlap.shape == (3, 0)
        assert gt_r.shape == (3, 3, 3) and gt_t.shape == (3, 3)
        assert not assert_matches_oracle(spec, [0, 1, 2]).any()


def test_chunk_builds_no_per_trial_containers(monkeypatch):
    built = []
    for cls in (LabeledProblem, core.CorrespondenceSet, core.RigidTransform, core.Rotation):
        original = cls.__post_init__

        def spy(self, original=original, name=cls.__name__):
            built.append(name)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
    spec = ProblemSpec(n_points=32, noise_sigma=0.01)
    records = run_experiment(ExperimentConfig(problem=spec, method="refined", trials=1000))
    assert len(records) == 1000 and all(r.iso_rot_deg is not None for r in records)
    assert built == []


def test_stacked_path_splits_its_kernel_calls(monkeypatch):
    # A block holds at most _PREFETCH_DRAWS draws (at least one lane), so a
    # large cloud cannot make a chunk allocate without bound.
    spec = ProblemSpec(n_points=16, noise_sigma=0.01, cloud_points=50, crop_keep_fraction=0.8)
    seeds = list(range(10))
    whole = synth._problems(spec, seeds)
    calls = []
    streams = rng_module._streams

    def counted(states, n):
        calls.append((len(states), n))
        return streams(states, n)

    monkeypatch.setattr(rng_module, "_streams", counted)
    monkeypatch.setattr(rng_module, "_PREFETCH_DRAWS", 3 * _trial_draws(spec) + 1)
    split = synth._problems(spec, seeds)
    assert calls == [(3, _trial_draws(spec))] * 3 + [(1, _trial_draws(spec))]
    for got, want in zip(split, whole):
        same_bytes(got, want)
    monkeypatch.setattr(rng_module, "_PREFETCH_DRAWS", 1)
    calls.clear()
    synth._problems(spec, seeds[:2])
    assert calls == [(1, _trial_draws(spec))] * 2


@pytest.mark.parametrize(
    "poses, message",
    [
        (lambda r, t: (2.0 * r, t), "matrix not orthogonal"),
        (lambda r, t: (r[:, ::-1].copy(), t), "matrix not a proper rotation"),
        (lambda r, t: (r, np.full_like(t, np.nan)), "translation must be finite"),
    ],
)
def test_chunk_raises_the_containers_errors(monkeypatch, poses, message):
    # One stacked check per chunk stands in for the containers' checks.
    real = synth._poses
    monkeypatch.setattr(synth, "_poses", lambda spec, lanes: poses(*real(spec, lanes)))
    with pytest.raises(ValueError, match=message):
        synth._problems(ProblemSpec(n_points=8), [0, 1])
