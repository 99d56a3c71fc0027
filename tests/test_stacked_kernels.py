"""The array kernels with a leading trial axis, and chunked execution.

Every lane of a stacked kernel call must equal, bit for bit, the same kernel
run on that lane alone (B = 1), whatever the other lanes hold: reflections,
nearly rank-2 sources, lanes masked as degenerate and lanes whose every
refine step falls back. `run_experiment` relies on this to give the same
bytes at any chunk size.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import random_problem, random_rotation

from rigid_refine import (
    CorrespondenceSet,
    DegenerateGeometry,
    Xoshiro256PlusPlus,
    divergence_report,
    estimate_pose_kabsch,
    refine,
)
from rigid_refine import cli
from rigid_refine.cli import ExperimentConfig, records_to_csv, run_experiment, run_trial
from rigid_refine.core import _centered, _dot
from rigid_refine.diagnostics import _divergence, _unconstrained
from rigid_refine.kabsch import _cross_covariance, _kabsch_pose
from rigid_refine.metrics import (
    _augmented_losses,
    _mean_point_distances,
    _rotation_errors,
    _translation_errors,
)
from rigid_refine.refiner import _refine_steps
from rigid_refine.synth import ProblemSpec

N = 12
REFINEMENTS = 5

# Lane roles in the mixed stack below.
REFLECTION, THIN_SLAB, COLLINEAR, NEAR_COLLINEAR = 1, 2, 3, 4


def mixed_problems():
    """Six problems of N points whose lanes exercise every kernel branch."""
    rng = Xoshiro256PlusPlus(97_000)
    noisy, _ = random_problem(seed=97_001, n=N, noise=0.02, weighted=True)
    src = rng.uniforms(3 * N, -1.0, 1.0).reshape(N, 3)
    # A mirror image: det(H) < 0, so the reflection guard flips a sign.
    mirrored = src * np.array([1.0, 1.0, -1.0]) + 0.01 * rng.normals(3 * N).reshape(N, 3)
    rot = random_rotation(rng)
    slab = src * np.array([1.0, 1.0, 1e-6])  # S nearly rank 2
    line = np.outer(np.linspace(-1.0, 1.0, N), (0.48, -0.6, 0.64))
    # Off the line by 1e-7, matched to a noisy target: H still determines a
    # rotation, but d_2 / (d_0 + d_1) ~ 1e14 makes every refine step singular.
    near_line = line + 1e-7 * rng.normals(3 * N).reshape(N, 3)
    noisy_line = rot.apply(line) + 0.01 * rng.normals(3 * N).reshape(N, 3)
    plain, _ = random_problem(seed=97_002, n=N, noise=0.05)
    return [
        noisy,
        CorrespondenceSet.from_arrays(src, mirrored),
        CorrespondenceSet.from_arrays(slab, rot.apply(slab) + 0.3),
        CorrespondenceSet.from_arrays(line, rot.apply(line) + 0.3),
        CorrespondenceSet.from_arrays(near_line, noisy_line),
        plain,
    ]


def stacked(problems):
    return (
        np.stack([p.source.points for p in problems]),
        np.stack([p.target.points for p in problems]),
        np.stack([p.weights for p in problems]),
    )


def lane(arrays, b):
    """Lane b of each array as a stack of one."""
    return tuple(a[b : b + 1] for a in arrays)


def assert_bits_equal(stack, lone):
    assert stack.shape == lone.shape
    assert stack.dtype == lone.dtype
    assert stack.tobytes() == lone.tobytes()


def assert_lanes_are_lone_runs(kernel, *arrays):
    """kernel(*arrays) equals kernel on each lane alone, in every output."""
    outputs = kernel(*arrays)
    for b in range(len(arrays[0])):
        lone = kernel(*lane(arrays, b))
        for stack_out, lone_out in zip(outputs, lone):
            assert_bits_equal(stack_out[b : b + 1], lone_out)
    return outputs


def solved_stack():
    """The mixed stack through Kabsch and refine: (source points, Kabsch
    mask, the _refine_steps inputs, its _Refinement)."""
    src, tgt, w = stacked(mixed_problems())
    r0, t0, ok = _kabsch_pose(src, tgt, w)
    # Masked lanes start from the identity, as a caller would.
    r0 = np.where(ok[:, None, None], r0, np.eye(3))
    source, source_mean = _centered(src, w)
    target, target_mean = _centered(tgt, w)
    inputs = (source, target, w, source_mean, target_mean, r0, t0)
    return src, ok, inputs, _refine_steps(*inputs, REFINEMENTS)


def test_the_mixed_stack_has_the_lanes_it_claims():
    src, tgt, w = stacked(mixed_problems())
    source, _ = _centered(src, w)
    target, _ = _centered(tgt, w)
    h = _cross_covariance(target, source, w)
    assert np.linalg.det(h[REFLECTION]) < 0.0
    s_mat = _cross_covariance(source, source, w)
    d = np.linalg.eigvalsh(s_mat)
    assert d[THIN_SLAB, 0] < 1e-10 * d[THIN_SLAB, 2]
    assert d[NEAR_COLLINEAR, 2] > 1e12 * (d[NEAR_COLLINEAR, 0] + d[NEAR_COLLINEAR, 1])


def test_stacked_linear_algebra_equals_per_matrix_calls():
    # A numpy/BLAS property the kernels rely on, pinned here.
    rng = np.random.default_rng(5)
    m = rng.standard_normal((500, 3, 3))
    a = rng.standard_normal((500, 3, 3))
    sym = m @ m.swapaxes(1, 2)
    for stack_out, lone_out in (
        (m @ a, [x @ y for x, y in zip(m, a)]),
        (m.swapaxes(1, 2) @ a, [x.T @ y for x, y in zip(m, a)]),
        (np.linalg.det(m), [np.linalg.det(x) for x in m]),
        (np.linalg.solve(sym, a), [np.linalg.solve(x, y) for x, y in zip(sym, a)]),
        *zip(np.linalg.svd(m), zip(*[np.linalg.svd(x) for x in m])),
        *zip(np.linalg.eigh(sym), zip(*[np.linalg.eigh(x) for x in sym])),
    ):
        assert_bits_equal(stack_out, np.array(lone_out))


def test_dot_is_ddot_row_by_row():
    rng = np.random.default_rng(6)
    for k in (3, 9):
        x = rng.standard_normal((2000, k)) * rng.uniform(0.1, 10.0, (2000, 1))
        assert_bits_equal(_dot(x, x), np.array([v @ v for v in x]))
        assert_bits_equal(np.sqrt(_dot(x, x)), np.array([np.linalg.norm(v) for v in x]))
    columns = rng.standard_normal((2000, 3, 3))[:, :, 1]  # strided rows
    assert_bits_equal(_dot(columns, columns), np.array([v @ v for v in columns]))


def test_kabsch_lanes_are_lone_runs_and_masks_degenerate_geometry():
    src, tgt, w = stacked(mixed_problems())
    r, t, ok = assert_lanes_are_lone_runs(_kabsch_pose, src, tgt, w)
    assert ok.tolist() == [True, True, True, False, True, True]
    assert np.linalg.det(r[REFLECTION]) == pytest.approx(1.0)


def test_refine_steps_lanes_are_lone_runs_and_mask_fallbacks():
    _, _, inputs, steps = solved_stack()
    assert_lanes_are_lone_runs(
        lambda *a: tuple(vars(_refine_steps(*a, REFINEMENTS)).values()), *inputs
    )
    assert steps.finite.all()
    for b in (COLLINEAR, NEAR_COLLINEAR):
        assert not steps.stepped[b].any()
        assert np.isnan(steps.lambdas[b]).all()
        assert (steps.rotations[b] == steps.rotations[b, 0]).all()
    others = [b for b in range(len(steps.finite)) if b not in (COLLINEAR, NEAR_COLLINEAR)]
    assert steps.stepped[others].all()


def test_divergence_and_metric_lanes_are_lone_runs():
    src, _, (source, target, w, *_), steps = solved_stack()
    stats = _divergence(steps.rotations, target, source, w)
    for b in range(len(w)):
        lone = _divergence(*lane((steps.rotations, target, source, w), b))
        for name, value in stats.items():
            assert_bits_equal(value[b : b + 1], lone[name])
    # Its target lies on a line too, so G is singular: no column predictors.
    assert not _unconstrained(target, source, w).solved[COLLINEAR]
    assert np.isnan(stats["max_col_distance"][COLLINEAR])

    rng = Xoshiro256PlusPlus(97_100)
    gt_r = np.stack([random_rotation(rng).m for _ in w])
    gt_t = rng.normals(3 * len(w)).reshape(-1, 3)
    r, t = steps.rotations[:, -1], steps.translations[:, -1]
    assert_lanes_are_lone_runs(_rotation_errors, r, gt_r)
    assert_lanes_are_lone_runs(_translation_errors, t - gt_t)
    assert_lanes_are_lone_runs(lambda *a: (_mean_point_distances(*a),), src, r, t, gt_r, gt_t)
    assert_lanes_are_lone_runs(
        lambda *a: (_augmented_losses(*a),), steps.rotations, steps.translations, gt_r, gt_t
    )


def test_public_functions_are_the_kernels_at_one_lane():
    problems = mixed_problems()
    _, ok, (source, target, w, *_), steps = solved_stack()
    for b, corr in enumerate(problems):
        if not ok[b]:
            with pytest.raises(DegenerateGeometry):
                estimate_pose_kabsch(corr)
            continue
        init = estimate_pose_kabsch(corr)
        assert_bits_equal(init.rotation.m, steps.rotations[b, 0])
        assert_bits_equal(init.translation, steps.translations[b, 0])
        trace = refine(corr, init, REFINEMENTS)
        for k, pose in enumerate(trace.poses):
            assert_bits_equal(pose.rotation.m, steps.rotations[b, k])
            assert_bits_equal(pose.translation, steps.translations[b, k])
        assert trace.fallback_count == int((~steps.stepped[b]).sum())
        report = divergence_report(trace)
        stats = _divergence(*lane((steps.rotations, target, source, w), b))
        assert report.divergence == stats["divergence"][0]
        assert report.per_iteration_chordal == tuple(stats["per_iteration_chordal"][0])
        distance = stats["max_col_distance"][0]
        # A thin slab's target is nearly planar too: no column predictors.
        assert report.max_col_distance == (None if b == THIN_SLAB else distance)
        assert np.isnan(distance) == (b == THIN_SLAB)
        assert report.det_g_normalized == stats["det_g_normalized"][0]
    near_line = problems[NEAR_COLLINEAR]
    assert refine(near_line, estimate_pose_kabsch(near_line)).fallback_count == REFINEMENTS


# ---------------------------------------------------------------------------
# Chunked execution


def refined_config(n_points, trials, **spec):
    return ExperimentConfig(
        problem=ProblemSpec(n_points=n_points, noise_sigma=0.01, seed=4_200, **spec),
        method="refined",
        trials=trials,
    )


SPEC_16 = ProblemSpec(n_points=16, noise_sigma=0.02, seed=77)

CHUNK_CONFIGS = {
    # At N = 1024 a default chunk holds at most 32 trials.
    "n1024": (refined_config(1024, 37), 0),
    # 12 of these crops fail: NA rows among solved ones at every chunk size.
    "n25_failing_crops": (refined_config(25, 37, crop_keep_fraction=0.35), 12),
    "refined": (
        ExperimentConfig(problem=SPEC_16, method="refined", refinements=3, trials=11), 0
    ),
    "kabsch": (ExperimentConfig(problem=SPEC_16, method="kabsch", trials=11), 0),
    # The ICP lanes of one chunk iterate together until the last one stops.
    "icp": (
        ExperimentConfig(
            problem=ProblemSpec(
                n_points=60, noise_sigma=0.01, crop_keep_fraction=0.7,
                independent_resample=True, seed=77,
            ),
            method="icp", trials=11,
        ),
        0,
    ),
}


@pytest.mark.parametrize("name", CHUNK_CONFIGS)
def test_run_experiment_bytes_do_not_depend_on_chunks(monkeypatch, name):
    config, na_rows = CHUNK_CONFIGS[name]
    texts = []
    # Chunks of 1, 3 and 4 trials, then all of them; 3 and 4 divide no trial
    # count here, so those runs end with a short chunk.
    for size in (1, 3, 4, config.trials):
        monkeypatch.setattr(cli, "CHUNK_POINTS", size * config.problem.n_points)
        assert cli._chunk_size(config) == size
        assert size in (1, config.trials) or config.trials % size
        texts.append(records_to_csv(run_experiment(config)))
    assert texts[1:] == texts[:1] * 3
    assert texts[0] == records_to_csv([run_trial(config, i) for i in range(config.trials)])
    assert texts[0].count(",NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA") == na_rows


def test_chunk_size_follows_trials_and_points():
    assert cli._chunk_size(refined_config(32, 1000)) == 1000
    assert cli._chunk_size(refined_config(1024, 1000)) == cli.CHUNK_POINTS // 1024
    assert cli._chunk_size(refined_config(32, 1)) == 1
    assert cli._chunk_size(refined_config(10**6, 5)) == 1
    # ICP chunks like every method: its lanes iterate together.
    icp = ExperimentConfig(problem=ProblemSpec(n_points=717), method="icp", trials=1000)
    assert cli._chunk_size(icp) == cli.CHUNK_POINTS // 717
    assert cli._chunk_size(replace(icp, trials=8)) == 8
