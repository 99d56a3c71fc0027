"""Analytic refine-step Jacobian vs finite differences; SVD-gradient gate."""

import numpy as np
import pytest

from rigid_refine import (
    CorrespondenceSet,
    DegenerateGeometry,
    IllConditioned,
    Jacobian,
    PointCloud,
    RigidTransform,
    SingularSystem,
    Xoshiro256PlusPlus,
    center,
    cross_covariance,
    estimate_pose_kabsch,
    finite_difference_jacobian,
    flatten_inputs,
    gradcheck,
    jacobian_kabsch,
    jacobian_refine_step,
    kabsch_outputs,
    kabsch_rotation,
    max_relative_error,
    refine,
    refine_step_outputs,
)
from rigid_refine.core import CHUNK_POINTS
from rigid_refine.gradcheck import FD_STEP

from conftest import random_problem


def prepared(seed, n, noise=0.02):
    corr, _ = random_problem(seed=seed, n=n, noise=noise, weighted=True)
    cc = center(corr)
    r_prev = estimate_pose_kabsch(corr).rotation
    return cc, r_prev


# The per-probe path the stacked finite differences replaced, kept as their
# byte oracle: one public refine / Kabsch call per probe, each on its own
# CorrespondenceSet.


def raw_correspondences(x, n):
    return CorrespondenceSet.from_arrays(
        x[: 3 * n].reshape(n, 3), x[3 * n : 6 * n].reshape(n, 3), x[6 * n :]
    )


def refine_probe(x, n, r_prev):
    pose = refine(raw_correspondences(x, n), RigidTransform(r_prev, np.zeros(3)), 1).poses[1]
    return np.concatenate([pose.rotation.m.reshape(9, order="F"), pose.translation])


def kabsch_probe(x, n):
    return kabsch_rotation(cross_covariance(center(raw_correspondences(x, n)))).m.reshape(
        9, order="F"
    )


def per_probe_jacobian(fn, x0, step=FD_STEP):
    columns = []
    for i in range(x0.size):
        xp = x0.copy()
        xp[i] += step
        xm = x0.copy()
        xm[i] -= step
        columns.append((fn(xp) - fn(xm)) / (2.0 * step))
    return np.array(columns).T


def oracle_inputs(cc):
    # Raw points rebuilt from the centered problem, independently of
    # flatten_inputs, which must agree to the byte.
    src = cc.source_centered.points + cc.source_mean
    tgt = cc.target_centered.points + cc.target_mean
    x0 = np.concatenate([src.ravel(), tgt.ravel(), cc.weights])
    x, n = flatten_inputs(cc)
    assert n == cc.count and x.tobytes() == x0.tobytes()
    return x0, n


def test_stacked_finite_differences_match_the_per_probe_public_path():
    cases = [prepared(14_000 + n, n) for n in (4, 16, 64)]
    spectrum = designed_spectrum(3.0, 1.1, -1.0)
    cases.append((spectrum, kabsch_rotation(cross_covariance(spectrum))))
    for cc, r_prev in cases:
        x0, n = oracle_inputs(cc)
        stacked = finite_difference_jacobian(lambda x: refine_step_outputs(x, n, r_prev), x0)
        oracle = per_probe_jacobian(lambda x: refine_probe(x, n, r_prev), x0)
        assert stacked.shape == (12, 7 * n)
        assert stacked.tobytes() == oracle.tobytes()
        stacked = finite_difference_jacobian(lambda x: kabsch_outputs(x, n), x0)
        oracle = per_probe_jacobian(lambda x: kabsch_probe(x, n), x0)
        assert stacked.tobytes() == oracle.tobytes()


def test_finite_difference_probes_are_sliced_by_chunk_points(monkeypatch):
    # 896 probe rows of 64 points are 57344 points: two calls of <= 2^15.
    cc, r_prev = prepared(14_064, 64)
    x0, n = flatten_inputs(cc)
    run = gradcheck._refine_steps
    stacked_points = []

    def recorded(source, *args):
        stacked_points.append(source.shape[0] * source.shape[1])
        return run(source, *args)

    monkeypatch.setattr(gradcheck, "_refine_steps", recorded)
    sliced = finite_difference_jacobian(lambda x: refine_step_outputs(x, n, r_prev), x0)
    assert len(stacked_points) >= 2
    assert max(stacked_points) <= CHUNK_POINTS
    assert sum(stacked_points) == 2 * x0.size * n
    monkeypatch.setattr(gradcheck, "CHUNK_POINTS", 1 << 30)
    whole = finite_difference_jacobian(lambda x: refine_step_outputs(x, n, r_prev), x0)
    assert len(stacked_points) == 3
    assert sliced.tobytes() == whole.tobytes()


def test_jacobian_shape_and_block_accessors():
    cc, r_prev = prepared(51, 5)
    jac = jacobian_refine_step(cc, r_prev)
    assert jac.matrix.shape == (12, 35)
    assert jac.rotation_rows.shape == (9, 35)
    assert jac.translation_rows.shape == (3, 35)
    assert jac.source_cols.shape == (12, 15)
    assert jac.target_cols.shape == (12, 15)
    assert jac.weight_cols.shape == (12, 5)


def test_jacobian_matches_finite_differences():
    for seed, n in ((52, 4), (53, 10), (54, 24)):
        cc, r_prev = prepared(seed, n)
        jac = jacobian_refine_step(cc, r_prev)
        x0, count = flatten_inputs(cc)
        fd = finite_difference_jacobian(
            lambda x: refine_step_outputs(x, count, r_prev), x0
        )
        assert max_relative_error(jac.matrix, fd) <= 1e-5


def test_jacobian_common_translation_gauge():
    # Shifting both clouds by the same vector leaves the rotation unchanged
    # (centering removes the shift), so the rotation-row sums over per-point
    # translation directions must vanish.
    cc, r_prev = prepared(55, 8)
    jac = jacobian_refine_step(cc, r_prev)
    n = cc.weights.size
    rot = jac.rotation_rows
    for axis in range(3):
        src_sum = sum(rot[:, 3 * j + axis] for j in range(n))
        tgt_sum = sum(rot[:, 3 * n + 3 * j + axis] for j in range(n))
        assert np.abs(src_sum + tgt_sum).max() <= 1e-8
        # target-only common shift also cancels in R
        assert np.abs(tgt_sum).max() <= 1e-8


def test_jacobian_translation_gauge_sums():
    # A common shift of the target moves t by exactly that shift; a common
    # shift of the source moves t by -R'. Column sums must reproduce both.
    cc, r_prev = prepared(56, 7)
    jac = jacobian_refine_step(cc, r_prev)
    n = cc.weights.size
    x0, count = flatten_inputs(cc)
    out = refine_step_outputs(x0[None], count, r_prev)[0]
    r_new = out[:9].reshape(3, 3, order="F")
    tr = jac.translation_rows
    src_block = sum(tr[:, 3 * j : 3 * j + 3] for j in range(n))
    tgt_block = sum(tr[:, 3 * n + 3 * j : 3 * n + 3 * j + 3] for j in range(n))
    assert np.abs(tgt_block - np.eye(3)).max() <= 1e-8
    assert np.abs(src_block + r_new).max() <= 1e-8


def test_jacobian_weight_scaling_gauge():
    # Outputs are invariant to uniform weight scaling, so the weighted sum of
    # weight-derivative columns must vanish (Euler's relation, degree 0).
    cc, r_prev = prepared(57, 9)
    jac = jacobian_refine_step(cc, r_prev)
    weighted_sum = jac.weight_cols @ cc.weights
    assert np.abs(weighted_sum).max() <= 1e-8


def test_jacobian_fixed_point_weight_rows_vanish():
    # At exact correspondences the refined pose sits at the optimum for any
    # weights, so every weight derivative of the rotation is zero.
    corr, _ = random_problem(seed=58, n=10, weighted=True)
    cc = center(corr)
    r_prev = estimate_pose_kabsch(corr).rotation
    jac = jacobian_refine_step(cc, r_prev)
    assert np.abs(jac.rotation_rows[:, 6 * 10 :]).max() <= 1e-8


def test_jacobian_rotation_rows_tangent_space():
    # First-order perturbations of the assembled rotation must satisfy
    # R^T dR + dR^T R = 0 (orthogonality preserved to first order).
    cc, r_prev = prepared(59, 8)
    jac = jacobian_refine_step(cc, r_prev)
    x0, count = flatten_inputs(cc)
    out = refine_step_outputs(x0[None], count, r_prev)[0]
    r_new = out[:9].reshape(3, 3, order="F")
    rng = Xoshiro256PlusPlus(60)
    for _ in range(10):
        dx = np.array([rng.uniform(-1, 1) for _ in range(x0.size)])
        dr = (jac.rotation_rows @ dx).reshape(3, 3, order="F")
        sym = r_new.T @ dr + dr.T @ r_new
        assert np.abs(sym).max() <= 1e-6 * max(1.0, np.abs(dr).max())


def test_finite_difference_jacobian_on_quadratic():
    # Exact for quadratics up to roundoff: f(x) = (x0^2, x0*x1), row-wise.
    def fn(x):
        return np.stack([x[:, 0] ** 2, x[:, 0] * x[:, 1]], axis=1)

    x0 = np.array([1.5, -2.0])
    jac = finite_difference_jacobian(fn, x0)
    expected = np.array([[3.0, 0.0], [-2.0, 1.5]])
    assert np.abs(jac - expected).max() <= 1e-9


def test_kabsch_jacobian_well_separated_stable_under_step_halving():
    cc, _ = prepared(61, 12, noise=0.05)
    j1 = jacobian_kabsch(cc, step=1e-6)
    j2 = jacobian_kabsch(cc, step=5e-7)
    denom = max(1.0, np.abs(j1.matrix).max())
    assert np.abs(j1.matrix - j2.matrix).max() / denom <= 1e-3
    assert j1.matrix.shape == (9, 7 * 12)


def test_kabsch_jacobian_equal_singular_values_rejected():
    # The +-e_i octahedron has an exactly isotropic second moment, so the
    # cross covariance of the identity problem has three equal singular
    # values: the documented undefined-gradient case.
    pts = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ]
    )
    cc = center(CorrespondenceSet.from_arrays(pts, pts))
    with pytest.raises(IllConditioned):
        jacobian_kabsch(cc)


def designed_spectrum(s1, s2, s3):
    # +-pair construction: weighted means are exactly zero, so the centered
    # cross covariance is exactly 2 * diag(s1, s2, s3) (signs included).
    src = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ]
    )
    scale = np.array([s1, s1, s2, s2, s3, s3]) / 2.0
    return center(CorrespondenceSet.from_arrays(src, src * scale[:, None]))


def test_kabsch_jacobian_reflection_gap_sweep_grows_inversely():
    # With a negative determinant the estimator flips the smallest singular
    # direction, and its derivative picks up a 1/(s2 - s3) term; shrinking
    # that gap must inflate the worst row norm in proportion.
    gaps = [0.2, 0.1, 0.05, 0.02, 0.01]
    stats = []
    for gap in gaps:
        j = jacobian_kabsch(designed_spectrum(3.0, 1.0 + gap, -1.0))
        stats.append(np.linalg.norm(j.matrix, axis=1).max())
    assert all(stats[i] < stats[i + 1] for i in range(len(gaps) - 1))
    products = [stat * gap for stat, gap in zip(stats, gaps)]
    assert max(products) / min(products) <= 1.2


def test_kabsch_jacobian_proper_regime_flat_across_same_gaps():
    # Contrast case: a positive determinant cancels the gap terms (the
    # sensitivity is 1/(s_i + s_j)), so the very gaps that blow up the
    # reflection branch leave the derivative bounded here.
    for gap in [0.2, 0.1, 0.05, 0.02, 0.01]:
        j = jacobian_kabsch(designed_spectrum(3.0, 1.0 + gap, 1.0))
        assert np.linalg.norm(j.matrix, axis=1).max() <= 2.0


def test_kabsch_jacobian_equal_singular_values_reflection_rejected():
    with pytest.raises(IllConditioned):
        jacobian_kabsch(designed_spectrum(3.0, 1.0, -1.0))


def test_max_relative_error_semantics():
    a = np.array([[1.0, 0.0]])
    assert max_relative_error(a, a) == 0.0
    # pure-absolute regime at zero reference: floor 1e-8 at rel 1e-5 means
    # |diff| = 1e-8 sits exactly at the threshold
    b = np.array([[1.0, 1e-8]])
    assert max_relative_error(b, a) == pytest.approx(1e-5)
    # relative regime: 1e-5 relative diff on a large entry
    c = np.array([[1.0 + 1e-5, 0.0]])
    assert max_relative_error(c, a) == pytest.approx(1e-5, rel=1e-2)


def test_jacobian_type_validates():
    with pytest.raises(ValueError):
        Jacobian(np.full((12, 14), np.nan), n_points=2)
    with pytest.raises(ValueError):
        Jacobian(np.zeros((11, 14)), n_points=2)


def test_kabsch_outputs_consistent_with_estimator():
    corr, _ = random_problem(seed=62, n=9, noise=0.03, weighted=True)
    cc = center(corr)
    x0, n = flatten_inputs(cc)
    out = kabsch_outputs(x0[None], n)[0]
    pose = estimate_pose_kabsch(corr)
    assert np.allclose(out.reshape(3, 3, order="F"), pose.rotation.m)


def stack_with(cc, source=None, target=None):
    # Two input rows: the problem as is, then with its raw clouds replaced.
    x0, n = flatten_inputs(cc)
    row = x0.copy()
    if source is not None:
        row[: 3 * n] = source.ravel()
    if target is not None:
        row[3 * n : 6 * n] = target.ravel()
    return np.stack([x0, row]), n


def test_refine_step_outputs_raise_on_a_failed_row():
    cc, r_prev = prepared(63, 6)
    line = np.outer(np.arange(6.0), [1.0, 0.0, 0.0])
    x, n = stack_with(cc, source=line)
    with pytest.raises(SingularSystem):
        refine_step_outputs(x, n, r_prev)
    x, n = stack_with(cc, source=1e200 * line)  # S overflows
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
        refine_step_outputs(x, n, r_prev)


def test_kabsch_outputs_raise_on_a_failed_row():
    cc, _ = prepared(64, 6)
    line = np.outer(np.arange(6.0), [1.0, 2.0, 0.0])
    x, n = stack_with(cc, source=line, target=line)
    with pytest.raises(DegenerateGeometry):
        kabsch_outputs(x, n)
    x, n = stack_with(cc, source=1e200 * line, target=1e200 * line)  # H overflows
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
        kabsch_outputs(x, n)
