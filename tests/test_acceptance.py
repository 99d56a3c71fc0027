"""End-to-end acceptance suite: one test per release gate, each summarized as
a PASS/FAIL line by the conftest terminal hook."""

import time

import numpy as np
import pytest

from conftest import (
    designed_spectrum,
    random_problem,
    random_rotation,
    record_criterion,
    stable_angle_deg,
)
from kkt_oracle import assemble_kkt, closed_form_step, kkt_residual

from rigid_refine import (
    CorrespondenceSet,
    IllConditioned,
    PointCloud,
    ProblemSpec,
    RigidTransform,
    Rotation,
    Xoshiro256PlusPlus,
    assemble_rotation,
    ball_cloud,
    center,
    chamfer_distance,
    determinant_redundancy_residual,
    divergence_report,
    estimate_pose_kabsch,
    finite_difference_jacobian,
    flatten_inputs,
    jacobian_kabsch,
    jacobian_refine_step,
    licq_check,
    linearized_constraint,
    make_problem,
    max_relative_error,
    mean_point_distance,
    refine,
    refine_step_outputs,
    rotation_error,
    rotation_z,
    rotation_zyx,
    sample_transform,
    weighted_cost,
)
from rigid_refine.cli import main
from rigid_refine.diagnostics import (
    DIVERGENCE_ENVELOPE_ALPHA,
    DIVERGENCE_ENVELOPE_BETA,
    DIVERGENCE_P95_BASELINE,
)
from rigid_refine.metrics import euler_zyx


def lath_cloud(n, rng):
    # Near-collinear footprint: a 2 x 1e-3 x 1e-3 lath. The target second
    # moment of such data is nearly rank-1, which is what makes the
    # linearized update dynamically unstable (see the divergence gate).
    pts = np.empty((n, 3))
    for i in range(n):
        pts[i, 0] = rng.uniform(-1.0, 1.0)
        pts[i, 1] = rng.uniform(-5e-4, 5e-4)
        pts[i, 2] = rng.uniform(-5e-4, 5e-4)
    return PointCloud(pts)


def synthetic_problem(seed, n, **spec_kwargs):
    rng = Xoshiro256PlusPlus(seed)
    spec = ProblemSpec(n_points=n, seed=seed, **spec_kwargs)
    needed = 2 * n if spec.independent_resample else n
    return make_problem(spec, ball_cloud(needed, rng), rng)


def refined_report(problem, n_refinements):
    kabsch_pose = estimate_pose_kabsch(problem.correspondences)
    trace = refine(problem.correspondences, kabsch_pose, n_refinements)
    return divergence_report(trace)


def test_criterion_01_kabsch_beats_random_rotation_sampling():
    # 200 random weighted problems (N = 4); the closed-form rotation must
    # never lose to the best of 1e5 shared random rotation samples.
    start = time.time()
    rng = Xoshiro256PlusPlus(31337)
    samples = np.array(
        [
            rotation_zyx(
                rng.uniform(-np.pi, np.pi),
                rng.uniform(-np.pi / 2, np.pi / 2),
                rng.uniform(-np.pi, np.pi),
            )
            for _ in range(100_000)
        ]
    )
    worst_gap = -np.inf
    for seed in range(200):
        corr, _ = random_problem(seed=10_000 + seed, n=4, noise=0.1, weighted=True)
        cc = center(corr)
        s = cc.source_centered.points
        t = cc.target_centered.points
        w = cc.weights
        r_k = estimate_pose_kabsch(corr).rotation.m
        res_k = s @ r_k.T - t
        kabsch_cost = float(w @ np.einsum("ij,ij->i", res_k, res_k))
        res = np.einsum("rab,nb->rna", samples, s) - t[None]
        best = float((np.einsum("rni,rni->rn", res, res) @ w).min())
        worst_gap = max(worst_gap, kabsch_cost - best)
    elapsed = time.time() - start
    record_criterion(
        "01 closed-form optimality vs 1e5-sample search",
        worst_gap <= 1e-6 and elapsed < 60.0,
        f"worst cost gap {worst_gap:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_exact_recovery():
    worst_rot = 0.0
    worst_trans = 0.0
    for seed in range(500):
        problem = synthetic_problem(11_000 + seed, 64)
        pose = estimate_pose_kabsch(problem.correspondences)
        worst_rot = max(worst_rot, stable_angle_deg(pose.rotation.m, problem.gt.rotation.m))
        worst_trans = max(
            worst_trans, float(np.linalg.norm(pose.translation - problem.gt.translation))
        )
    record_criterion(
        "02 exact recovery on uncorrupted problems",
        worst_rot <= 1e-9 and worst_trans <= 1e-12,
        f"worst rotation {worst_rot:.2e} deg, worst translation {worst_trans:.2e}",
    )


def test_criterion_03_target_scale_invariance_of_rotation():
    worst_frob = 0.0
    mse_increase_fail = 0
    for seed in range(100):
        corr, _ = random_problem(seed=8_000 + seed, n=24, noise=0.02, weighted=True)
        pose0 = estimate_pose_kabsch(corr)
        mse0 = weighted_cost(pose0.rotation, pose0.translation, corr) / corr.count
        for a in (0.1, 3.0, 10.0):
            scaled = CorrespondenceSet(
                corr.source, PointCloud(a * corr.target.points), corr.weights
            )
            pose_a = estimate_pose_kabsch(scaled)
            worst_frob = max(worst_frob, np.linalg.norm(pose_a.rotation.m - pose0.rotation.m))
            if a == 10.0:
                mse_a = weighted_cost(pose_a.rotation, pose_a.translation, scaled) / corr.count
                if not mse_a > mse0:
                    mse_increase_fail += 1
    record_criterion(
        "03 rotation invariant to target scale",
        worst_frob <= 1e-9 and mse_increase_fail == 0,
        f"worst Frobenius change {worst_frob:.2e}, "
        f"mse non-increases at 10x: {mse_increase_fail}",
    )


def test_criterion_04_refiner_fixed_point_on_exact_data():
    worst = 0.0
    for seed in range(500):
        corr, _ = random_problem(seed=16_000 + seed, n=16, noise=0.0, weighted=True)
        init = estimate_pose_kabsch(corr)
        trace = refine(corr, init, 5)
        for pose in trace.poses:
            worst = max(
                worst,
                float(np.linalg.norm(pose.rotation.m - init.rotation.m)),
                float(np.linalg.norm(pose.translation - init.translation)),
            )
    record_criterion(
        "04 refinement fixes the closed-form pose on exact data",
        worst <= 1e-8,
        f"worst pose deviation {worst:.2e} over 500 seeds x 5 steps",
    )


def test_criterion_05_kkt_solutions_satisfy_the_assembled_system():
    sizes = (3, 16, 256)
    worst_residual = 0.0
    worst_constraint = 0.0
    for seed in range(500):
        n = sizes[seed % 3]
        corr, _ = random_problem(seed=8_500 + seed, n=n, noise=0.05, weighted=True)
        cc = center(corr)
        r_prev = random_rotation(Xoshiro256PlusPlus(77_000 + seed))
        system = assemble_kkt(cc, r_prev)
        candidate, lambdas = closed_form_step(cc, r_prev)
        worst_residual = max(worst_residual, kkt_residual(system, candidate, lambdas))
        for k in range(6):
            worst_constraint = max(
                worst_constraint, abs(linearized_constraint(candidate.m, r_prev, k))
            )
    record_criterion(
        "05 saddle-point solve: residual and linearized constraints",
        worst_residual <= 1e-8 and worst_constraint <= 1e-8,
        f"worst relative residual {worst_residual:.2e}, "
        f"worst constraint value {worst_constraint:.2e}",
    )


def test_criterion_06_candidate_column_norms_bounded_below():
    min_norm = np.inf
    iterations = 0
    seed = 0
    while iterations < 10_000:
        corr, _ = random_problem(seed=12_000 + seed, n=10, noise=0.05, weighted=True)
        cc = center(corr)
        r = estimate_pose_kabsch(corr).rotation
        for _ in range(5):
            candidate, _ = closed_form_step(cc, r)
            min_norm = min(min_norm, float(np.linalg.norm(candidate.m, axis=0).min()))
            r = assemble_rotation(candidate)
            iterations += 1
        seed += 1
    record_criterion(
        "06 candidate columns never collapse",
        min_norm >= 1.0 - 1e-9,
        f"min column norm {min_norm:.12f} over {iterations} iterations",
    )


def test_criterion_07_constraint_qualification_and_redundancy():
    rng = Xoshiro256PlusPlus(13_000)
    ranks_ok = all(licq_check(random_rotation(rng)) == 6 for _ in range(10_000))
    worst = 0.0
    rng2 = Xoshiro256PlusPlus(13_500)
    for _ in range(1_000):
        worst = max(
            worst,
            determinant_redundancy_residual(random_rotation(rng2), random_rotation(rng2)),
        )
    record_criterion(
        "07 constraint gradients: full rank, determinant redundant",
        ranks_ok and worst <= 1e-12,
        f"all ranks 6: {ranks_ok}, worst redundancy residual {worst:.2e}",
    )


def test_criterion_08_analytic_step_jacobian_matches_finite_differences():
    start = time.time()
    worst = 0.0
    for seed in range(50):
        for n in (4, 16, 64):
            corr, _ = random_problem(seed=14_000 + 10 * seed + n, n=n, noise=0.02, weighted=True)
            cc = center(corr)
            r_prev = estimate_pose_kabsch(corr).rotation
            analytic = jacobian_refine_step(cc, r_prev)
            x0, n_pts = flatten_inputs(cc)
            fd = finite_difference_jacobian(lambda x: refine_step_outputs(x, n_pts, r_prev), x0)
            worst = max(worst, max_relative_error(analytic.matrix, fd))
    elapsed = time.time() - start
    record_criterion(
        "08 analytic step Jacobian vs central differences",
        worst <= 1e-5 and elapsed < 300.0,
        f"worst max relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_09_svd_derivative_gate_and_gap_growth():
    # Equal singular values must be refused in both determinant regimes.
    octahedron = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ]
    )
    with pytest.raises(IllConditioned):
        jacobian_kabsch(center(CorrespondenceSet.from_arrays(octahedron, octahedron)))
    with pytest.raises(IllConditioned):
        jacobian_kabsch(designed_spectrum(3.0, 1.0, -1.0))

    # Reflection regime: shrinking the smallest singular-value gap must
    # inflate the worst row norm in proportion (1/gap scaling).
    gaps = [0.2, 0.1, 0.05, 0.02, 0.01]
    stats = []
    for gap in gaps:
        j = jacobian_kabsch(designed_spectrum(3.0, 1.0 + gap, -1.0))
        stats.append(float(np.linalg.norm(j.matrix, axis=1).max()))
    monotone = all(stats[i] < stats[i + 1] for i in range(len(gaps) - 1))
    products = [stat * gap for stat, gap in zip(stats, gaps)]
    proportional = max(products) / min(products) <= 1.2
    record_criterion(
        "09 SVD derivative: gated when clustered, 1/gap growth when flipped",
        monotone and proportional,
        f"row norms {stats[0]:.1f} -> {stats[-1]:.1f} over gaps 0.2 -> 0.01, "
        f"stat*gap spread {max(products) / min(products):.3f}",
    )


def test_criterion_10_divergence_envelope_existence_and_rank():
    # (a) Well-conditioned problems stay inside the frozen envelope.
    envelope_violations = 0
    well_divergences = []
    for i in range(200):
        problem = synthetic_problem(9_000 + i, 32, noise_sigma=0.01)
        report = refined_report(problem, 5)
        assert report.det_g_normalized >= 1e-2
        well_divergences.append(report.divergence)
        bound = DIVERGENCE_ENVELOPE_ALPHA * report.max_col_distance + DIVERGENCE_ENVELOPE_BETA
        if report.divergence > bound:
            envelope_violations += 1
    p95 = float(np.percentile(well_divergences, 95))

    # (b) Existence: near-collinear laths with resampled targets and a
    # longer refinement budget push at least one seed in 100 past D = 0.5.
    hits = 0
    ill_divergences = []
    for i in range(100):
        seed = 7_000 + i
        rng = Xoshiro256PlusPlus(seed)
        cloud = lath_cloud(64, rng)
        spec = ProblemSpec(n_points=32, independent_resample=True, seed=seed)
        problem = make_problem(spec, cloud, rng)
        report = refined_report(problem, 25)
        if report.divergence > 0.5:
            hits += 1

    # (c) Rank statistic: classify fresh resampled trials by measured
    # normalized det G; the ill-conditioned median must dominate.
    for i in range(30):
        seed = 9_600 + i
        rng = Xoshiro256PlusPlus(seed)
        cloud = lath_cloud(64, rng)
        spec = ProblemSpec(n_points=32, independent_resample=True, seed=seed)
        report = refined_report(make_problem(spec, cloud, rng), 5)
        if report.det_g_normalized < 1e-4:
            ill_divergences.append(report.divergence)
    ill_median = float(np.median(ill_divergences))
    well_median = float(np.median(well_divergences))

    record_criterion(
        "10 divergence: envelope, lath existence, rank statistic",
        envelope_violations == 0 and p95 <= DIVERGENCE_P95_BASELINE and hits >= 1
        and len(ill_divergences) >= 20 and ill_median > well_median,
        f"violations {envelope_violations}/200, p95 {p95:.2e}, "
        f"existence {hits}/100 > 0.5, medians ill {ill_median:.2e} vs well {well_median:.2e}",
    )


def test_criterion_11_metric_closed_forms():
    iso, aniso = rotation_error(Rotation(np.eye(3)), Rotation(rotation_z(np.radians(30.0))))
    rot_ok = abs(iso - 30.0) <= 1e-9 and np.allclose(aniso, (30.0, 0.0, 0.0), atol=1e-9)

    a = PointCloud(np.array([[0.0, 0.0, 0.0]]))
    b = PointCloud(np.array([[1.0, 0.0, 0.0]]))
    c = PointCloud(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    chamfer_ok = chamfer_distance(a, b) == 2.0 and chamfer_distance(c, a) == 2.0

    cloud = PointCloud(np.array([[0.3, -0.2, 0.5], [-0.4, 0.1, -0.6]]))
    ident = RigidTransform.identity()
    shifted = RigidTransform(Rotation(np.eye(3)), np.array([0.1, 0.0, 0.0]))
    mpd_ok = mean_point_distance(cloud, shifted, ident) == 0.1

    record_criterion(
        "11 metric closed forms",
        rot_ok and chamfer_ok and mpd_ok,
        f"iso {iso:.12f}, chamfer hand cases {chamfer_ok}, offset distance {mpd_ok}",
    )


def test_criterion_12_csv_runs_are_byte_identical(tmp_path, monkeypatch):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        "problem.n_points = 24\n"
        "problem.noise_sigma = 0.01\n"
        "problem.seed = 42\n"
        "method = refined\n"
        "refinements = 5\n"
        "trials = 8\n"
    )
    outputs = []
    for run, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "6")):
        out = tmp_path / run
        monkeypatch.setenv("RIGID_REFINE_THREADS", threads)
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    record_criterion(
        "12 command-line runs are byte-identical",
        outputs[0] == outputs[1] == outputs[2],
        f"{len(outputs[0])} bytes, repeat and 6-thread runs match",
    )


def test_criterion_13_corruption_protocol_fidelity():
    # Noise clamp: replay the generator at a sigma that saturates it.
    clamp_ok = True
    for seed in range(50):
        rng = Xoshiro256PlusPlus(17_000 + seed)
        base = ball_cloud(32, rng)
        spec = ProblemSpec(n_points=32, noise_sigma=0.5, noise_clamp=0.05, seed=17_000 + seed)
        problem = make_problem(spec, base, rng)
        delta = problem.correspondences.source.points - base.points
        if np.max(np.abs(delta)) > 0.05 + 1e-12:
            clamp_ok = False

    # Crop count: exactly floor(0.7 N) points retained.
    crop_ok = True
    for n in (10, 25, 64, 301):
        rng = Xoshiro256PlusPlus(18_000 + n)
        base = ball_cloud(n, rng)
        spec = ProblemSpec(n_points=n, crop_keep_fraction=0.7, seed=18_000 + n)
        problem = make_problem(spec, base, rng)
        if problem.correspondences.count != int(np.floor(0.7 * n)):
            crop_ok = False

    # Sampled Euler angles: empirical means of 1e4 draws from (0, 45) within
    # 3 sigma of 22.5 (sigma_mean = 45/sqrt(12)/100).
    spec = ProblemSpec(n_points=4)
    rng = Xoshiro256PlusPlus(15_000)
    angles = np.empty((10_000, 3))
    for i in range(10_000):
        angles[i] = np.degrees(euler_zyx(sample_transform(spec, rng).rotation.m))
    band = 3.0 * (45.0 / np.sqrt(12.0)) / 100.0
    means_ok = bool(np.all(np.abs(angles.mean(axis=0) - 22.5) <= band))

    record_criterion(
        "13 corruption protocol fidelity",
        clamp_ok and crop_ok and means_ok,
        f"clamp ok {clamp_ok}, crop counts ok {crop_ok}, "
        f"angle means {np.round(angles.mean(axis=0), 3)} within +-{band:.3f}",
    )
