"""Shared test helpers and the acceptance-criteria summary hook."""

import os
import pathlib
import subprocess
import sys

import numpy as np

import rigid_refine
from rigid_refine import (
    CorrespondenceSet,
    PointCloud,
    RigidTransform,
    Rotation,
    Xoshiro256PlusPlus,
    center,
    rotation_zyx,
)

# criterion name -> (passed, detail); filled by tests/test_acceptance.py.
CRITERION_RESULTS = {}


def record_criterion(name, passed, detail=""):
    """Store a criterion verdict for the terminal summary, then assert it."""
    CRITERION_RESULTS[name] = (bool(passed), detail)
    assert passed, f"{name}: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(CRITERION_RESULTS):
        passed, detail = CRITERION_RESULTS[name]
        status = "PASS" if passed else "FAIL"
        line = f"{status}  {name}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


def random_rotation(rng):
    """Uniform-ish random rotation from three Euler draws (test helper)."""
    z = rng.uniform(-np.pi, np.pi)
    y = rng.uniform(-np.pi / 2, np.pi / 2)
    x = rng.uniform(-np.pi, np.pi)
    return Rotation(rotation_zyx(z, y, x))


def stable_angle_deg(r_a, r_b):
    """Misalignment angle between two rotation matrices, in degrees.

    Uses ||dR - I||_F = 2*sqrt(2)*|sin(theta/2)|, so theta = 2*asin(.).
    The arccos-of-trace form quantizes near zero (trace rounding puts a
    ~1e-6 deg floor on it) and cannot resolve exact-recovery claims.
    """
    chord = np.linalg.norm(np.asarray(r_a).T @ np.asarray(r_b) - np.eye(3))
    return np.degrees(2.0 * np.arcsin(min(1.0, chord / (2.0 * np.sqrt(2.0)))))


def random_problem(seed, n, noise=0.0, weighted=False):
    """Random exact-or-noisy correspondence set with its generating transform."""
    rng = Xoshiro256PlusPlus(seed)
    src = np.array([rng.uniform(-1.0, 1.0) for _ in range(3 * n)]).reshape(n, 3)
    rot = random_rotation(rng)
    t = np.array([rng.uniform(-0.5, 0.5) for _ in range(3)])
    gt = RigidTransform(rot, t)
    tgt = gt.apply(src)
    if noise:
        tgt = tgt + noise * rng.normals(3 * n).reshape(n, 3)
    weights = None
    if weighted:
        weights = np.array([rng.uniform(0.5, 2.0) for _ in range(n)])
    corr = CorrespondenceSet(PointCloud(src), PointCloud(tgt), weights)
    return corr, gt


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


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's rigid_refine."""
    package_root = str(pathlib.Path(rigid_refine.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
