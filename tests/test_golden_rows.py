"""Experiment rows pinned to every digit.

tests/data/golden_rows.csv holds the rows `run_experiment` gave for each
config below, written with the per-trial solver that preceded chunked
execution. Cells are `repr` strings (`str` for integers, NA for missing), so
they are compared exactly: any rewrite of the solve or scoring path must keep
every float bit for bit, or re-pin this file on purpose and say why. The file
is changed only by hand.
"""

import csv
import pathlib

import pytest

from rigid_refine.cli import COLUMNS, config_from_entries, parse_config_text, run_experiment

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden_rows.csv"

_NOISY = "problem.noise_sigma = 0.01\n"

CONFIGS = {
    "refined_ball_n32": "method = refined\nproblem.n_points = 32\n" + _NOISY
    + "problem.seed = 1000\ntrials = 50\n",
    "refined_ball_n1024": "method = refined\nproblem.n_points = 1024\n" + _NOISY
    + "problem.seed = 2000\ntrials = 4\n",
    "refined_slab_n64": "method = refined\nproblem.n_points = 64\nproblem.cloud = slab\n"
    "problem.slab_thickness = 0.01\n" + _NOISY + "problem.seed = 3000\ntrials = 10\n",
    "refined_crop_n200": "method = refined\nproblem.n_points = 200\n"
    "problem.crop_keep_fraction = 0.8\n" + _NOISY + "problem.seed = 4000\ntrials = 10\n",
    "kabsch_ball_n64": "method = kabsch\nproblem.n_points = 64\n" + _NOISY
    + "problem.seed = 5000\ntrials = 20\n",
    "icp_halfspace_n717": "method = icp\nproblem.n_points = 717\n"
    "problem.crop_keep_fraction = 0.7\nproblem.independent_resample = true\n" + _NOISY
    + "trials = 2\n",
    # 5 of these 20 crops cannot keep the overlap floor: NA rows between
    # solved ones.
    "refined_crop_n25_failing": "method = refined\nproblem.n_points = 25\n"
    "problem.crop_keep_fraction = 0.35\n" + _NOISY + "trials = 20\n",
    # Two points never determine a rotation (DegenerateGeometry).
    "refined_n2_degenerate": "method = refined\nproblem.n_points = 2\n" + _NOISY + "trials = 3\n",
    "kabsch_n2_degenerate": "method = kabsch\nproblem.n_points = 2\n" + _NOISY + "trials = 2\n",
    # Three coplanar targets: G is singular, so the column predictors are NA.
    "refined_planar_n3": "method = refined\nproblem.n_points = 3\nproblem.cloud = slab\n"
    "problem.slab_thickness = 0\ntrials = 3\n",
    "refined_noise_1e100": "method = refined\nproblem.n_points = 32\n"
    "problem.noise_sigma = 1e100\nproblem.noise_clamp = 1e100\ntrials = 4\n",
}


def cell(value):
    """A record value as its exact text: repr for floats, NA for None."""
    if value is None:
        return "NA"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def rows(name):
    """The rows of one config as lists of exact cells, config name first."""
    config = config_from_entries(parse_config_text(CONFIGS[name]))
    return [[name] + [cell(getattr(r, c)) for c in COLUMNS] for r in run_experiment(config)]


def golden_rows(name):
    with open(GOLDEN, newline="") as f:
        return [row for row in csv.reader(f) if row[0] == name]


def test_golden_file_covers_every_config():
    with open(GOLDEN, newline="") as f:
        reader = csv.reader(f)
        assert next(reader) == ["config", *COLUMNS]
        assert {row[0] for row in reader} == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_rows_equal_golden_rows_exactly(name):
    assert rows(name) == golden_rows(name)
