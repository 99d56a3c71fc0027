import warnings

import numpy as np
import pytest

from conftest import run_python

from rigid_refine.cli import (
    ComparisonTable,
    ConfigError,
    ExperimentConfig,
    MismatchedSpecs,
    TrialRecord,
    compare_methods,
    config_from_entries,
    load_config,
    main,
    parse_config_text,
    records_to_csv,
    run_experiment,
    run_trial,
)
from rigid_refine.synth import ProblemSpec


def clean_spec(n_points, seed, **kwargs):
    # Zero-corruption problem family shared by most tests here.
    return ProblemSpec(n_points=n_points, seed=seed, **kwargs)


# ---------------------------------------------------------------------------
# Config text parsing


def test_parse_config_text_basic():
    text = """
# experiment setup
problem.n_points = 32   # per-trial count
method = kabsch

trials = 4
"""
    entries = parse_config_text(text)
    assert entries == {"problem.n_points": "32", "method": "kabsch", "trials": "4"}


def test_parse_config_text_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("trials = 1\ntrials = 2\n")


def test_parse_config_text_malformed_lines_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_config_text("method =\n")
    with pytest.raises(ConfigError):
        parse_config_text("= kabsch\n")


def test_config_from_entries_full():
    entries = {
        "problem.n_points": "24",
        "problem.rot_range_deg": "10,20",
        "problem.trans_range": "-1,1",
        "problem.noise_sigma": "0.01",
        "problem.noise_clamp": "0.04",
        "problem.crop_keep_fraction": "0.7",
        "problem.independent_resample": "true",
        "problem.seed": "7",
        "method": "refined",
        "refinements": "3",
        "trials": "5",
        "report_diagnostics": "false",
        "problem.cloud": "slab",
        "problem.cloud_points": "96",
        "problem.slab_thickness": "0.002",
        "icp.max_iters": "12",
        "icp.tol": "1e-6",
    }
    config = config_from_entries(entries)
    assert config.problem.n_points == 24
    assert config.problem.rot_range_deg == ((10.0, 20.0),) * 3
    assert config.problem.trans_range == ((-1.0, 1.0),) * 3
    assert config.problem.noise_sigma == 0.01
    assert config.problem.noise_clamp == 0.04
    assert config.problem.crop_keep_fraction == 0.7
    assert config.problem.independent_resample is True
    assert config.problem.seed == 7
    assert config.method == "refined"
    assert config.refinements == 3
    assert config.trials == 5
    assert config.report_diagnostics is False
    assert config.cloud == "slab"
    assert config.cloud_points == 96
    assert config.slab_thickness == 0.002
    assert config.icp_max_iters == 12
    assert config.icp_tol == 1e-6


def test_config_per_axis_rotation_range():
    entries = {
        "problem.n_points": "8",
        "method": "kabsch",
        "problem.rot_range_deg": "40,40;0,0;0,0",
    }
    config = config_from_entries(entries)
    assert config.problem.rot_range_deg == ((40.0, 40.0), (0.0, 0.0), (0.0, 0.0))


def test_config_unknown_key_rejected():
    entries = {"problem.n_points": "8", "method": "kabsch", "problem.bogus": "1"}
    with pytest.raises(ConfigError):
        config_from_entries(entries)


def test_config_required_keys():
    with pytest.raises(ConfigError):
        config_from_entries({"method": "kabsch"})
    with pytest.raises(ConfigError):
        config_from_entries({"problem.n_points": "8"})


def test_config_value_errors_become_config_errors():
    base = {"problem.n_points": "8", "method": "kabsch"}
    with pytest.raises(ConfigError):
        config_from_entries({**base, "trials": "three"})
    with pytest.raises(ConfigError):
        config_from_entries({**base, "problem.independent_resample": "yes"})
    with pytest.raises(ConfigError):
        config_from_entries({**base, "problem.rot_range_deg": "1,2;3,4"})
    with pytest.raises(ConfigError):
        config_from_entries({**base, "problem.noise_sigma": "-0.1"})
    with pytest.raises(ConfigError):
        config_from_entries({**base, "problem.noise_sigma": "nan"})
    with pytest.raises(ConfigError):
        config_from_entries({**base, "problem.noise_clamp": "nan"})


def test_experiment_config_validation():
    spec = clean_spec(8, 0)
    with pytest.raises(ConfigError):
        ExperimentConfig(problem=spec, method="magic")
    with pytest.raises(ConfigError):
        ExperimentConfig(problem=spec, method="kabsch", trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(problem=spec, method="refined", refinements=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(problem=spec, method="kabsch", cloud="torus")
    with pytest.raises(ConfigError):
        ExperimentConfig(problem=spec, method="kabsch", cloud_points=-1)
    for bad in (float("nan"), float("inf"), -1.0, 1e308, 3.0):
        with pytest.raises(ConfigError, match="slab_thickness"):
            ExperimentConfig(problem=spec, method="kabsch", slab_thickness=bad)


# ---------------------------------------------------------------------------
# CSV serialization


def test_records_to_csv_golden():
    # Hand-built records with round values; aggregates computed by hand:
    # rmse columns are sqrt(5), sqrt(2.5), sqrt(10), sqrt(1.25),
    # sqrt(0.3125), sqrt(40); per-axis aniso rmse mean is sqrt(2.5)/3 and
    # the pooled variant is sqrt(5/6).
    records = [
        TrialRecord(seed=0, method="kabsch", iso_rot_deg=1.0, aniso_z_deg=1.0,
                    aniso_y_deg=0.0, aniso_x_deg=0.0, trans_l1=2.0, trans_l2=2.0,
                    chamfer=0.5, mean_point_dist=0.25, augmented_loss=4.0),
        TrialRecord(seed=1, method="kabsch", iso_rot_deg=3.0, aniso_z_deg=2.0,
                    aniso_y_deg=0.0, aniso_x_deg=0.0, trans_l1=4.0, trans_l2=4.0,
                    chamfer=1.5, mean_point_dist=0.75, augmented_loss=8.0),
    ]
    text = records_to_csv(records)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == (
        "seed,method,iso_rot_deg,aniso_z_deg,aniso_y_deg,aniso_x_deg,"
        "trans_l1,trans_l2,chamfer,mean_point_dist,augmented_loss,"
        "divergence,max_col_distance,max_col_angle_deg,det_g_normalized,"
        "fallback_count"
    )
    assert lines[1] == "0,kabsch,1,1,0,0,2,2,0.5,0.25,4,NA,NA,NA,NA,NA"
    assert lines[2] == "1,kabsch,3,2,0,0,4,4,1.5,0.75,8,NA,NA,NA,NA,NA"
    assert lines[3] == "#agg,mean,2,1.5,0,0,3,3,1,0.5,6,NA,NA,NA,NA,NA"
    assert lines[4] == ("#agg,rmse,2.23606798,1.58113883,0,0,3.16227766,"
                        "3.16227766,1.11803399,0.559016994,6.32455532,NA,NA,NA,NA,NA")
    assert lines[5] == "#agg,mae,2,1.5,0,0,3,3,1,0.5,6,NA,NA,NA,NA,NA"
    assert lines[6] == "#agg,std,1,0.5,0,0,1,1,0.5,0.25,2,NA,NA,NA,NA,NA"
    assert lines[7] == "#agg,aniso_rmse_per_axis,0.527046277"
    assert lines[8] == "#agg,aniso_rmse_pooled,0.912870929"
    assert len(lines) == 9


def test_records_to_csv_nan_serializes_as_na():
    records = [TrialRecord(seed=0, method="kabsch", iso_rot_deg=float("nan"))]
    lines = records_to_csv(records).splitlines()
    assert lines[1].split(",")[2] == "NA"
    # nan never leaks into the aggregates either
    assert lines[2].split(",")[2] == "NA"


def test_csv_uses_nine_significant_digits():
    records = [TrialRecord(seed=0, method="kabsch", iso_rot_deg=np.pi)]
    lines = records_to_csv(records).splitlines()
    assert lines[1].split(",")[2] == "3.14159265"


# ---------------------------------------------------------------------------
# run_experiment


def test_run_kabsch_zero_corruption_exact():
    config = ExperimentConfig(problem=clean_spec(16, 100), method="kabsch", trials=10)
    records = run_experiment(config)
    assert len(records) == 10
    assert [r.seed for r in records] == list(range(100, 110))
    for r in records:
        assert r.method == "kabsch"
        # The reported angle uses the arccos-of-trace formula, which cannot
        # resolve below ~1.2e-6 deg (one ulp of trace); translation and
        # chamfer have no such floor and pin down exactness directly.
        assert r.iso_rot_deg <= 2e-6
        assert r.trans_l2 <= 1e-12
        assert r.chamfer <= 1e-24
        assert r.divergence is None
        assert r.fallback_count is None


def test_run_refined_zero_corruption_fixed_point():
    config = ExperimentConfig(
        problem=clean_spec(16, 200), method="refined", refinements=5, trials=10
    )
    records = run_experiment(config)
    for r in records:
        assert r.augmented_loss <= 1e-12
        assert r.divergence <= 1e-7
        assert r.fallback_count == 0
        assert r.max_col_distance is not None
        assert r.det_g_normalized > 1e-2


def test_run_refined_diagnostics_opt_out():
    config = ExperimentConfig(
        problem=clean_spec(12, 50), method="refined", refinements=2, trials=2,
        report_diagnostics=False,
    )
    records = run_experiment(config)
    for r in records:
        assert r.divergence is None
        assert r.fallback_count == 0  # trace bookkeeping stays on


def test_run_experiment_repeat_is_byte_identical():
    config = ExperimentConfig(
        problem=clean_spec(16, 321, noise_sigma=0.01), method="refined",
        refinements=3, trials=6,
    )
    first = records_to_csv(run_experiment(config))
    second = records_to_csv(run_experiment(config))
    assert first == second


def test_run_experiment_thread_count_does_not_change_bytes(monkeypatch):
    config = ExperimentConfig(
        problem=clean_spec(16, 77, noise_sigma=0.02), method="refined",
        refinements=3, trials=8,
    )
    monkeypatch.setenv("RIGID_REFINE_THREADS", "1")
    serial = records_to_csv(run_experiment(config))
    monkeypatch.setenv("RIGID_REFINE_THREADS", "4")
    pooled = records_to_csv(run_experiment(config))
    assert serial == pooled


def test_worker_count_env_validation(monkeypatch):
    config = ExperimentConfig(problem=clean_spec(8, 0), method="kabsch", trials=1)
    monkeypatch.setenv("RIGID_REFINE_THREADS", "abc")
    with pytest.raises(ConfigError):
        run_experiment(config)
    monkeypatch.setenv("RIGID_REFINE_THREADS", "-2")
    with pytest.raises(ConfigError):
        run_experiment(config)


def test_run_trial_records_degenerate_problem_as_na_row():
    # Cropping 25 points to floor(0.3*25) = 7 < ceil(0.3*25) = 8 shared
    # points can never satisfy the overlap floor; the row still appears.
    spec = ProblemSpec(n_points=25, crop_keep_fraction=0.3, seed=5)
    config = ExperimentConfig(problem=spec, method="kabsch", trials=1)
    record = run_trial(config, 0)
    assert record.seed == 5
    assert record.iso_rot_deg is None
    text = records_to_csv([record])
    assert text.splitlines()[1] == "5,kabsch," + ",".join(["NA"] * 14)


@pytest.mark.parametrize("scale", [1e100, 1e150])
def test_run_trial_refined_at_huge_noise_is_finite_and_silent(scale):
    # The refine step and its singularity test must neither overflow nor warn
    # at this scale; the rotation error stays a finite number.
    spec = ProblemSpec(n_points=32, noise_sigma=scale, noise_clamp=scale, seed=0)
    config = ExperimentConfig(problem=spec, method="refined", trials=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = [run_trial(config, i) for i in range(config.trials)]
    assert all(np.isfinite(record.iso_rot_deg) for record in records)


def test_run_aggregates_of_overflow_scale_columns_are_finite_and_silent(tmp_path):
    # At noise 1e100 every chamfer (~1.5e200) and augmented_loss (~7e198)
    # cell is finite, but their squares overflow: the rmse and std aggregates
    # must still be finite numbers, with no warning on stderr.
    config = tmp_path / "huge.cfg"
    config.write_text(
        "method = refined\nproblem.n_points = 32\nproblem.noise_sigma = 1e100\n"
        "problem.noise_clamp = 1e100\ntrials = 4\n"
    )
    result = run_python("-W", "error", "-m", "rigid_refine", "run", "--config", str(config))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    lines = result.stdout.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:5]]
    aggregates = {
        line.split(",")[1]: dict(zip(header[2:], line.split(",")[2:]))
        for line in lines
        if line.startswith("#agg,")
    }
    for name in ("chamfer", "augmented_loss"):
        values = [float(row[name]) for row in rows]
        rmse = float(aggregates["rmse"][name])
        std = float(aggregates["std"][name])
        assert min(values) * (1 - 1e-8) <= rmse <= max(values) * (1 + 1e-8)
        assert 0.0 < std <= max(values) - min(values)


# ---------------------------------------------------------------------------
# compare_methods


def test_compare_duplicate_config_all_diffs_zero():
    spec = clean_spec(16, 400, noise_sigma=0.01)
    config = ExperimentConfig(problem=spec, method="refined", refinements=3, trials=5)
    table = compare_methods([config, config])
    assert table.labels == ("refined", "refined_2")
    for metric in ComparisonTable.COMPARED:
        diffs = table.differences(metric)
        assert np.all(diffs == 0.0)
        wins, ties, losses, p_value = table.sign_test(metric, 1)
        assert (wins, ties, losses) == (0, 5, 0)
        assert p_value == 1.0


def test_compare_kabsch_vs_refined_zero_corruption():
    spec = clean_spec(16, 500)
    kabsch = ExperimentConfig(problem=spec, method="kabsch", trials=10)
    refined = ExperimentConfig(problem=spec, method="refined", refinements=5, trials=10)
    table = compare_methods([kabsch, refined])
    # iso_rot_deg differences sit at the arccos quantization floor (~1.2e-6
    # deg per ulp of trace); the unquantized metrics agree far tighter.
    assert np.all(np.abs(table.differences("iso_rot_deg")) <= 2e-6)
    assert np.all(np.abs(table.differences("trans_l2")) <= 1e-12)
    assert np.all(np.abs(table.differences("chamfer")) <= 1e-24)


def test_compare_icp_loses_at_forty_degrees():
    # A sphere cloud looks like itself under many rotations, so
    # nearest-neighbor matching from an identity start has no downhill
    # path to the true 40 degree alignment; the closed-form solve does.
    spec = ProblemSpec(
        n_points=64,
        rot_range_deg=((40.0, 40.0), (0.0, 0.0), (0.0, 0.0)),
        trans_range=(0.0, 0.0),
        seed=300,
    )
    kabsch = ExperimentConfig(problem=spec, method="kabsch", trials=20, cloud="sphere")
    icp = ExperimentConfig(problem=spec, method="icp", trials=20, cloud="sphere")
    table = compare_methods([kabsch, icp])
    wins, ties, losses, p_value = table.sign_test("iso_rot_deg", 1)
    assert losses >= 10
    assert wins == 0
    assert p_value < 0.01


def test_compare_mismatched_specs_rejected():
    a = ExperimentConfig(problem=clean_spec(16, 0), method="kabsch", trials=5)
    b = ExperimentConfig(problem=clean_spec(32, 0), method="icp", trials=5)
    with pytest.raises(MismatchedSpecs):
        compare_methods([a, b])
    c = ExperimentConfig(problem=clean_spec(16, 0), method="icp", trials=6)
    with pytest.raises(MismatchedSpecs):
        compare_methods([a, c])
    d = ExperimentConfig(problem=clean_spec(16, 0), method="icp", trials=5, cloud="sphere")
    with pytest.raises(MismatchedSpecs):
        compare_methods([a, d])
    with pytest.raises(MismatchedSpecs):
        compare_methods([a])


def test_comparison_csv_shape():
    spec = clean_spec(12, 600)
    kabsch = ExperimentConfig(problem=spec, method="kabsch", trials=4)
    refined = ExperimentConfig(problem=spec, method="refined", refinements=2, trials=4)
    text = compare_methods([kabsch, refined]).to_csv()
    assert text.endswith("\n")
    lines = text.splitlines()
    header = lines[0].split(",")
    assert header[0] == "seed"
    assert "iso_rot_deg_kabsch" in header
    assert "iso_rot_deg_refined" in header
    assert "diff_iso_rot_deg_refined" in header
    assert len(lines) == 1 + 4 + len(ComparisonTable.COMPARED)
    for line in lines[5:]:
        assert line.startswith("#cmp,")
        assert len(line.split(",")) == 7


# ---------------------------------------------------------------------------
# main entry point


def write_config(path, extra=""):
    path.write_text(
        "problem.n_points = 12\n"
        "method = kabsch\n"
        "trials = 3\n"
        "problem.seed = 11\n" + extra
    )


def test_main_run_writes_csv(tmp_path):
    config_path = tmp_path / "exp.cfg"
    out_path = tmp_path / "out.csv"
    write_config(config_path)
    assert main(["run", "--config", str(config_path), "--out", str(out_path)]) == 0
    expected = records_to_csv(run_experiment(load_config(config_path)))
    assert out_path.read_text() == expected


def test_main_run_stdout_default(tmp_path, capsys):
    config_path = tmp_path / "exp.cfg"
    write_config(config_path)
    assert main(["run", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("seed,method,")
    assert len(out.splitlines()) == 1 + 3 + 6


def test_main_run_flag_overrides(tmp_path):
    config_path = tmp_path / "exp.cfg"
    out_path = tmp_path / "out.csv"
    write_config(config_path)
    code = main(["run", "--config", str(config_path), "--out", str(out_path),
                 "--trials", "5", "--seed", "90"])
    assert code == 0
    lines = out_path.read_text().splitlines()
    data = [line for line in lines if not line.startswith(("seed,", "#agg"))]
    assert len(data) == 5
    assert [int(line.split(",")[0]) for line in data] == [90, 91, 92, 93, 94]


def test_main_run_output_path_from_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config_path = tmp_path / "exp.cfg"
    write_config(config_path, extra="output_path = fromconfig.csv\n")
    assert main(["run", "--config", str(config_path)]) == 0
    assert (tmp_path / "fromconfig.csv").exists()


def test_main_missing_config_exits_nonzero(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_bad_config_exits_nonzero(tmp_path, capsys):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text("problem.n_points = 12\nmethod = kabsch\nwhatever = 1\n")
    assert main(["run", "--config", str(config_path)]) == 1
    assert "whatever" in capsys.readouterr().err


def test_main_bad_trials_override_exits_nonzero(tmp_path, capsys):
    config_path = tmp_path / "exp.cfg"
    write_config(config_path)
    assert main(["run", "--config", str(config_path), "--trials", "0"]) == 1
    capsys.readouterr()


def test_main_compare(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    out_path = tmp_path / "cmp.csv"
    write_config(a)
    write_config(b, extra="refinements = 2\n")
    b.write_text(b.read_text().replace("method = kabsch", "method = refined"))
    code = main(["compare", "--config", str(a), "--config", str(b),
                 "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert "#cmp,iso_rot_deg,refined," in text


def test_main_compare_mismatched_exits_nonzero(tmp_path, capsys):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    write_config(a)
    b.write_text("problem.n_points = 24\nmethod = icp\ntrials = 3\nproblem.seed = 11\n")
    assert main(["compare", "--config", str(a), "--config", str(b)]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "0", "--n-points", "8"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "PASS" in out


def test_main_gradcheck_rejects_tiny_cloud(capsys):
    assert main(["gradcheck", "--n-points", "2"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("thickness", ["nan", "inf", "-1", "1e308", "3"])
def test_main_rejects_bad_slab_thickness(tmp_path, capsys, thickness):
    config_path = tmp_path / "exp.cfg"
    write_config(config_path, extra=f"problem.cloud = slab\nproblem.slab_thickness = {thickness}\n")
    assert main(["run", "--config", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "slab_thickness" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_main_run_icp_with_overflowing_noise_writes_na_rows(tmp_path, capsys):
    # Squared matching distances overflow; the trials become NA rows.
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        "method = icp\ntrials = 2\nproblem.n_points = 32\n"
        "problem.noise_sigma = 1e300\nproblem.noise_clamp = 1e300\n"
    )
    assert main(["run", "--config", str(config_path)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    rows = [line.split(",") for line in captured.out.splitlines() if line[:1].isdigit()]
    assert [row[:2] for row in rows] == [["0", "icp"], ["1", "icp"]]
    assert all(cell == "NA" for row in rows for cell in row[2:])


def test_import_does_not_load_scipy_stats():
    # scipy.stats is imported lazily, by the compare sign test only.
    result = run_python(
        "-c", "import sys, rigid_refine; print('scipy.stats' in sys.modules)"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_python_dash_m_runs_the_cli_without_warnings():
    # -W error turns a runpy RuntimeWarning into a failing exit.
    result = run_python("-W", "error", "-m", "rigid_refine", "--help")
    assert result.returncode == 0, result.stderr
    assert "usage: rigid-refine" in result.stdout
    assert result.stderr == ""
