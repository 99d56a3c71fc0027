"""The demos and the calibration tool run end to end without warnings."""

import ast
import pathlib

import pytest

from conftest import run_python

from rigid_refine import diagnostics

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(path, *args):
    # -W error turns any warning into a failing exit.
    result = run_python("-W", "error", str(path), *args)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_without_warnings(demo):
    assert run_script(demo, "--trials", "2")


def test_calibration_tool_reproduces_the_frozen_constants():
    tool = ROOT / "tools" / "calibrate_divergence.py"
    stdout = run_script(tool)
    # The docstring quotes the run's summary block, indented, line for line.
    docstring = ast.get_docstring(ast.parse(tool.read_text(encoding="utf-8")))
    quoted = [line[2:] for line in docstring.splitlines() if line.startswith("  ")]
    summary = stdout.split("\n\n")[0].splitlines()
    assert quoted[-len(summary) :] == summary
    printed = dict(
        line.split(" = ") for line in stdout.splitlines() if line.startswith("DIVERGENCE_")
    )
    names = ("DIVERGENCE_ENVELOPE_ALPHA", "DIVERGENCE_ENVELOPE_BETA", "DIVERGENCE_P95_BASELINE")
    frozen = {name: getattr(diagnostics, name) for name in names}
    assert {name: float(value) for name, value in printed.items()} == frozen
