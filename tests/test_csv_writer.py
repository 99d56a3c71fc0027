"""The column-wise CSV writers against the per-cell oracle, tests/csv_oracle.py.

records_to_csv and ComparisonTable.to_csv must give the oracle's bytes for
any records, hostile cells included, and must format a column at a time: the
number of formatter calls grows with the columns, not the rows.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import csv_oracle
from rigid_refine import cli
from rigid_refine.cli import (
    COLUMNS,
    METHODS,
    ComparisonTable,
    TrialRecord,
    records_to_csv,
)

# Cells that print at the edges of _fmt's rules: NA, signed zero, the
# smallest subnormal, the largest finite double, a bool and numpy scalars.
SPECIAL = (
    None,
    float("nan"),
    float("inf"),
    -float("inf"),
    -0.0,
    5e-324,
    1e308,
    -1e308,
    True,
    False,
    np.int64(-7),
    np.int64(2**62),
    np.float64(0.1),
    np.float64(float("nan")),
    np.float32(0.1),
    np.float32(float("inf")),
)

values = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)

seeds = st.one_of(st.integers(-(2**70), 2**70), st.integers(0, 2**63 - 1).map(np.int64))


@st.composite
def records(draw):
    """A list of 0 to 6 records. A list draws its value columns from one of
    three families, so that all-float and all-int columns, the kinds the
    package writes, are drawn as often as mixed ones."""
    family = draw(
        st.sampled_from(
            (
                values,
                st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True)),
                st.one_of(st.none(), st.integers(-(2**40), 2**40)),
            )
        )
    )
    count = draw(st.integers(0, 6))
    return [
        TrialRecord(
            draw(seeds),
            draw(st.sampled_from(METHODS)),
            *(draw(family) for _ in COLUMNS[2:]),
        )
        for _ in range(count)
    ]


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(records())
def test_records_to_csv_matches_the_per_cell_oracle(batch):
    # The aggregates of hostile columns may warn in both writers alike.
    with np.errstate(all="ignore"):
        assert records_to_csv(batch) == csv_oracle.records_to_csv(batch)


@pytest.mark.parametrize("count", [0, 1])
def test_empty_and_single_record_match_the_oracle(count):
    batch = [TrialRecord(3, "refined", *SPECIAL[: len(COLUMNS) - 2])][:count]
    assert records_to_csv(batch) == csv_oracle.records_to_csv(batch)


metric_values = st.one_of(
    st.sampled_from((float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308, -1e308)),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def tables(draw):
    configs = draw(st.integers(2, 3))
    trials = draw(st.integers(0, 5))
    metrics = {
        metric: np.array(
            [[draw(metric_values) for _ in range(trials)] for _ in range(configs)]
        ).reshape(configs, trials)
        for metric in ComparisonTable.COMPARED
    }
    labels = tuple(f"config{j}" for j in range(configs))
    return ComparisonTable(labels, tuple(draw(seeds) for _ in range(trials)), metrics)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tables())
def test_comparison_to_csv_matches_the_per_cell_oracle(table):
    # The oracle's differences of huge or infinite values warn; the package's
    # are NA cells without a warning.
    with np.errstate(all="ignore"):
        expected = csv_oracle.comparison_to_csv(table)
    assert table.to_csv() == expected


def _counted_cells(monkeypatch):
    """Count the calls of cli._cells and the cells they format."""
    calls = []
    cells = cli._cells

    def counted(values):
        calls.append(len(values))
        return cells(values)

    monkeypatch.setattr(cli, "_cells", counted)
    return calls


def _records(count):
    return [
        TrialRecord(i, "refined", *(0.25 * k + i for k in range(len(COLUMNS) - 3)), i % 3)
        for i in range(count)
    ]


def test_writer_formats_a_column_per_call(monkeypatch):
    calls = _counted_cells(monkeypatch)
    # One call per column, one per aggregate row, one for the two
    # anisotropic-RMSE variants: as many for 1000 records as for 10.
    expected = len(COLUMNS) + len(cli._AGG_STATS) + 1
    for count in (10, 1000):
        calls.clear()
        records_to_csv(_records(count))
        assert len(calls) == expected
        assert calls[: len(COLUMNS)] == [count] * len(COLUMNS)


def test_comparison_formats_a_column_per_call(monkeypatch):
    calls = _counted_cells(monkeypatch)
    compared = len(ComparisonTable.COMPARED)
    for trials in (10, 1000):
        metrics = {m: np.arange(2.0 * trials).reshape(2, trials) for m in ComparisonTable.COMPARED}
        calls.clear()
        ComparisonTable(("a", "b"), tuple(range(trials)), metrics).to_csv()
        # Two values and a difference per metric, then one p-value each.
        assert calls == [trials] * (3 * compared) + [1] * compared
