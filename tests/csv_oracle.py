"""The per-cell CSV writers, kept as the byte oracle of rigid_refine.cli's.

`records_to_csv` and `comparison_to_csv` format every cell with `_fmt`, one
call per cell, and `records_to_csv` reads every value column a second time
through `_column_values` for the aggregate rows. The package writes a column
at a time (`cli._cells`); tests/test_csv_writer.py checks that both give the
same bytes. The aggregate statistics themselves are the package's.
"""

import math

import numpy as np

from rigid_refine.cli import _AGG_STATS, COLUMNS, NA, _rmse


def _fmt(value):
    if value is None:
        return NA
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if not np.isfinite(v):
        return NA
    return format(v, ".9g")


def _column_values(records, name):
    out = []
    for r in records:
        v = getattr(r, name)
        if v is not None and math.isfinite(v):
            out.append(float(v))
    return np.array(out)


def records_to_csv(records):
    """cli.records_to_csv, a row and a cell at a time."""
    lines = [",".join(COLUMNS)]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, name)) for name in COLUMNS))

    columns = {name: _column_values(records, name) for name in COLUMNS[2:]}
    for stat, fn in _AGG_STATS:
        cells = ["#agg", stat]
        for values in columns.values():
            cells.append(_fmt(fn(values)) if values.size else NA)
        lines.append(",".join(cells))

    per_axis = [columns[n] for n in ("aniso_z_deg", "aniso_y_deg", "aniso_x_deg")]
    if all(v.size for v in per_axis):
        axis_rmse = [_rmse(v) for v in per_axis]
        pooled = _rmse(np.concatenate(per_axis))
        lines.append(f"#agg,aniso_rmse_per_axis,{_fmt(float(np.mean(axis_rmse)))}")
        lines.append(f"#agg,aniso_rmse_pooled,{_fmt(pooled)}")
    else:
        lines.append(f"#agg,aniso_rmse_per_axis,{NA}")
        lines.append(f"#agg,aniso_rmse_pooled,{NA}")
    return "\n".join(lines) + "\n"


def comparison_to_csv(table):
    """cli.ComparisonTable.to_csv, a row and a cell at a time."""
    header = ["seed"]
    for metric in table.COMPARED:
        header.extend(f"{metric}_{label}" for label in table.labels)
        header.extend(f"diff_{metric}_{label}" for label in table.labels[1:])
    lines = [",".join(header)]
    for i in range(len(table.seeds)):
        cells = [str(table.seeds[i])]
        for metric in table.COMPARED:
            arr = table.metrics[metric]
            cells.extend(_fmt(arr[j, i]) for j in range(len(table.labels)))
            cells.extend(_fmt(arr[j, i] - arr[0, i]) for j in range(1, len(table.labels)))
        lines.append(",".join(cells))
    for metric in table.COMPARED:
        for j in range(1, len(table.labels)):
            wins, ties, losses, p_value = table.sign_test(metric, j)
            lines.append(f"#cmp,{metric},{table.labels[j]},{wins},{ties},{losses},{_fmt(p_value)}")
    return "\n".join(lines) + "\n"
