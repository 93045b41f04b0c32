"""Plain-CSV artifact formats shared by the CLI and the analysis pipeline.

All outputs are plain text: spike events as (neuron_id, t_seconds) rows,
traces as one time column plus one column per recorded neuron, correlation
matrices with label headers (undefined entries left empty), histograms as
(bin_left_edge, count) rows.  Externally recorded event series use the same
two-column spike format with arbitrary integer source ids.
"""

from __future__ import annotations

import csv
import io as _io
import math
from pathlib import Path

import numpy as np

from .analysis import CorrelationMatrix, EventSeries
from .engine import SpikeRecord

__all__ = [
    "spikes_to_csv",
    "write_spikes_csv",
    "read_events_csv",
    "write_traces_csv",
    "read_traces_csv",
    "write_matrix_csv",
    "write_histogram_csv",
    "write_psd_csv",
]

SPIKES_HEADER = "neuron_id,t_seconds"


def spikes_to_csv(record: SpikeRecord) -> str:
    """Spike record as CSV text, rows sorted by (time, neuron id)."""
    rows = []
    for nid, times in enumerate(record.times):
        for t in times:
            rows.append((float(t), nid))
    rows.sort()
    lines = [SPIKES_HEADER]
    lines.extend(f"{nid},{t:.12g}" for t, nid in rows)
    return "\n".join(lines) + "\n"


def write_spikes_csv(record: SpikeRecord, path) -> None:
    Path(path).write_text(spikes_to_csv(record), encoding="utf-8")


def read_events_csv(path) -> list[EventSeries]:
    """Event series grouped by source id from a (source_id, t_seconds) CSV
    file.  Returns one series per distinct source id, ordered by id; times
    are sorted.  A malformed row is a ValueError naming its 1-based line.
    """
    text = Path(path).read_text(encoding="utf-8")
    by_source: dict[int, list[float]] = {}
    reader = csv.reader(_io.StringIO(text))
    next(reader, None)  # the header
    try:
        for row in reader:
            if row and row[0].strip():
                by_source.setdefault(int(row[0]), []).append(_finite(row[1]))
    except (IndexError, ValueError):
        raise ValueError(f"line {reader.line_num}: expected an integer id and a finite time, got {row}") from None
    return [
        EventSeries(source_id=sid, times=np.sort(np.asarray(ts)))
        for sid, ts in sorted(by_source.items())
    ]


def _finite(text: str) -> float:
    """``float(text)``; ValueError unless it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def write_traces_csv(traces: tuple, path) -> None:
    """Write (t, {neuron_id: v}) decimated traces."""
    t, by_id = traces
    ids = sorted(by_id)
    lines = ["t_seconds," + ",".join(f"v_{i}" for i in ids)]
    cols = [by_id[i] for i in ids]
    for k in range(len(t)):
        lines.append(f"{t[k]:.12g}," + ",".join(f"{c[k]:.9g}" for c in cols))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_traces_csv(path) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Traces as written by ``write_traces_csv`` (none from an empty file); a
    malformed header or row is a ValueError naming its 1-based line."""
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(_io.StringIO(text))
    header = next(reader, ["t_seconds"])
    rows = []
    try:
        ids = [int(name[2:]) for name in header[1:]]
        for row in reader:
            if len(row) not in (0, len(header)):
                raise ValueError
            if row:
                rows.append([_finite(x) for x in row])
    except ValueError:
        raise ValueError(f"line {reader.line_num}: expected t_seconds,v_<id>... columns of finite numbers") from None
    arr = np.asarray(rows)
    if arr.size == 0:
        return np.empty(0), {i: np.empty(0) for i in ids}
    return arr[:, 0], {i: arr[:, k + 1] for k, i in enumerate(ids)}


def write_matrix_csv(matrix: CorrelationMatrix, path) -> None:
    """Correlation matrix with row/column labels; NaN entries left empty."""
    labels = [str(x) for x in matrix.labels]
    lines = ["," + ",".join(labels)]
    for i, lab in enumerate(labels):
        cells = []
        for v in matrix.values[i]:
            cells.append("" if np.isnan(v) else f"{v:.9g}")
        lines.append(lab + "," + ",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_histogram_csv(edges: np.ndarray, counts: np.ndarray, path) -> None:
    lines = ["bin_left_seconds,count"]
    lines.extend(f"{edges[i]:.12g},{int(counts[i])}" for i in range(len(counts)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_psd_csv(freqs: np.ndarray, psd: np.ndarray, path) -> None:
    lines = ["f_hz,psd_a2_per_hz"]
    lines.extend(f"{freqs[i]:.12g},{psd[i]:.12g}" for i in range(len(freqs)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
