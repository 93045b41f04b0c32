"""Statistics over spike records and external event series.

Covers spike detection on sampled membrane traces, threshold sweeps,
inter-spike-interval (ISI) and inter-train-interval (ITI) statistics,
event binning, and Pearson correlation matrices of binned activity.

All functions are pure and operate on plain arrays, so they apply equally
to simulated spike records and to externally recorded event series (for
example frame-sampled activity at one event per detected activation).
The one exception, ``record_matrix``, reads only a spike record's
``times`` and ``duration`` attributes, so this module does not import the
engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EventSeries",
    "CorrelationMatrix",
    "detect_spikes",
    "threshold_sweep",
    "isi",
    "histogram",
    "trains",
    "iti",
    "bin_events",
    "pearson_matrix",
    "block_means",
    "record_matrix",
    "DEFAULT_BIN_S",
    "DEFAULT_GAP_FACTOR",
]

# Default bin width for simulated spike trains: one natural spike period.
DEFAULT_BIN_S = 1e-6

# Default train segmentation factor: split where an ISI exceeds
# gap_factor * median ISI.
DEFAULT_GAP_FACTOR = 5.0


@dataclass(frozen=True)
class EventSeries:
    """Sorted event times of one source (neuron, ROI, channel...)."""

    source_id: int
    times: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if t.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if t.size > 1 and np.any(np.diff(t) <= 0.0):
            raise ValueError(f"source {self.source_id}: times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pearson coefficients between labeled series.

    ``values`` is square and symmetric with unit diagonal; entries involving
    a zero-variance series are NaN and flagged in ``undefined`` (a boolean
    vector marking the degenerate rows/columns).
    """

    values: np.ndarray
    labels: tuple
    undefined: np.ndarray
    bin_width: float | None = None

    @property
    def n(self) -> int:
        return self.values.shape[0]


def detect_spikes(trace, dt: float, threshold: float = 1.0) -> EventSeries:
    """Spike events from a sampled voltage trace.

    An event is recorded at each rising crossing of ``threshold``; the
    detector re-arms only after the trace falls back below the threshold,
    so noisy plateaus above threshold produce a single count.  Event times
    are the sample times (index * dt) of the first sample at or above
    threshold; the series has source id 0.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    v = np.asarray(trace, dtype=float)
    if v.ndim != 1:
        raise ValueError("trace must be one-dimensional")
    above = v >= threshold
    # armed before sample i  <=>  sample i-1 was below threshold
    armed = np.empty_like(above)
    armed[0] = True
    np.logical_not(above[:-1], out=armed[1:])
    idx = np.nonzero(above & armed)[0]
    return EventSeries(source_id=0, times=idx * dt)


def threshold_sweep(trace, dt: float, thresholds) -> list[tuple[float, int]]:
    """Spike counts of ``detect_spikes`` for each threshold.

    ``thresholds`` must be ascending.  On clean spike traces the counts are
    non-increasing in the threshold and flatten into a plateau once the
    threshold clears the sub-threshold fluctuations.
    """
    th = np.asarray(thresholds, dtype=float)
    if th.size > 1 and np.any(np.diff(th) <= 0.0):
        raise ValueError("thresholds must be ascending")
    return [(float(t), len(detect_spikes(trace, dt, float(t)))) for t in th]


def isi(events: EventSeries) -> np.ndarray:
    """Inter-spike intervals (consecutive differences), seconds."""
    if len(events) < 2:
        return np.empty(0)
    return np.diff(events.times)


def histogram(values, bin_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-width histogram of non-negative values.

    Bin k covers [k * bin_width, (k+1) * bin_width); the left edges are
    returned alongside the counts.

    Returns
    -------
    (edges, counts) : ndarray, ndarray
        ``edges`` has one more entry than ``counts``.
    """
    if not bin_width > 0.0:
        raise ValueError("bin_width must be positive")
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        return np.array([0.0, bin_width]), np.zeros(1, dtype=int)
    n_bins = int(np.floor(x.max() / bin_width)) + 1
    edges = np.arange(n_bins + 1) * bin_width
    counts, _ = np.histogram(x, bins=edges)
    return edges, counts


def trains(events: EventSeries, gap_factor: float = DEFAULT_GAP_FACTOR) -> list[np.ndarray]:
    """Split an event series into trains at unusually long gaps.

    A new train starts wherever an ISI exceeds ``gap_factor`` times the
    median ISI.  Fewer than two events yield an empty list.
    """
    if not gap_factor > 1.0:
        raise ValueError("gap_factor must be > 1")
    t = events.times
    if t.size < 2:
        return []
    gaps = np.diff(t)
    cut = gaps > gap_factor * np.median(gaps)
    boundaries = np.nonzero(cut)[0] + 1
    return np.split(t, boundaries)


def iti(train_list: list[np.ndarray]) -> np.ndarray:
    """Inter-train intervals: last spike of each train to first of the next."""
    if len(train_list) < 2:
        return np.empty(0)
    ends = np.array([tr[-1] for tr in train_list[:-1]])
    starts = np.array([tr[0] for tr in train_list[1:]])
    return starts - ends


def bin_events(events: EventSeries, bin_width: float, t_end: float) -> np.ndarray:
    """Event counts per bin over [0, t_end).

    Bin k covers [k * bin_width, (k+1) * bin_width); the sum of the counts
    equals the number of events before ``t_end``.
    """
    if not bin_width > 0.0:
        raise ValueError("bin_width must be positive")
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    ratio = t_end / bin_width
    n_bins = int(np.floor(ratio))
    if ratio - n_bins > 1e-9:  # tolerate t_end = k * bin_width up to rounding
        n_bins += 1
    n_bins = max(n_bins, 1)
    t = events.times
    t = t[(t >= 0.0) & (t < t_end)]
    idx = np.floor(t / bin_width).astype(np.int64)
    np.clip(idx, 0, n_bins - 1, out=idx)
    return np.bincount(idx, minlength=n_bins)


def pearson_matrix(series, labels=None, bin_width: float | None = None) -> CorrelationMatrix:
    """Pearson correlation coefficients between all pairs of series.

    Each series is standardized by its mean and its (ddof=1) standard
    deviation; the coefficient of a pair is the mean product of the
    standardized samples with the same 1/(N-1) normalization.  Series with
    exactly zero variance produce NaN entries, flagged in ``undefined``
    rather than silently reported as zero.

    Parameters
    ----------
    series : array_like
        2-D array (or sequence of equal-length 1-D arrays), one series per
        row, each of length >= 2.
    labels : sequence, optional
        Row labels; defaults to 0..m-1.
    bin_width : float, optional
        Bin width the series were produced with, recorded for provenance.
    """
    rows = [np.asarray(s, dtype=float) for s in series]
    if len(rows) == 0:
        raise ValueError("need at least one series")
    n = rows[0].size
    for r in rows:
        if r.ndim != 1 or r.size != n:
            raise ValueError("all series must be one-dimensional and of equal length")
    if n < 2:
        raise ValueError("series length must be >= 2")
    x = np.vstack(rows)
    m = x.shape[0]

    centered = x - x.mean(axis=1, keepdims=True)
    ss = np.einsum("ij,ij->i", centered, centered)
    defined = ss > 0.0
    sd = np.sqrt(ss / (n - 1))

    cov = (centered @ centered.T) / (n - 1)
    denom = np.outer(sd, sd)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = cov / denom
    rho[~defined, :] = np.nan
    rho[:, ~defined] = np.nan
    np.clip(rho, -1.0, 1.0, out=rho)
    di = np.arange(m)
    rho[di[defined], di[defined]] = 1.0

    if labels is None:
        labels = tuple(range(m))
    return CorrelationMatrix(
        values=rho, labels=tuple(labels), undefined=~defined, bin_width=bin_width
    )


def block_means(corr: CorrelationMatrix, group_of) -> tuple[float, float]:
    """Mean within-group off-diagonal and cross-group correlation.

    ``group_of[i]`` is the group (island) index of row i.  NaN entries
    (undefined correlations) are excluded from both means.

    Returns
    -------
    (within, cross) : float, float
        NaN if a class of pairs is empty or entirely undefined.
    """
    g = np.asarray(group_of)
    if g.size != corr.n:
        raise ValueError("group_of length must match matrix size")
    same = g[:, None] == g[None, :]
    off_diag = ~np.eye(corr.n, dtype=bool)

    def _mean(cells: np.ndarray) -> float:
        valid = cells[~np.isnan(cells)]
        return float(valid.mean()) if valid.size else float("nan")

    v = corr.values
    return _mean(v[same & off_diag]), _mean(v[~same])


def record_matrix(record) -> CorrelationMatrix:
    """Pearson matrix of a spike record's neurons in ``DEFAULT_BIN_S`` bins.

    Each neuron's spikes (``record.times[i]``) are binned over
    ``[0, record.duration)``; the matrix is labeled 0..n-1 and records the
    bin width.  ``block_means(record_matrix(rec), rec.island_of)`` gives the
    mean within-island and cross-island correlation of a run.
    """
    binned = [bin_events(EventSeries(i, t), DEFAULT_BIN_S, record.duration) for i, t in enumerate(record.times)]
    return pearson_matrix(binned, bin_width=DEFAULT_BIN_S)
