"""Seeded, reproducible zero-mean Gaussian current-noise sources.

White sources produce i.i.d. Gaussian samples whose one-sided power
spectral density equals ``density**2`` (A^2/Hz) up to the Nyquist frequency,
i.e. sample standard deviation ``density * sqrt(1 / (2 dt))``.

Pink (1/f) sources filter white Gaussian noise through a cascade of six
first-order pole-zero sections with poles log-spaced across the band, giving
a power slope of -10 dB/decade inside the band and a -20 dB/decade roll-off
above it.  The output is scaled so the in-band rms matches a white source of
the same density over the same band: rms = density * sqrt(f_hi - f_lo).
The filter state is initialized from its stationary distribution (via the
discrete Lyapunov equation of the cascade), so the series is statistically
stationary from the first sample with no warm-up.

Reproducibility: each source is a counter-based Philox stream keyed by
``(seed, stream_id)``.  For a pink source the generator first draws the
initial filter state, then the input samples; this order is part of the
stream contract and is stable within a major release.  No sample mean is
subtracted: a series is zero-mean in expectation, and its first ``n``
samples do not depend on how many follow.

A source is read forward through a ``NoiseStream``, which draws at most
NOISE_CHUNK samples at a time and carries the generator and, for a pink
source, the filter state ``zi`` from draw to draw.  How a series is split
into reads changes none of its bits: Philox normals do not depend on how
the draws are chunked, and ``sosfilt`` carrying ``zi`` filters sample by
sample.  So ``generate(spec, n, dt)`` is the stream's first ``n`` samples,
and a simulation holds one chunk of each source whatever its length.
scipy designs and runs the pink filter and is imported on first use, so a
process that only needs white sources never loads it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NoiseSpec",
    "NoiseStream",
    "check_grid",
    "generate",
    "prepare",
    "psd_estimate",
    "density_for_rms",
    "make_rng",
]

_MASK64 = (1 << 64) - 1

# Number of pole-zero sections in the pink cascade.
PINK_SECTIONS = 6

DEFAULT_BAND = (10.0, 5e6)

# Samples a stream draws at a time; bounds its scratch memory at a few
# times NOISE_CHUNK doubles.
NOISE_CHUNK = 1 << 14


def make_rng(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Counter-based generator for the stream ``(seed, stream_id)``.

    The mapping (seed, stream_id) -> stream is a direct Philox-4x64 key and
    is stable across runs and platforms.
    """
    key = np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def density_for_rms(rms: float, band: tuple[float, float]) -> float:
    """Spectral density (A/sqrt(Hz)) giving ``rms`` over ``band``.

    Uses the conversion rms = density * sqrt(f_hi - f_lo).
    """
    f_lo, f_hi = band
    if not 0.0 < f_lo < f_hi:
        raise ValueError("band must satisfy 0 < f_lo < f_hi")
    if not rms > 0.0:
        raise ValueError("rms must be strictly positive")
    return rms / np.sqrt(f_hi - f_lo)


@dataclass(frozen=True)
class NoiseSpec:
    """Definition of one seeded current-noise source.

    Parameters
    ----------
    kind : str
        "white" or "pink".
    density : float
        Current spectral density, A/sqrt(Hz) (e.g. 200e-12 for 200 pA/rtHz).
    band : (float, float)
        (f_lo, f_hi) in Hz.  The pink slope is enforced within the band; at
        generation time f_hi must not exceed the Nyquist frequency 1/(2 dt).
    seed, stream_id : int
        Stream key; distinct per source within a run.
    """

    kind: str
    density: float
    band: tuple[float, float] = DEFAULT_BAND
    seed: int = 0
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("white", "pink"):
            raise ValueError(f"kind must be 'white' or 'pink', got {self.kind!r}")
        if not self.density > 0.0:
            raise ValueError("density must be strictly positive")
        f_lo, f_hi = self.band
        if not 0.0 < f_lo < f_hi:
            raise ValueError("band must satisfy 0 < f_lo < f_hi")

    @classmethod
    def from_rms(
        cls,
        kind: str,
        rms: float,
        band: tuple[float, float] = DEFAULT_BAND,
        seed: int = 0,
        stream_id: int = 0,
    ) -> "NoiseSpec":
        """Source specified by in-band rms amplitude instead of density."""
        return cls(kind=kind, density=density_for_rms(rms, band), band=band, seed=seed, stream_id=stream_id)


@lru_cache(maxsize=32)
def _pink_filter(f_lo: float, f_hi: float, dt: float) -> tuple[tuple, float]:
    """Digital SOS cascade and output scale for a unit-density pink source.

    Returns (sos_as_nested_tuple, scale) where scale converts the response
    to unit-variance white input into a series whose in-band rms equals
    sqrt(f_hi - f_lo), i.e. that of a unit-density white source over the band.
    """
    from scipy import signal

    f_poles = np.logspace(np.log10(f_lo), np.log10(f_hi), PINK_SECTIONS)
    f_zeros = np.sqrt(f_poles[1:] * f_poles[:-1])
    z, p, k = signal.bilinear_zpk(-2 * np.pi * f_zeros, -2 * np.pi * f_poles, 1.0, fs=1.0 / dt)
    sos = signal.zpk2sos(z, p, k)

    # In-band output power for unit-variance white input (one-sided PSD 2*dt).
    freqs = np.logspace(np.log10(f_lo), np.log10(f_hi), 4096)
    _, h = signal.sosfreqz(sos, worN=freqs, fs=1.0 / dt)
    p_band = np.trapezoid(2.0 * dt * np.abs(h) ** 2, freqs)
    scale = float(np.sqrt((f_hi - f_lo) / p_band))
    return tuple(map(tuple, sos)), scale


@lru_cache(maxsize=32)
def _stationary_chol(f_lo: float, f_hi: float, dt: float) -> np.ndarray:
    """Cholesky factor of the stationary state covariance of the cascade.

    The cascade is run in direct form II transposed; the joint state of all
    sections is linear in the white input, so its stationary covariance
    solves the discrete Lyapunov equation Sigma = A Sigma A' + B B'.
    """
    from scipy import linalg

    sos_t, _ = _pink_filter(f_lo, f_hi, dt)
    sos = np.asarray(sos_t)
    n_sec = sos.shape[0]
    m = 2 * n_sec
    a_mat = np.zeros((m, m))
    b_vec = np.zeros(m)

    # Linear form of the current section input: x_k = c*x + d @ s.
    c = 1.0
    d = np.zeros(m)
    for k in range(n_sec):
        b0, b1, b2, _, a1, a2 = sos[k]
        i1, i2 = 2 * k, 2 * k + 1
        # y = b0*x_k + s1
        cy = b0 * c
        dy = b0 * d.copy()
        dy[i1] += 1.0
        # s1' = b1*x_k - a1*y + s2
        b_vec[i1] = b1 * c - a1 * cy
        a_mat[i1] = b1 * d - a1 * dy
        a_mat[i1, i2] += 1.0
        # s2' = b2*x_k - a2*y
        b_vec[i2] = b2 * c - a2 * cy
        a_mat[i2] = b2 * d - a2 * dy
        # next section input is y
        c, d = cy, dy

    q = np.outer(b_vec, b_vec)
    with warnings.catch_warnings():
        # near-unit poles (slow band edges on fine grids) trip scipy's
        # conditioning heuristic; the residual check below is what matters
        warnings.simplefilter("ignore", linalg.LinAlgWarning)
        sigma = linalg.solve_discrete_lyapunov(a_mat, q)
    resid = np.linalg.norm(a_mat @ sigma @ a_mat.T + q - sigma) / np.linalg.norm(sigma)
    if not np.isfinite(resid) or resid > 1e-9:
        raise RuntimeError(f"stationary covariance solve failed (residual {resid:.2e})")
    sigma = 0.5 * (sigma + sigma.T)
    jitter = 1e-12 * np.trace(sigma) / m
    return np.linalg.cholesky(sigma + jitter * np.eye(m))


def check_grid(band: tuple[float, float], dt: float) -> None:
    """Raise ValueError unless samples at interval ``dt`` can carry ``band``:
    ``dt`` positive and ``band``'s upper edge at most the Nyquist frequency."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    nyquist = 0.5 / dt
    if band[1] > nyquist * (1.0 + 1e-12):
        raise ValueError(f"band upper edge {band[1]:g} Hz exceeds Nyquist {nyquist:g} Hz at dt={dt:g}")


def prepare(spec: NoiseSpec, dt: float) -> None:
    """Design a pink source's filter for sample interval ``dt`` ahead of
    ``generate`` (importing scipy), so that processes forked afterwards
    inherit both; a white source needs neither."""
    if spec.kind == "pink":
        check_grid(spec.band, dt)
        _stationary_chol(*spec.band, dt)


class NoiseStream:
    """The samples of one source at interval ``dt``, read forward.

    ``read(n)`` returns the next ``n`` samples; the series does not depend
    on how it is split into reads (see the module docstring).
    """

    def __init__(self, spec: NoiseSpec, dt: float):
        check_grid(spec.band, dt)
        self._rng = make_rng(spec.seed, spec.stream_id)
        if spec.kind == "white":
            self._sos = None
            self._gain = spec.density * np.sqrt(0.5 / dt)
        else:
            f_lo, f_hi = spec.band
            chol = _stationary_chol(f_lo, f_hi, dt)
            self._zi = (chol @ self._rng.standard_normal(chol.shape[0])).reshape(-1, 2)
            sos_t, scale = _pink_filter(f_lo, f_hi, dt)
            self._sos = np.asarray(sos_t)
            self._gain = spec.density * scale

    def read(self, n: int) -> np.ndarray:
        """The next ``n`` samples."""
        out = np.empty(n)
        for k in range(0, n, NOISE_CHUNK):
            part = out[k:k + NOISE_CHUNK]
            if self._sos is None:
                self._rng.standard_normal(out=part)
                part *= self._gain
            else:
                from scipy import signal

                y, self._zi = signal.sosfilt(self._sos, self._rng.standard_normal(part.size), zi=self._zi)
                np.multiply(y, self._gain, out=part)
        return out


def generate(spec: NoiseSpec, n: int, dt: float) -> np.ndarray:
    """Length-``n`` current series sampled at ``dt`` for the given source:
    the first ``n`` samples of its ``NoiseStream``.

    The series is zero-mean in expectation; no sample mean is subtracted,
    so the first ``n`` samples do not depend on ``n``.  The same
    (spec, n, dt) always yields the identical series.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return NoiseStream(spec, dt).read(n)


def psd_estimate(series, dt: float, n_segments: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Welch-style averaged periodogram.

    The series is split into ``n_segments`` half-overlapping Hann-tapered
    segments; squared spectral magnitudes are averaged and scaled to a
    one-sided density in A^2/Hz.  No detrending is applied, so a DC offset
    shows up in the lowest bin.

    Parameters
    ----------
    series : array_like
        Input samples; length must be at least ``8 * n_segments``.
    dt : float
        Sample interval, seconds.
    n_segments : int
        Number of half-overlapping segments.

    Returns
    -------
    (freqs, psd) : ndarray, ndarray
        One-sided frequencies in Hz and density in A^2/Hz.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    if x.size < 8 * n_segments:
        raise ValueError(f"series too short: {x.size} < 8 * {n_segments}")

    seg_len = (2 * x.size) // (n_segments + 1)
    hop = seg_len // 2
    window = np.hanning(seg_len)
    win_power = np.sum(window**2)

    acc = np.zeros(seg_len // 2 + 1)
    for k in range(n_segments):
        seg = x[k * hop : k * hop + seg_len]
        spectrum = np.fft.rfft(seg * window)
        acc += np.abs(spectrum) ** 2

    psd = acc * (2.0 * dt / (n_segments * win_power))
    psd[0] /= 2.0
    if seg_len % 2 == 0:
        psd[-1] /= 2.0
    freqs = np.fft.rfftfreq(seg_len, dt)
    return freqs, psd
