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
stationary from the first sample with no warm-up.  The filter is designed
and run with numpy alone (``_pink_filter``): the output of each block of
PINK_BLOCK samples is one matmul of its input by the impulse response plus
the free response of its start state, and the state is handed on from
each frame of PINK_FRAME blocks to the next.

Reproducibility: each source is a counter-based Philox stream keyed by
``(seed, stream_id)``.  For a pink source the generator first draws the
initial filter state, then the input samples; this order is part of the
stream contract and is stable within a major release.  No sample mean is
subtracted: a series is zero-mean in expectation, and its first ``n``
samples do not depend on how many follow.

A source is read forward through a ``NoiseStream``, which draws a white
read in one call and pink samples NOISE_CHUNK at a time, and carries the
generator and the pink filter state from read to read.  How a series is
split into reads changes none of its bits: Philox normals do not depend on
how the draws are chunked, and a pink stream filters whole NOISE_CHUNK
draws at fixed positions from the start of the stream, keeping the samples
not yet read.  So ``generate(spec, n, dt)`` is the stream's first ``n``
samples, and a simulation holds one chunk of each source whatever its length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NoiseSpec",
    "NoiseStream",
    "check_grid",
    "generate",
    "psd_estimate",
    "density_for_rms",
    "make_rng",
]

_MASK64 = (1 << 64) - 1

# Number of pole-zero sections in the pink cascade.
PINK_SECTIONS = 6

DEFAULT_BAND = (10.0, 5e6)

# Samples a pink stream draws, and a simulation reads from each stream, at
# a time; bounds their scratch memory at a few times NOISE_CHUNK doubles.
NOISE_CHUNK = 1 << 14

# The pink filter (``_pink_filter``) takes samples in blocks of PINK_BLOCK
# and hands its state on from frame to frame of PINK_FRAME blocks; a
# NOISE_CHUNK draw is a whole number of frames.
PINK_BLOCK = 1 << 6
PINK_FRAME = 1 << 4
assert NOISE_CHUNK % (PINK_BLOCK * PINK_FRAME) == 0
# Rows per matmul by the block Toeplitz matrix.  OpenBLAS runs a product
# of at most 64 x 64 x 64 multiply-adds on the calling thread; a threaded
# one in each of two worker processes on two cores waits for time slices,
# which made filtering 3 to 9 times slower.  The other products of a
# NOISE_CHUNK draw are smaller.
_TOEPLITZ_ROWS = 64


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
    if not 0.0 < f_lo < f_hi < math.inf:
        raise ValueError("band must satisfy 0 < f_lo < f_hi < inf")
    if not 0.0 < rms < math.inf:
        raise ValueError("rms must be strictly positive and finite")
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
        if not 0.0 < self.density < math.inf:
            raise ValueError("density must be strictly positive and finite")
        f_lo, f_hi = self.band
        if not 0.0 < f_lo < f_hi < math.inf:
            raise ValueError("band must satisfy 0 < f_lo < f_hi < inf")

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


def _pink_design(f_lo: float, f_hi: float, dt: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Digital zeros, poles and gain of the unit-density pink cascade, and
    its output scale.

    Six first-order analog sections have their poles log-spaced over the
    band and zeros at the geometric means of neighbouring poles; the
    bilinear transform maps each pole and zero and gives the last pole,
    which has no analog zero, a zero at z = -1.  ``scale`` converts the
    response to unit-variance white input into a series whose in-band rms
    equals sqrt(f_hi - f_lo), i.e. that of a unit-density white source over
    the band.
    """
    fs2 = 2.0 / dt
    f_poles = np.logspace(np.log10(f_lo), np.log10(f_hi), PINK_SECTIONS)
    s_poles = -2 * np.pi * f_poles
    s_zeros = -2 * np.pi * np.sqrt(f_poles[1:] * f_poles[:-1])
    zeros = np.append((fs2 + s_zeros) / (fs2 - s_zeros), -1.0)
    poles = (fs2 + s_poles) / (fs2 - s_poles)
    gain = float(np.prod(fs2 - s_zeros) / np.prod(fs2 - s_poles))

    # In-band output power for unit-variance white input (one-sided PSD 2*dt).
    freqs = np.logspace(np.log10(f_lo), np.log10(f_hi), 4096)
    q = np.exp(2j * np.pi * dt * freqs)[:, None]
    h = gain * np.prod((q - zeros) / (q - poles), axis=1)
    p_band = np.trapezoid(2.0 * dt * np.abs(h) ** 2, freqs)
    return zeros, poles, gain, float(np.sqrt((f_hi - f_lo) / p_band))


def _state_space(zeros, poles, gain: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """State-space model (A, B, C, D) of the cascade, x' = A x + B u and
    y = C x + D u.

    Section k is (1 - zeros[k] / z) / (1 - poles[k] / z) in direct form II
    transposed, with one state x[k].  Its input is the output of section
    k - 1, gain*u + x[0] + ... + x[k-1]; its output is its input plus x[k];
    and x[k]' = poles[k]*output - zeros[k]*input.
    """
    lead = poles - zeros
    a_mat = np.tril(lead[:, None] * np.ones(len(poles)), -1) + np.diag(poles)
    return a_mat, gain * lead, np.ones(len(poles)), gain


def _stationary_cov(a_mat: np.ndarray, b_vec: np.ndarray) -> np.ndarray:
    """Stationary covariance of the state under unit-variance white input:
    the solution of the discrete Lyapunov equation Sigma = A Sigma A' + B B'.

    Sigma is the series sum over k of A^k B B' A'^k, summed by doubling:
    each step adds the sum so far mapped by A^(2^i), and the series ends
    once that power underflows to zero (about 30 steps for a 10 Hz pole at
    10 ns).  On that band the sum is within 6e-13 of the same sum taken in
    extended precision; solving (I - A (x) A) vec(Sigma) = vec(B B')
    instead erred by 4e-9.
    """
    sigma = np.outer(b_vec, b_vec)
    q = sigma
    power = a_mat
    for _ in range(64):
        sigma = sigma + power @ sigma @ power.T
        power = power @ power
        if not power.any():
            break
    resid = np.linalg.norm(a_mat @ sigma @ a_mat.T + q - sigma) / np.linalg.norm(sigma)
    if power.any() or not np.isfinite(resid) or resid > 1e-9:
        raise RuntimeError(f"stationary covariance solve failed (residual {resid:.2e})")
    return 0.5 * (sigma + sigma.T)


@dataclass(frozen=True)
class _PinkModel:
    """The unit-density pink cascade for one (band, dt), as ``_pink_filter``
    runs it.

    States are rows of PINK_SECTIONS values and blocks rows of PINK_BLOCK
    samples.  A block u with start state x gives the output
    ``u @ toeplitz + x @ free`` and ends in the state ``x @ m + u @ drive``,
    where m is the state map over a block, (A^PINK_BLOCK)'.  For a frame of
    PINK_FRAME blocks with start state x, in which the blocks' ``u @ drive``
    make the row f, the blocks start in ``x @ spread + f @ carry`` and the
    frame ends in ``x @ hand + f @ push``.
    """

    scale: float
    chol: np.ndarray  # Cholesky factor of the stationary state covariance
    toeplitz: np.ndarray  # h[j - i] at row i, column j >= i; h the impulse response
    free: np.ndarray  # C A^j in column j
    drive: np.ndarray  # A^(PINK_BLOCK-1-i) B in row i
    spread: np.ndarray  # m^j in block column j
    carry: np.ndarray  # m^(j-1-i) in block row i, block column j > i
    push: np.ndarray  # m^(PINK_FRAME-1-i) in block row i
    hand: np.ndarray  # m^PINK_FRAME

    def __post_init__(self) -> None:
        # one model serves every stream of its (band, dt) through the cache
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


@lru_cache(maxsize=32)
def _pink_model(f_lo: float, f_hi: float, dt: float) -> _PinkModel:
    """The pink cascade for band (f_lo, f_hi) at sample interval ``dt``."""
    zeros, poles, gain, scale = _pink_design(f_lo, f_hi, dt)
    a_mat, b_vec, c_vec, d = _state_space(zeros, poles, gain)
    n = b_vec.size
    sigma = _stationary_cov(a_mat, b_vec)
    jitter = 1e-12 * np.trace(sigma) / n
    chol = np.linalg.cholesky(sigma + jitter * np.eye(n))

    free = np.empty((n, PINK_BLOCK))
    drive = np.empty((PINK_BLOCK, n))
    row, col = c_vec, b_vec
    for j in range(PINK_BLOCK):
        free[:, j] = row
        drive[PINK_BLOCK - 1 - j] = col
        row, col = row @ a_mat, a_mat @ col
    h = np.concatenate(([d], b_vec @ free[:, :-1]))
    lag = np.arange(PINK_BLOCK) - np.arange(PINK_BLOCK)[:, None]
    toeplitz = np.where(lag >= 0, h[np.maximum(lag, 0)], 0.0)

    m = np.linalg.matrix_power(a_mat, PINK_BLOCK).T
    powers = [np.eye(n)]
    for _ in range(PINK_FRAME):
        powers.append(powers[-1] @ m)
    carry = np.zeros((PINK_FRAME * n, PINK_FRAME * n))
    for i in range(PINK_FRAME):
        for j in range(i + 1, PINK_FRAME):
            carry[i * n:(i + 1) * n, j * n:(j + 1) * n] = powers[j - 1 - i]
    return _PinkModel(scale, chol, toeplitz, free, drive, spread=np.hstack(powers[:PINK_FRAME]), carry=carry,
                      push=np.vstack(powers[PINK_FRAME - 1::-1]), hand=powers[PINK_FRAME])


def _pink_filter(model: _PinkModel, u: np.ndarray, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Filter ``u``, whole frames, from the cascade state ``state``; return
    the output and the end state.

    The state is handed on from each frame to the next in order; within a
    frame, the blocks' start states follow from the frame's by one matmul,
    and each block's output is its input times the impulse response plus
    the free response of its start state.
    """
    blocks = u.reshape(-1, PINK_BLOCK)
    forced = (blocks @ model.drive).reshape(-1, PINK_FRAME * state.size)
    starts = np.empty((forced.shape[0], state.size))
    for k, push in enumerate(forced @ model.push):
        starts[k] = state
        state = state @ model.hand + push
    block_starts = starts @ model.spread + forced @ model.carry
    y = block_starts.reshape(-1, state.size) @ model.free
    for r in range(0, blocks.shape[0], _TOEPLITZ_ROWS):
        y[r:r + _TOEPLITZ_ROWS] += blocks[r:r + _TOEPLITZ_ROWS] @ model.toeplitz
    return y.reshape(-1), state


def check_grid(band: tuple[float, float], dt: float) -> None:
    """Raise ValueError unless samples at interval ``dt`` can carry ``band``:
    ``dt`` positive and ``band``'s upper edge at most the Nyquist frequency."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    nyquist = 0.5 / dt
    if band[1] > nyquist * (1.0 + 1e-12):
        raise ValueError(f"band upper edge {band[1]:g} Hz exceeds Nyquist {nyquist:g} Hz at dt={dt:g}")


class NoiseStream:
    """The samples of one source at interval ``dt``, read forward.

    ``read(n)`` returns the next ``n`` samples; the series does not depend
    on how it is split into reads (see the module docstring).
    """

    def __init__(self, spec: NoiseSpec, dt: float):
        check_grid(spec.band, dt)
        self._rng = make_rng(spec.seed, spec.stream_id)
        if spec.kind == "white":
            self._pink = None
            self._gain = spec.density * np.sqrt(0.5 / dt)
        else:
            self._pink = _pink_model(*spec.band, dt)
            self._state = self._pink.chol @ self._rng.standard_normal(PINK_SECTIONS)
            self._gain = spec.density * self._pink.scale
            self._unread = np.empty(0)

    def read(self, n: int) -> np.ndarray:
        """The next ``n`` samples."""
        out = np.empty(n)
        if self._pink is None:
            self._rng.standard_normal(out=out)
            out *= self._gain
            return out
        k = 0
        while k < n:
            if not self._unread.size:
                self._unread, self._state = _pink_filter(self._pink, self._rng.standard_normal(NOISE_CHUNK),
                                                         self._state)
            m = min(n - k, self._unread.size)
            np.multiply(self._unread[:m], self._gain, out=out[k:k + m])
            self._unread = self._unread[m:]
            k += m
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
