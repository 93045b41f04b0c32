import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import first_order_cascade_oracle
from scipy import linalg, signal, stats

from spikeislands.noise import (
    NOISE_CHUNK,
    PINK_SECTIONS,
    NoiseSpec,
    NoiseStream,
    _pink_design,
    _pink_filter,
    _pink_model,
    _stationary_cov,
    _state_space,
    generate,
    make_rng,
    psd_estimate,
)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("blue", 1e-10)
        with pytest.raises(ValueError):
            NoiseSpec("white", 0.0)
        with pytest.raises(ValueError):
            NoiseSpec("white", 1e-10, band=(5e6, 10.0))

    @pytest.mark.parametrize("kw", [dict(density=np.inf), dict(density=1e-10, band=(10.0, np.inf))])
    def test_non_finite_rejected(self, kw):
        with pytest.raises(ValueError):
            NoiseSpec("white", **kw)

    def test_from_rms_round_trip(self):
        spec = NoiseSpec.from_rms("white", 1.5e-6, band=(10.0, 5e6))
        assert spec.density * np.sqrt(5e6 - 10.0) == pytest.approx(1.5e-6, rel=1e-12)

    def test_band_vs_dt_checked_at_generation(self):
        spec = NoiseSpec("white", 1e-10, band=(10.0, 5e6))
        with pytest.raises(ValueError):
            generate(spec, 100, 1e-6)  # Nyquist 500 kHz < f_hi


class TestDeterminism:
    def test_same_key_bit_identical(self):
        spec = NoiseSpec("white", 2e-10, (10.0, 5e6), seed=42, stream_id=3)
        assert np.array_equal(generate(spec, 5000, 1e-8), generate(spec, 5000, 1e-8))
        pink = NoiseSpec("pink", 2e-10, (100.0, 5e5), seed=42, stream_id=3)
        assert np.array_equal(generate(pink, 5000, 1e-6), generate(pink, 5000, 1e-6))

    def test_distinct_streams_differ(self):
        a = generate(NoiseSpec("white", 2e-10, (10.0, 5e6), seed=42, stream_id=0), 1000, 1e-8)
        b = generate(NoiseSpec("white", 2e-10, (10.0, 5e6), seed=42, stream_id=1), 1000, 1e-8)
        assert not np.array_equal(a, b)

    def test_stream_mapping_stable(self):
        # the (seed, stream) -> values mapping is a contract: freeze a probe
        rng = make_rng(12345, 6)
        first = rng.standard_normal(3)
        rng2 = make_rng(12345, 6)
        assert np.array_equal(first, rng2.standard_normal(3))


class TestStream:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["white", "pink"]), st.lists(st.integers(1, 2 * NOISE_CHUNK), min_size=1, max_size=5),
           st.integers(0, 2**64 - 1))
    @example("pink", [NOISE_CHUNK - 1, 2, NOISE_CHUNK], 0)  # reads across draws
    @example("white", [1, NOISE_CHUNK + 1, 1], 1)
    def test_reads_in_any_chunks_are_one_generate_call(self, kind, sizes, seed):
        # the series does not depend on how it is split into reads: Philox
        # normals do not depend on how the draws are chunked, and the pink
        # filter carries zi
        spec = NoiseSpec(kind, 2e-10, (100.0, 5e5), seed=seed, stream_id=1)
        stream = NoiseStream(spec, 1e-6)
        parts = [stream.read(n) for n in sizes]
        assert np.concatenate(parts).tobytes() == generate(spec, sum(sizes), 1e-6).tobytes()


class TestWhite:
    def test_rms_matches_density_over_simulated_band(self):
        # density sized for 1.5 uA rms over (f_lo, Nyquist): sample rms +-3%
        dt = 1e-8
        band = (10.0, 0.5 / dt)
        spec = NoiseSpec.from_rms("white", 1.5e-6, band=band, seed=1)
        x = generate(spec, 1_000_000, dt)
        assert np.sqrt(np.mean(x**2)) == pytest.approx(1.5e-6, rel=0.03)

    def test_zero_mean(self):
        # zero mean in expectation, not by subtraction: the sample mean of
        # i.i.d. samples lies within 5 standard errors of zero
        x = generate(NoiseSpec("white", 2e-10, (10.0, 5e6), seed=3), 100_000, 1e-8)
        assert abs(x.mean()) < 5.0 * x.std() / np.sqrt(x.size)

    def test_gaussianity_excess_kurtosis(self):
        x = generate(NoiseSpec("white", 2e-10, (10.0, 5e6), seed=4), 1_000_000, 1e-8)
        assert abs(stats.kurtosis(x)) < 0.1

    def test_stream_independence_lag0(self):
        n = 1_000_000
        a = generate(NoiseSpec("white", 2e-10, (10.0, 5e6), seed=9, stream_id=0), n, 1e-8)
        b = generate(NoiseSpec("white", 2e-10, (10.0, 5e6), seed=9, stream_id=1), n, 1e-8)
        rho = float(np.corrcoef(a, b)[0, 1])
        assert abs(rho) < 0.01

    def test_psd_flat(self):
        # quick 20-seed version; the acceptance suite runs the 100-seed one
        dens = 2e-10
        band = (100.0, 5e5)
        dt = 1e-6
        acc = None
        for seed in range(20):
            x = generate(NoiseSpec("white", dens, band, seed=seed), 1 << 16, dt)
            f, p = psd_estimate(x, dt, 8)
            acc = p if acc is None else acc + p
        acc /= 20
        m = (f >= band[0] * 10) & (f <= band[1] / 10)
        dev_db = 10 * np.log10(acc[m] / dens**2)
        assert np.abs(dev_db).max() < 1.5


class TestPink:
    def test_slope_minus_10db_per_decade(self):
        dens = 2e-10
        band = (100.0, 5e5)
        dt = 1e-6
        acc = None
        for seed in range(30):
            x = generate(NoiseSpec("pink", dens, band, seed=seed), 1 << 17, dt)
            f, p = psd_estimate(x, dt, 8)
            acc = p if acc is None else acc + p
        acc /= 30
        m = (f >= band[0] * 10) & (f <= band[1] / 10)
        slope = np.polyfit(np.log10(f[m]), 10 * np.log10(acc[m]), 1)[0]
        assert slope == pytest.approx(-10.0, abs=1.0)

    def test_in_band_rms_matches_white_of_same_density(self):
        dens = 2e-10
        band = (100.0, 5e5)
        dt = 1e-6
        target = dens * np.sqrt(band[1] - band[0])
        pows = []
        for seed in range(20):
            x = generate(NoiseSpec("pink", dens, band, seed=seed), 1 << 17, dt)
            f, p = psd_estimate(x, dt, 8)
            m = (f >= band[0]) & (f <= band[1])
            pows.append(np.trapezoid(p[m], f[m]))
        assert np.sqrt(np.mean(pows)) == pytest.approx(target, rel=0.05)

    def test_stationary_from_first_sample(self):
        # the filter state is drawn from its stationary law: early samples
        # carry the same variance as late ones
        first, later = [], []
        for seed in range(40):
            x = generate(NoiseSpec("pink", 2e-10, (100.0, 5e5), seed=seed), 1 << 16, 1e-6)
            first.append(np.var(x[:2048]))
            later.append(np.var(x[-2048:]))
        assert np.mean(first) == pytest.approx(np.mean(later), rel=0.1)

    def test_zero_mean(self):
        # zero mean in expectation, not by subtraction.  Pink samples are
        # correlated, so the standard error of one series' mean is taken
        # from an ensemble of seeds; the ensemble's mean lies within 5
        # standard errors of zero
        means = np.array([generate(NoiseSpec("pink", 2e-10, (100.0, 5e5), seed=seed), 50_000, 1e-6).mean()
                          for seed in range(20)])
        se = means.std(ddof=1) / np.sqrt(means.size)
        assert se > 0.0
        assert abs(means.mean()) < 5.0 * se

    def test_engine_grid_default_band(self):
        # the simulation grid (10 ns) with the default band (10 Hz - 5 MHz)
        # puts the slowest pole ~6e6 samples under Nyquist; the stationary
        # init must stay sound there (rms within ~10% of the in-band target
        # over an ensemble, finite, deterministic)
        spec = NoiseSpec("pink", 6.7e-10, (10.0, 5e6), seed=3)
        x = generate(spec, 200_000, 1e-8)
        assert np.isfinite(x).all()
        assert np.array_equal(x, generate(spec, 200_000, 1e-8))
        rms = []
        for seed in range(10):
            y = generate(NoiseSpec("pink", 6.7e-10, (10.0, 5e6), seed=seed), 200_000, 1e-8)
            rms.append(np.sqrt(np.mean(y**2)))
        target = 6.7e-10 * np.sqrt(5e6 - 10.0)
        assert np.mean(rms) == pytest.approx(target, rel=0.15)


def pink_filtered(band, dt, u, state):
    """``u`` through the unit-density pink cascade from ``state``, a
    NOISE_CHUNK at a time as a stream filters it."""
    model = _pink_model(*band, dt)
    out = np.empty(u.size)
    for k in range(0, u.size, NOISE_CHUNK):
        out[k:k + NOISE_CHUNK], state = _pink_filter(model, u[k:k + NOISE_CHUNK], state)
    return out


class TestPinkOracles:
    """The numpy design, stationary start and block filter of the pink
    cascade against scipy and against an extended-precision recursion."""

    BANDS = [((1e4, 5e6), 1e-8), ((10.0, 5e6), 1e-8), ((100.0, 5e5), 1e-6), ((10.0, 1e7), 3e-8)]

    @pytest.mark.parametrize("band,dt", BANDS)
    def test_design_matches_scipy(self, band, dt):
        zeros, poles, gain, scale = _pink_design(*band, dt)
        f_poles = np.logspace(np.log10(band[0]), np.log10(band[1]), PINK_SECTIONS)
        f_zeros = np.sqrt(f_poles[1:] * f_poles[:-1])
        z, p, k = signal.bilinear_zpk(-2 * np.pi * f_zeros, -2 * np.pi * f_poles, 1.0, fs=1.0 / dt)
        np.testing.assert_allclose(np.sort(zeros), np.sort(z), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(np.sort(poles), np.sort(p), rtol=1e-12, atol=0.0)
        assert gain == pytest.approx(k, rel=1e-12)

        freqs = np.logspace(np.log10(band[0]), np.log10(band[1]), 4096)
        _, h = signal.freqz_zpk(z, p, k, worN=freqs, fs=1.0 / dt)
        p_band = np.trapezoid(2.0 * dt * np.abs(h) ** 2, freqs)
        assert scale == pytest.approx(np.sqrt((band[1] - band[0]) / p_band), rel=1e-12)

    def test_scale_matches_the_sos_response_on_the_benchmark_band(self):
        # sosfreqz evaluates second-order polynomials whose roots sit near
        # z = 1, which costs it digits at the band's low edge: on the 10 Hz
        # band at 10 ns its scale is 3e-7 off the pole-zero one above.  On
        # the benchmark's band the two agree.
        band, dt = (1e4, 5e6), 1e-8
        z, p, k, scale = _pink_design(*band, dt)
        freqs = np.logspace(np.log10(band[0]), np.log10(band[1]), 4096)
        _, h = signal.sosfreqz(signal.zpk2sos(z, p, k), worN=freqs, fs=1.0 / dt)
        p_band = np.trapezoid(2.0 * dt * np.abs(h) ** 2, freqs)
        assert scale == pytest.approx(np.sqrt((band[1] - band[0]) / p_band), rel=1e-12)

    @pytest.mark.parametrize("band,dt", BANDS)
    def test_stationary_cov_matches_scipy(self, band, dt):
        a_mat, b_vec, _, _ = _state_space(*_pink_design(*band, dt)[:3])
        sigma = _stationary_cov(a_mat, b_vec)
        ref = linalg.solve_discrete_lyapunov(a_mat, np.outer(b_vec, b_vec))
        assert np.linalg.norm(sigma - ref) <= 1e-9 * np.linalg.norm(ref)

    @pytest.mark.parametrize("band,tol", [((1e4, 5e6), 1e-9), ((10.0, 5e6), 1e-5)])
    def test_filter_matches_sosfilt(self, band, tol):
        # 2^20 samples at 10 ns from the zero state; on the 10 Hz band most
        # of the difference is sosfilt's own rounding (next test)
        dt = 1e-8
        u = make_rng(2024, 1).standard_normal(1 << 20)
        y = pink_filtered(band, dt, u, np.zeros(PINK_SECTIONS))
        z, p, k, _ = _pink_design(*band, dt)
        ref = signal.sosfilt(signal.zpk2sos(z, p, k), u)
        assert np.abs(y - ref).max() <= tol * np.sqrt(np.mean(ref**2))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="longdouble is double here")
    @pytest.mark.parametrize("band", [(1e4, 5e6), (10.0, 5e6)])
    def test_filter_matches_extended_precision(self, band):
        # from a stationary state, over two chunks: the frame-to-frame
        # hand-off and the block start states carry no drift
        dt = 1e-8
        rng = make_rng(2025, 2)
        state = _pink_model(*band, dt).chol @ rng.standard_normal(PINK_SECTIONS)
        u = rng.standard_normal(2 * NOISE_CHUNK)
        y = pink_filtered(band, dt, u, state)
        zeros, poles, gain, _ = _pink_design(*band, dt)
        ref = first_order_cascade_oracle(u, zeros, poles, gain, state)
        assert np.abs(y - ref).max() <= 1e-11 * np.sqrt(np.mean(ref**2))


class TestPsdEstimate:
    def test_sinusoid_parseval_anchor(self):
        # amplitude A at a bin center: integrated peak power ~ A^2/2
        dt = 1e-4
        n = 8192
        n_seg = 8
        seg_len = (2 * n) // (n_seg + 1)
        f0 = 40 / (seg_len * dt)  # exact bin center
        t = np.arange(n) * dt
        x = 1.7 * np.sin(2 * np.pi * f0 * t)
        f, p = psd_estimate(x, dt, n_seg)
        peak = np.argmax(p)
        df = f[1] - f[0]
        integrated = p[max(0, peak - 4) : peak + 5].sum() * df
        assert integrated == pytest.approx(1.7**2 / 2, rel=0.05)

    def test_dc_only_lowest_bin(self):
        x = np.full(4096, 3.3)
        f, p = psd_estimate(x, 1e-6, 4)
        assert np.argmax(p) == 0
        assert p[0] > 1e6 * np.abs(p[2:]).max()

    def test_total_power_matches_variance(self):
        x = generate(NoiseSpec("white", 2e-10, (100.0, 5e5), seed=11), 1 << 16, 1e-6)
        f, p = psd_estimate(x, 1e-6, 8)
        assert np.trapezoid(p, f) == pytest.approx(np.var(x), rel=0.05)

    def test_matches_scipy_welch(self):
        # cross-check the in-package estimator against an independent one
        x = generate(NoiseSpec("pink", 2e-10, (100.0, 5e5), seed=5), 1 << 16, 1e-6)
        f, p = psd_estimate(x, 1e-6, 8)
        seg_len = (2 * x.size) // 9
        f2, p2 = signal.welch(
            x, fs=1e6, window="hann", nperseg=seg_len, noverlap=seg_len // 2, detrend=False
        )
        sel = (f > 2e3) & (f < 2e5)
        interp = np.interp(f[sel], f2, p2)
        ratio = p[sel] / interp
        assert np.median(np.abs(10 * np.log10(ratio))) < 0.5

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            psd_estimate(np.zeros(10), 1e-6, 8)
