import numpy as np
import pytest

from spikeislands.engine import SimConfig, run_single_neuron
from spikeislands.neuron import (
    NeuronParams,
    NoFiringError,
    advance,
    natural_period,
    neuron_step,
    rest_state,
    stability_dt_max,
)
from spikeislands.noise import NoiseSpec, density_for_rms
from spikeislands.presets import FAST_MODE_1MHZ_DRIVE_A, neuron_preset

P = neuron_preset("fast-mode")
DT = 1e-8


def euler_period(i_const, dt, n_discard=3, n_average=8):
    """Tonic period by forward Euler on the model equations, switches
    evaluated at the start of each step and crossings stamped on the grid
    (independent of the library's update)."""
    v_m, v_n, armed, k, spikes = P.v_rest, 0.0, True, 0, []
    while len(spikes) < n_discard + n_average + 1:
        i_na = P.i_na_max if v_m > P.v_th else 0.0
        i_sink = P.i_k_max + P.i_r if v_n > P.v_gate_th else 0.0
        v_m = min(max(v_m + dt * (i_const + i_na - i_sink) / P.c_m, P.v_rest - 0.1), P.v_spike + 0.1)
        v_n += dt * (P.mirror_ratio * i_na / P.c_n - v_n / P.tau_n)
        k += 1
        if armed and v_m >= 1.0:
            spikes.append(k * dt)
        armed = v_m < 1.0
    return (spikes[-1] - spikes[n_discard]) / n_average


class TestParams:
    def test_positive_quantities_enforced(self):
        with pytest.raises(ValueError):
            NeuronParams(c_m=-1e-12, v_th=0.8, i_na_max=2e-5, c_n=3e-12,
                         i_k_max=4e-5, i_r=5e-6, v_gate_th=0.5, tau_n=5e-7)

    def test_voltage_ordering_enforced(self):
        # v_gate_th must sit below the firing threshold
        with pytest.raises(ValueError):
            NeuronParams(c_m=1e-12, v_th=0.4, i_na_max=2e-5, c_n=3e-12,
                         i_k_max=4e-5, i_r=5e-6, v_gate_th=0.5, tau_n=5e-7)

    def test_stability_bound_is_gate_leak(self):
        assert stability_dt_max(P) == P.tau_n / 10.0


class TestStep:
    def test_rest_is_exact_fixed_point(self):
        s = rest_state(P)
        for _ in range(1000):
            s = neuron_step(s, P, 0.0, DT)
        assert s.v_m == P.v_rest
        assert s.v_n == 0.0
        assert not s.refractory

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError):
            neuron_step(rest_state(P), P, float("nan"), DT)
        with pytest.raises(ValueError):
            neuron_step(rest_state(P), P, float("inf"), DT)

    def test_rejects_unstable_dt(self):
        with pytest.raises(ValueError):
            neuron_step(rest_state(P), P, 0.0, P.tau_n)
        with pytest.raises(ValueError):
            neuron_step(rest_state(P), P, 0.0, 0.0)

    def test_membrane_clamped(self):
        s = rest_state(P)
        for _ in range(2000):
            s = neuron_step(s, P, 50e-6, DT)
            assert P.v_rest - 0.1 <= s.v_m <= P.v_spike + 0.1

    def test_spike_reaches_nominal_amplitude(self):
        # under nominal drive the peak lands between v_spike and the clamp
        s = rest_state(P)
        peak = 0.0
        for _ in range(200):
            s = neuron_step(s, P, 1.5e-6, DT)
            peak = max(peak, s.v_m)
        assert P.v_spike <= peak <= P.v_spike + 0.1

    def test_refractory_flag_follows_gate(self):
        s = rest_state(P)
        seen_refractory = False
        for _ in range(200):
            s = neuron_step(s, P, 1.5e-6, DT)
            assert s.refractory == (s.v_n >= P.v_gate_th)
            seen_refractory = seen_refractory or s.refractory
        assert seen_refractory


class TestNaturalPeriod:
    def test_rejects_unstable_dt(self):
        with pytest.raises(ValueError, match="exceeds stability bound"):
            natural_period(P, 1.5e-6, 1.5 * stability_dt_max(P))

    def test_one_mhz_at_calibrated_drive(self):
        # the preset operates at ~1 MHz: period within 10% of 1 us
        T = natural_period(P, FAST_MODE_1MHZ_DRIVE_A, DT)
        assert 0.9e-6 <= T <= 1.1e-6

    def test_doubling_drive_shortens_period(self):
        T1 = natural_period(P, 1.2e-6, DT)
        T2 = natural_period(P, 2.4e-6, DT)
        assert T2 < T1

    def test_rate_monotone_in_operating_range(self):
        # below the repolarization sink capacity (i_k_max + i_r - i_na_max)
        drives = [0.3e-6, 0.6e-6, 1.2e-6, 2.4e-6, 4.8e-6]
        periods = [natural_period(P, i, DT) for i in drives]
        assert all(a >= b for a, b in zip(periods, periods[1:]))

    def test_refinement_oracle_one_percent(self):
        # the period on the default 10 ns grid against an independent
        # oracle: forward Euler with one-step switching at 0.1 ns (972.6 ns,
        # 0.07% above the exact 971.9 ns)
        T = natural_period(P, 1.5e-6, DT)
        T_ref = euler_period(1.5e-6, 1e-10)
        assert abs(T - T_ref) / T_ref < 0.01

    def test_period_is_the_limit_of_fine_euler(self):
        # forward Euler approaches the exact period from above as its step
        # shrinks (error 0.075% at 0.1 ns, 0.047% at 0.05 ns); the exact
        # period itself does not depend on dt
        T = natural_period(P, 1.5e-6, DT)
        err_1 = euler_period(1.5e-6, 1e-10) - T
        err_2 = euler_period(1.5e-6, 5e-11) - T
        assert 0.0 < err_2 < err_1 < 1e-3 * T
        assert natural_period(P, 1.5e-6, 1e-9) == pytest.approx(T, rel=1e-12)

    def test_strict_periodicity_under_constant_drive(self):
        # tonic mode: all steady ISIs identical to grid resolution
        v_m, v_n = P.v_rest, 0.0
        crossings = []
        armed = True
        for k in range(100_000):  # 1 ms at 10 ns
            v_m, v_n, _ = advance(v_m, v_n, 1.5e-6, DT, P)
            if armed:
                if v_m >= 1.0:
                    crossings.append(k + 1)
                    armed = False
            elif v_m < 1.0:
                armed = True
        isis = np.diff(crossings[3:]) * DT
        assert len(isis) > 50
        assert np.ptp(isis) <= DT  # periodic up to one grid step
        assert abs(isis.mean() - natural_period(P, 1.5e-6, DT)) < 2 * DT

    def test_no_firing_raises(self):
        with pytest.raises(NoFiringError):
            natural_period(P, 0.0, DT)
        with pytest.raises(NoFiringError):
            natural_period(P, -1e-6, DT)


class TestUnderNoise:
    def test_refractoriness_min_isi(self):
        # the gate keeps the neuron silent for ~300 ns after each spike
        # (tau_n * ln(v_n_peak / v_gate_th) plus the spike transit), for any
        # drive; checked with strong random noise
        for seed in range(5):
            spec = NoiseSpec("white", density_for_rms(3e-6, (10.0, 5e7)), (10.0, 5e7), seed=seed)
            rec = run_single_neuron(spec, P, SimConfig(duration=1e-3, dt=DT, master_seed=seed))
            t = rec.times[0]
            if len(t) > 1:
                assert np.diff(t).min() >= 300e-9

    def test_spike_time_convergence_early_horizon(self):
        # halving dt moves early spike times by at most one coarse grid step
        # (a sub-dt trajectory shift can flip the detection step, so "less
        # than dt" is realized as <= dt); per-cycle integration bias
        # accumulates ~dt/4 per spike, so the guarantee holds over the
        # first few spikes
        spec = NoiseSpec("white", density_for_rms(1.5e-6, (10.0, 5e7)), (10.0, 5e7), seed=7)
        checked = 0
        for seed in (0, 1, 2, 3, 5):
            r1 = run_single_neuron(spec, P, SimConfig(duration=6e-5, dt=DT, master_seed=seed, noise_dt=DT))
            r2 = run_single_neuron(spec, P, SimConfig(duration=6e-5, dt=DT / 2, master_seed=seed, noise_dt=DT))
            a, b = r1.times[0][:3], r2.times[0][:3]
            n = min(len(a), len(b))
            if n:
                assert np.abs(a[:n] - b[:n]).max() <= DT * (1 + 1e-9)
                checked += 1
        assert checked >= 3
