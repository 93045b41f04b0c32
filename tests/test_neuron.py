import math
import pickle
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spikeislands.engine import SimConfig, run_single_neuron
from spikeislands.neuron import (
    DETECT_THRESHOLD_V,
    MAX_SWITCHES_PER_STEP,
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


def _reference_advance(v_m, v_n, i_in, dt, p):
    """``advance`` as first written: the constants read from ``p`` and its
    properties on every call, the segment end and the clamp by Python's
    ``min`` and ``max``."""
    v_detect = DETECT_THRESHOLD_V
    v_th = p.v_th
    v_gate = p.v_gate_th
    c_m = p.c_m
    tau_n = p.tau_n
    i_na_max = p.i_na_max
    i_sink = p.i_sink
    v_n_inf = p.v_n_inf
    lo = p.v_clamp_lo
    hi = p.v_clamp_hi
    na = v_m > v_th
    sk = v_n > v_gate
    onset = None
    t = 0.0
    n_switch = 0
    while True:
        i_net = i_in + (i_na_max if na else 0.0) - (i_sink if sk else 0.0)
        target = v_n_inf if na else 0.0
        rem = dt - t
        t_na = t_sk = rem
        if n_switch < MAX_SWITCHES_PER_STEP:
            if (i_net > 0.0 and not na) or (i_net < 0.0 and na):
                t_na = (v_th - v_m) / (i_net / c_m)
            if (target > v_gate and not sk) or (target < v_gate and sk):
                t_sk = tau_n * math.log((v_n - target) / (v_gate - target))
        seg = min(t_na, t_sk, rem)
        v_new = v_m + i_net * (seg / c_m)
        if onset is None and v_m < v_detect <= v_new:
            onset = t + (v_detect - v_m) / (i_net / c_m)
        v_m = min(max(v_new, lo), hi)
        v_n = target + (v_n - target) * math.exp(-seg / tau_n)
        if not seg < rem:
            return v_m, v_n, onset
        if t_na == seg:
            v_m = v_th
            na = not na
        if t_sk == seg:
            v_n = v_gate
            sk = not sk
        t += seg
        n_switch += 1


def _bits(result):
    """(v_m, v_n, onset) as bytes, NaN payloads and signed zeros included."""
    return tuple(None if x is None else struct.pack("<d", x) for x in result)


def _near(levels, spread):
    """A level, moved by a few ulps or by up to ``spread`` volts."""
    ulps = st.tuples(st.sampled_from(levels), st.integers(-3, 3)).map(
        lambda lk: lk[0] + lk[1] * math.ulp(lk[0]))
    return st.one_of(ulps, st.tuples(st.sampled_from(levels), st.floats(-spread, spread)).map(sum))


SPECIALS = st.sampled_from([math.nan, math.inf, -math.inf])
V_M_LEVELS = [P.v_th, P.v_gate_th, DETECT_THRESHOLD_V, P.v_clamp_lo, P.v_clamp_hi, P.v_rest]
V_N_LEVELS = [0.0, P.v_gate_th, DETECT_THRESHOLD_V, P.v_n_inf]
# drives around zero and around the currents that flip the sign of i_net
I_LEVELS = [0.0, P.i_na_max, -P.i_na_max, P.i_sink, P.i_sink - P.i_na_max, 1.5e-6]
DTS = st.one_of(st.just(DT), st.floats(1e-10, P.tau_n / 10.0))


def _tie(frac, drive, sodium_on):
    """A state and drive in which the sodium and the gate switch flip at one
    instant, ``frac * DT`` into the step (t_na == t_sk to the bit), or None.
    The gate voltage sets t_sk, the membrane is placed at that time from
    v_th, and the drive is searched ulp by ulp from ``drive`` amperes past
    the current that holds the membrane."""
    v_gate, target = P.v_gate_th, (P.v_n_inf if sodium_on else 0.0)
    v_n = target + (v_gate - target) * math.exp(frac * DT / P.tau_n)
    t_sk = P.tau_n * math.log((v_n - target) / (v_gate - target))
    if sodium_on:  # the membrane falls to v_th while the gate rises to it
        i_in0 = -P.i_na_max - drive
        v_m = P.v_th - t_sk * ((i_in0 + P.i_na_max) / P.c_m)
    else:  # the membrane rises to v_th while the gate decays to it
        i_in0 = P.i_sink + drive
        v_m = P.v_th - t_sk * ((i_in0 - P.i_sink) / P.c_m)
    if (v_m > P.v_th) != sodium_on or (v_n > v_gate) == sodium_on:
        return None
    for k in range(-32, 33):
        i_in = i_in0 + k * math.ulp(i_in0)
        i_net = i_in + (P.i_na_max if sodium_on else 0.0) - (0.0 if sodium_on else P.i_sink)
        if (P.v_th - v_m) / (i_net / P.c_m) == t_sk:
            return v_m, v_n, i_in
    return None


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


class TestAdvanceAsFirstWritten:
    """``advance`` reads its constants from ``NeuronParams.advance_consts``
    and writes ``min``/``max`` as comparisons; it must give the bits of the
    update as first written (``_reference_advance``)."""

    @settings(max_examples=800, deadline=None)
    @given(_near(V_M_LEVELS, 0.3), _near(V_N_LEVELS, 0.3), _near(I_LEVELS, 20e-6), DTS)
    @example(P.v_th, P.v_gate_th, 0.0, DT)
    @example(DETECT_THRESHOLD_V, 0.0, 1.5e-6, DT)
    @example(P.v_clamp_lo, P.v_gate_th, -P.i_sink, DT)
    def test_states_around_the_levels(self, v_m, v_n, i_in, dt):
        assert _bits(advance(v_m, v_n, i_in, dt, P)) == _bits(_reference_advance(v_m, v_n, i_in, dt, P))

    @settings(max_examples=400, deadline=None)
    @given(st.floats(0.01, 0.99), st.floats(50e-6, 300e-6), st.booleans())
    def test_switches_that_flip_at_one_instant(self, frac, drive, sodium_on):
        state = _tie(frac, drive, sodium_on)
        assume(state is not None)
        assert _bits(advance(*state, DT, P)) == _bits(_reference_advance(*state, DT, P))

    def test_ties_are_found(self):
        # the tie search succeeds on most of a regular grid of both cases
        grid = [(frac, drive, on) for frac in np.linspace(0.05, 0.95, 10)
                for drive in np.linspace(50e-6, 300e-6, 6) for on in (False, True)]
        found = [state for state in (_tie(*args) for args in grid) if state is not None]
        assert len(found) >= len(grid) // 2

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_near(V_M_LEVELS, 0.3), SPECIALS), st.one_of(_near(V_N_LEVELS, 0.3), SPECIALS),
           st.one_of(_near(I_LEVELS, 20e-6), SPECIALS), st.integers(0, 2), SPECIALS)
    def test_nan_and_infinite_inputs(self, v_m, v_n, i_in, which, special):
        args = [v_m, v_n, i_in]
        args[which] = special  # at least one input is not finite
        assert _bits(advance(*args, DT, P)) == _bits(_reference_advance(*args, DT, P))

    @pytest.mark.parametrize("changes", [dict(v_th=1.2), dict(i_r=20e-6, tau_n=300e-9),
                                         dict(mirror_ratio=1.0, c_n=2e-12), dict(v_rest=-0.2, v_spike=2.0),
                                         dict(c_m=1.5e-12, i_na_max=40e-6, i_k_max=60e-6)])
    def test_constants_follow_replace_and_pickle(self, changes):
        # a replaced preset, and its pickle (as sweep workers receive it),
        # give the reference update under the new values; the states are
        # those of the fast-mode preset through a few spikes
        q = replace(P, **changes)
        states, v_m, v_n = [], P.v_rest, 0.0
        for _ in range(400):
            states.append((v_m, v_n, 1.5e-6))
            v_m, v_n, _ = _reference_advance(v_m, v_n, 1.5e-6, DT, P)
        for p in (q, pickle.loads(pickle.dumps(q))):
            assert p.advance_consts == q.advance_consts
            for state in states:
                assert _bits(advance(*state, DT, p)) == _bits(_reference_advance(*state, DT, q))
        assert any(_bits(advance(*state, DT, q)) != _bits(advance(*state, DT, P)) for state in states)


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
