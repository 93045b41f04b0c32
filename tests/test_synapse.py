import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikeislands.synapse import (
    SynapseParams,
    SynapseState,
    _newton,
    _softplus_sigmoid,
    dpi_flow,
    dpi_rise,
    dpi_step,
    linear_step,
    presynaptic_pulse,
    time_constant,
)

REF = SynapseParams(c_s=1e-12, i_tau=10e-9, i_pulse=1e-6, pulse_width=1e-7, kappa=0.7, u_t=25.85e-3)


class TestTimeConstant:
    def test_reference_value(self):
        # C_s U_T / (kappa I_tau) = 1e-12 * 25.85e-3 / (0.7 * 1e-8)
        assert time_constant(REF) == pytest.approx(3.6928571428e-6, rel=1e-9)

    def test_doubling_i_tau_halves_tau(self):
        doubled = SynapseParams(c_s=1e-12, i_tau=20e-9, i_pulse=1e-6, pulse_width=1e-7, kappa=0.7, u_t=25.85e-3)
        assert time_constant(doubled) == pytest.approx(time_constant(REF) / 2.0, rel=1e-12)

    def test_identity_case(self):
        p = SynapseParams(c_s=1.0, i_tau=1.0, i_pulse=1.0, pulse_width=1.0, kappa=1.0, u_t=1.0)
        assert time_constant(p) == 1.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SynapseParams(c_s=0.0, i_tau=1e-8, i_pulse=1e-6, pulse_width=1e-7)
        with pytest.raises(ValueError):
            SynapseParams(c_s=1e-12, i_tau=1e-8, i_pulse=1e-6, pulse_width=1e-7, kappa=1.5)
        with pytest.raises(ValueError):
            SynapseParams(c_s=1e-12, i_tau=1e-8, i_pulse=1e-6, pulse_width=1e-7, polarity="both")


def _run_dpi(i_start, i_in, t_total, dt, params=REF):
    s = SynapseState(i_out=i_start)
    out = []
    for _ in range(int(round(t_total / dt))):
        s = dpi_step(s, params, i_in, dt)
        out.append(s.i_out)
    return np.asarray(out)


class TestDpi:
    def test_zero_input_decays_exponentially_to_floor(self):
        tau = time_constant(REF)
        dt = tau / 50
        i0 = 100 * REF.i_tau
        traj = _run_dpi(i0, 0.0, 3 * tau, dt)
        # e-fold time within 2% of tau
        k = int(np.argmax(traj <= i0 / math.e))
        assert abs(k * dt - tau) / tau < 0.02
        # eventually floored, and never below the floor
        long = _run_dpi(i0, 0.0, 60 * tau, tau / 10)
        assert long[-1] == REF.i_floor
        assert (long >= REF.i_floor).all()

    @pytest.mark.parametrize("ratio", [2.0, 10.0, 100.0])
    def test_steady_state_matches_fixed_point(self, ratio):
        # algebraic fixed point of the dynamics: i_out* = i_in - i_tau
        i_in = ratio * REF.i_tau
        tau = time_constant(REF)
        traj = _run_dpi(REF.i_floor, i_in, 30 * tau, tau / 20)
        expected = i_in - REF.i_tau
        assert traj[-1] == pytest.approx(expected, rel=0.01)

    def test_below_leak_input_has_no_positive_fixed_point(self):
        # for i_in < i_tau the derivative is negative everywhere above the
        # floor, so the output decays to the floor
        tau = time_constant(REF)
        traj = _run_dpi(20 * REF.i_tau, 0.5 * REF.i_tau, 40 * tau, tau / 20)
        assert traj[-1] == REF.i_floor

    def test_linear_regime_decay_matches_linear_filter(self):
        # for i_out >> i_tau and zero input the DPI decay rate equals the
        # linear reference within 5%
        tau = time_constant(REF)
        dt = tau / 50
        i0 = 1000 * REF.i_tau
        dpi = _run_dpi(i0, 0.0, tau, dt)
        lin = SynapseState(i_out=i0)
        lin_traj = []
        for _ in range(int(round(tau / dt))):
            lin = linear_step(lin, tau, 0.0, dt)
            lin_traj.append(lin.i_out)
        rate_dpi = -np.log(dpi[-1] / i0) / tau
        rate_lin = -np.log(lin_traj[-1] / i0) / tau
        assert abs(rate_dpi - rate_lin) / rate_lin < 0.05

    def test_refinement_halving_dt(self):
        # sup-norm trajectory change under dt halving < 0.5% of the drive
        # scale (run well inside the stability region, dt = tau/50)
        tau = time_constant(REF)
        i_in = 3 * REF.i_tau
        a = _run_dpi(REF.i_tau, i_in, 5 * tau, tau / 50)
        b = _run_dpi(REF.i_tau, i_in, 5 * tau, tau / 100)
        diff = np.abs(a - b[1::2]).max()
        assert diff / (i_in - REF.i_tau) < 0.005

    def test_rejects_negative_input_and_bad_dt(self):
        s = SynapseState(i_out=1e-9)
        with pytest.raises(ValueError):
            dpi_step(s, REF, -1e-9, 1e-8)
        with pytest.raises(ValueError):
            dpi_step(s, REF, 1e-9, time_constant(REF))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1e-5), min_size=1, max_size=60))
    def test_output_never_below_floor(self, drives):
        s = SynapseState(i_out=REF.i_floor)
        dt = time_constant(REF) / 20
        for i_in in drives:
            s = dpi_step(s, REF, i_in, dt)
            assert s.i_out >= REF.i_floor
            assert math.isfinite(s.i_out)


def _newton_reading_max_y(g, y, target):
    """The Newton loop as first written: both maxima read on every
    iteration.  Reference for the loop that reads max|y| only when needed."""
    for _ in range(100):
        val, slope = g(y)
        step = (val - target) / slope
        y = y - step
        if np.abs(step).max() <= 1e-14 * (1.0 + np.abs(y).max()):
            break
    return y


def _reference_rising(i0, d, h, i_tau, tau):
    """``dpi_flow`` of outputs all below their fixed point as first written:
    ``a`` and ``c`` computed inside, stopping by ``_newton_reading_max_y``."""
    a = d - i_tau
    c = i_tau / a
    psi0 = np.log(i0) - np.log(a - i0)
    sp0, sig0 = _softplus_sigmoid(psi0)

    def g(psi):
        sp, sig = _softplus_sigmoid(psi)
        return c * psi + sp, c + sig

    slope, dt_tau = c + sig0, h / tau
    start = psi0 + 2.0 * dt_tau / (slope + np.sqrt(slope * slope + 2.0 * sig0 * (1.0 - sig0) * dt_tau))
    psi1 = _newton_reading_max_y(g, start, c * psi0 + sp0 + dt_tau)
    sp1, sig1 = _softplus_sigmoid(psi1)
    i1 = a * sig1
    moving = h > 0.0
    return np.where(moving, i1, i0), np.where(moving, tau * (d * (sp1 - sp0) - (i1 - i0)), 0.0)


FAST = SynapseParams(c_s=0.469e-12, i_tau=577e-9, i_pulse=5.2e-6, pulse_width=150e-9)

# Rising problems of up to 64 outputs: (fraction of the way from the floor to
# the fixed point on a log scale, step as a fraction of 10 ns, 0 for an
# output with no pulse in flight).
rising_batches = st.lists(
    st.tuples(st.floats(0.0, 0.999999), st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
    min_size=1, max_size=64,
)


def _rising_problem(batch, p=FAST):
    a = p.i_pulse - p.i_tau
    frac = np.array([f for f, _ in batch])
    i0 = np.minimum(p.i_floor * (a / p.i_floor) ** frac, np.nextafter(a, 0.0))
    h = np.array([x for _, x in batch]) * 1e-8
    n = len(batch)
    return i0, np.full(n, p.i_pulse), h, np.full(n, p.i_tau), np.full(n, time_constant(p)), np.full(n, p.i_floor)


class TestRisingBranch:
    @settings(max_examples=200, deadline=None)
    @given(rising_batches)
    def test_dpi_rise_equals_the_flow_as_first_written(self, batch):
        # the shared rising branch, with a and c given, gives the bits of the
        # all-rising dpi_flow as first written, h = 0 outputs included; so
        # does dpi_flow, which now delegates to it
        i0, d, h, i_tau, tau, floor = _rising_problem(batch)
        a = d - i_tau
        ref_i, ref_q = _reference_rising(i0, d, h, i_tau, tau)
        for i1, q in (dpi_rise(i0, d, h, a, i_tau / a, tau), dpi_flow(i0, d, h, i_tau, tau, floor)):
            assert i1.tobytes() == ref_i.tobytes()
            assert q.tobytes() == ref_q.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(-30.0, 2.0), st.booleans()),
                    min_size=1, max_size=64),
           st.floats(1e-3, 1.0), st.floats(0.0, 1e4))
    @example([(-12.9, -13.3, False)], 0.002, 0.0)  # stops after reading max|y|
    @example([(31.4, -10.4, False)], 0.031, 6925.0)
    def test_newton_stops_at_the_iteration_that_reading_max_y_gives(self, roots, c, shift):
        # roots and log10 start offsets (left or right of the root) of
        # c y + softplus(y - shift) = target: the loop that reads max|y| only
        # when its bounds cannot decide stops at the same iteration as the
        # loop that reads it every time, with the same bits
        root = np.array([r for r, _, _ in roots]) + shift
        offset = np.array([(10.0 ** e) * (1.0 if right else -1.0) for _, e, right in roots])

        def counted(calls):
            def g(y):
                calls.append(1)
                sp, sig = _softplus_sigmoid(y - shift)
                return c * y + sp, c + sig
            return g

        target = counted([])(root)[0]
        new_calls, old_calls = [], []
        y_new = _newton(counted(new_calls), root + offset, target)
        y_old = _newton_reading_max_y(counted(old_calls), root + offset, target)
        assert len(new_calls) == len(old_calls)
        assert y_new.tobytes() == y_old.tobytes()

    @pytest.mark.xfail(strict=True, reason="dpi_flow's Newton loop stops on a test over the whole "
                                           "array, so an output's bits depend on the other outputs")
    def test_an_output_does_not_depend_on_its_batch(self):
        # pairs each of 2000 rising outputs with an idle output at the floor
        # (no pulse in flight); per-element convergence would make the pair
        # give the output's bits alone.  About 1% of them differ today.
        rng = np.random.default_rng(0)
        p = FAST
        i0, d, h, i_tau, tau, floor = _rising_problem(
            list(zip(rng.uniform(0.0, 0.999999, 2000), rng.uniform(0.0, 1.0, 2000))))
        differ = 0
        for k in range(i0.size):
            alone = dpi_flow(i0[k], p.i_pulse, h[k], p.i_tau, tau[k], p.i_floor)[0]
            paired = dpi_flow([i0[k], p.i_floor], p.i_pulse, [h[k], 0.0], p.i_tau, tau[k], p.i_floor)[0][0]
            differ += alone != paired
        assert differ == 0


class TestLinear:
    def test_step_response(self):
        tau = 1e-6
        dt = tau / 100
        s = SynapseState(i_out=0.0)
        for _ in range(100):  # t = tau
            s = linear_step(s, tau, 1e-6, dt)
        assert s.i_out == pytest.approx(1e-6 * (1 - math.exp(-1)), rel=0.02)

    def test_decay(self):
        tau = 1e-6
        dt = tau / 100
        s = SynapseState(i_out=1e-6)
        for _ in range(100):
            s = linear_step(s, tau, 0.0, dt)
        assert s.i_out == pytest.approx(1e-6 * math.exp(-1), rel=0.02)

    def test_superposition(self):
        tau = 1e-6
        dt = tau / 50
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 1e-6, 40)
        b = rng.uniform(0, 1e-6, 40)
        sa = sb = sab = SynapseState(i_out=0.0)
        for x, y in zip(a, b):
            sa = linear_step(sa, tau, x, dt)
            sb = linear_step(sb, tau, y, dt)
            sab = linear_step(sab, tau, x + y, dt)
        assert sab.i_out == pytest.approx(sa.i_out + sb.i_out, rel=1e-12)


class TestPresynapticPulse:
    def test_no_spikes_zero_everywhere(self):
        t = np.linspace(0, 1e-5, 101)
        assert not presynaptic_pulse([], REF, t).any()

    def test_single_pulse_window(self):
        assert presynaptic_pulse([0.0], REF, 0.0) == REF.i_pulse
        assert presynaptic_pulse([0.0], REF, 0.5 * REF.pulse_width) == REF.i_pulse
        assert presynaptic_pulse([0.0], REF, REF.pulse_width) == 0.0
        assert presynaptic_pulse([0.0], REF, 2e-7) == 0.0

    def test_overlapping_pulses_do_not_stack(self):
        # spikes 50 ns apart, 100 ns width: one continuous 150 ns pulse
        spikes = [0.0, 50e-9]
        t = np.arange(0, 300e-9, 1e-9)
        drive = presynaptic_pulse(spikes, REF, t)
        # brute-force union-of-intervals oracle
        expected = np.zeros_like(t)
        for s in spikes:
            expected = np.maximum(expected, np.where((t >= s) & (t < s + REF.pulse_width), REF.i_pulse, 0.0))
        assert np.array_equal(drive, expected)
        assert drive.max() == REF.i_pulse  # amplitude never doubles
        on = t[drive > 0]
        assert on.min() == 0.0 and on.max() == pytest.approx(149e-9, abs=1e-12)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            presynaptic_pulse([2e-6, 1e-6], REF, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0, 1e-5), min_size=0, max_size=12))
    def test_union_semantics_randomized(self, raw):
        spikes = np.sort(np.asarray(raw))
        t = np.linspace(-1e-6, 1.2e-5, 257)
        drive = presynaptic_pulse(spikes, REF, t)
        inside = np.zeros(t.shape, dtype=bool)
        for s in spikes:
            inside |= (t >= s) & (t < s + REF.pulse_width)
        assert np.array_equal(drive, np.where(inside, REF.i_pulse, 0.0))
