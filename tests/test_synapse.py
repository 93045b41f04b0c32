import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikeislands.synapse import (
    SynapseParams,
    SynapseState,
    _newton,
    _rising_start,
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


def _newton_alone(g, y, target):
    """Newton's method on one element, stopping on its own test: the rule
    ``_newton`` applies to each element of an array."""
    for _ in range(100):
        val, slope = g(y)
        step = (val - target) / slope
        y = y - step
        if abs(step) <= 1e-14 * (1.0 + abs(y)):
            break
    return y


def _reference_rising(i0, d, h, i_tau, tau):
    """``dpi_flow`` of outputs all below their fixed point as first written
    (``a`` and ``c`` computed inside), each output solved alone by
    ``_newton_alone``, with libm's ``log`` as ``synapse`` takes it."""
    out_i, out_q = np.empty(i0.shape), np.empty(i0.shape)
    for k in range(i0.size):
        a = d[k] - i_tau[k]
        c = i_tau[k] / a
        psi0 = math.log(i0[k]) - math.log(a - i0[k])
        sp0 = np.logaddexp(0.0, psi0)

        def g(psi):
            sp, sig = _softplus_sigmoid(psi)
            return c * psi + sp, c + sig

        target = c * psi0 + sp0 + h[k] / tau[k]
        psi1 = _newton_alone(g, _rising_start(target, c), target)
        sp1, sig1 = _softplus_sigmoid(psi1)
        i1 = a * sig1
        moving = h[k] > 0.0
        out_i[k] = i1 if moving else i0[k]
        out_q[k] = tau[k] * (d[k] * (sp1 - sp0) - (i1 - i0[k])) if moving else 0.0
    return out_i, out_q


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
        # all-rising dpi_flow as first written with each output solved
        # alone, h = 0 outputs included; so does dpi_flow, which delegates
        # to it
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
    @example([(-12.9, -13.3, False), (31.4, -10.4, True)], 0.002, 0.0)
    @example([(31.4, -10.4, False)], 0.031, 6925.0)
    def test_newton_stops_each_element_at_its_own_test(self, roots, c, shift):
        # roots and log10 start offsets (left or right of the root) of
        # c y + softplus(y - shift) = target: every element of the array
        # solve has the bits of that element solved alone
        root = np.array([r for r, _, _ in roots]) + shift
        offset = np.array([(10.0 ** e) * (1.0 if right else -1.0) for _, e, right in roots])

        def g(y):
            sp, sig = _softplus_sigmoid(y - shift)
            return c * y + sp, c + sig

        target = g(root)[0]
        y = _newton(g, root + offset, target)
        alone = [_newton_alone(g, y0, t) for y0, t in zip(root + offset, target)]
        assert y.tobytes() == np.array(alone).tobytes()

    def test_an_output_does_not_depend_on_its_batch(self):
        # pairs each of 2000 rising outputs with an idle output at the floor
        # (no pulse in flight): the pair gives the output's bits alone, and
        # so does one batch of all 2000
        rng = np.random.default_rng(0)
        p = FAST
        i0, d, h, i_tau, tau, floor = _rising_problem(
            list(zip(rng.uniform(0.0, 0.999999, 2000), rng.uniform(0.0, 1.0, 2000))))
        batch = dpi_flow(i0, d, h, i_tau, tau, floor)[0]
        differ = 0
        for k in range(i0.size):
            alone = dpi_flow(i0[k], p.i_pulse, h[k], p.i_tau, tau[k], p.i_floor)[0]
            paired = dpi_flow([i0[k], p.i_floor], p.i_pulse, [h[k], 0.0], p.i_tau, tau[k], p.i_floor)[0][0]
            differ += (alone != paired) + (alone != batch[k])
        assert differ == 0


    def test_outputs_of_two_presets_solve_as_alone(self):
        # outputs of two presets (two values of c = i_tau / a) in one call
        # give the bits of each output solved alone
        rng = np.random.default_rng(1)
        problems = [_rising_problem(list(zip(rng.uniform(0.0, 0.999999, 50), rng.uniform(0.0, 1.0, 50))), p)
                    for p in (FAST, REF)]
        batch = [np.concatenate(arrays) for arrays in zip(*problems)]
        i1, q = dpi_flow(*batch)
        alone = [dpi_flow(*(x[k] for x in batch)) for k in range(batch[0].size)]
        assert i1.tobytes() == np.array([a for a, _ in alone]).tobytes()
        assert q.tobytes() == np.array([b for _, b in alone]).tobytes()


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
