"""The compiled neuron and synapse updates (``_scalar.c``) and their loader.

The compiled run of a network must give the bits of
``engine._NeuronLayer.run``: its general steps those of
``_NeuronBlock.step``, which takes the quiet neurons of a step in one
vector expression and every other neuron through ``_general_step``
(spikes, onsets, state, the ``SimulationError`` of a state that is not
finite), its quiet stretches, and its busy steps those of the Python
synapse step and pulse starts (the spikes of neurons with and without
synapse outputs, a full spike buffer), on blocks of two presets around the
levels the step compares against and at the switch limit.  The compiled
synapse step and pulse starts, called on their own, must give the bits of
``engine._SynapseStates``: input currents, states, pulse tables and
counters, over steps and pulse starts from outputs at, near and above
their floor and fixed point, with onsets at and next to the step ends,
pulses over earlier ones and pulses that end inside a step, through every
flow regime.  Every shipped config runs to the same spikes, traces and
stats on both paths.  The one-neuron network without synapses must give
the bits of the Python single-neuron loop, ``engine._ScalarNeuron``: the
same spike steps, quiet steps, end state and trace rows, or the same first
non-finite step, on the shipped drives and on states and drives around
every level, NaN and infinities included.  The compiled ``advance`` must
give ``neuron.advance``'s bits on the cases ``TestAdvanceAsFirstWritten``
checks.  ``test_engine`` checks ``_NeuronBlock.step`` against
``neuron.advance`` without a compiler.  Those tests skip, saying why, when
the compiled code is not available.  The loader's one check runs a network
that reaches every synapse regime and a quiet stretch that a later neuron
ends.  The loader builds the library once per cache, safely from two
processes at once, from a source that compiles without a warning; without
a compiler, without a writable cache or when its check fails, no library
is loaded, and every run takes the Python code and gives the same spikes
and stats.  The ``kernel`` fixture (conftest.py) is the loaded library.
"""

import ctypes
import hashlib
import importlib.resources
import math
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_golden import SINGLE_NOISE, single_neuron_text
from test_neuron import DTS, I_LEVELS, SPECIALS, V_M_LEVELS, V_N_LEVELS, _near, _tie

import spikeislands
import spikeislands.engine as engine_mod
import spikeislands.neuron as neuron_mod
from spikeislands import _kernel
from spikeislands._kernel import _CheckDrive, floor_block
from spikeislands.configio import builtin_names, load_builtin, parse_document
from spikeislands.engine import (SimConfig, SimulationError, _effective_noise, _NeuronBlock, _NeuronLayer,
                                 _QuietStretch, _ScalarNeuron, _step_network, _SynapseStates, _Traces, run,
                                 run_single_neuron)
from spikeislands.io import spikes_to_csv
from spikeislands.neuron import DETECT_THRESHOLD_V, advance
from spikeislands.noise import NoiseSpec, generate
from spikeislands.presets import neuron_preset, synapse_preset

SRC = Path(spikeislands.__file__).resolve().parent.parent
P = neuron_preset("fast-mode")
Q = replace(P, v_th=1.2, v_gate_th=0.75)  # v_th above the detection level
DT = 1e-8


def _bits(*values):
    """Floats (None kept) as bytes, NaN payloads and signed zeros included."""
    return tuple(None if x is None else struct.pack("<d", x) for x in values)


def single_outcome(kernel, params, drive, v_m, v_n, decim):
    """The spike steps, quiet steps, end state and trace rows (every
    ``decim`` steps, or None) of a neuron with parameters ``params`` and no
    synapses, from (v_m, v_n) under the input currents ``drive``: the
    one-neuron network of ``kernel``'s compiled layer or, when ``kernel`` is
    None, the Python single-neuron loop, ``engine._ScalarNeuron``."""
    traces = None if decim is None else _Traces([0], drive.size, decim, DT, np.array([v_m]))
    if kernel is None:
        neuron = _ScalarNeuron(params, DT, traces)
        end = neuron.take(drive.tolist(), 0, v_m, v_n)
        spikes, quiet = neuron.spikes, drive.size - neuron.general
    else:
        neurons = kernel.neuron_layer(_NeuronBlock([params], DT), floor_block(1, 0.0),
                                      _CheckDrive(drive[None]), np.zeros(1, dtype=np.int32), drive.size,
                                      np.array([v_m]), traces)
        neurons.v_n[0] = v_n
        spikes = _step_network(neurons, drive.size)[0].tolist()
        end, quiet = (neurons.v_m[0], neurons.v_n[0]), neurons.quiet_steps
    return spikes, quiet, _bits(*end), None if traces is None else traces.v.tobytes()


def both_loops(kernel, params, drive, decim, v_m=None, v_n=0.0):
    """What the Python single-neuron loop and the compiled one-neuron
    network give from (v_m, v_n) (v_m at rest by default) under ``drive``,
    untraced when ``decim`` is None: ``single_outcome``, or the fields of
    the SimulationError of the first state that is not finite."""
    v_m = params.v_rest if v_m is None else v_m
    out = []
    for loop in (None, kernel):
        try:
            out.append(single_outcome(loop, params, np.array(drive, dtype=np.float64), v_m, v_n, decim))
        except SimulationError as err:
            out.append((err.neuron, err.island, err.step, err.t, err.phase))
    return out


def shipped_drive(variant: str, seed: int, n_steps: int) -> np.ndarray:
    """The drive of a golden single-neuron variant: white as shipped, pink,
    or white held on a grid of three steps."""
    network, _ = parse_document(single_neuron_text(variant))
    hold = 3 if variant == "held" else 1
    spec = _effective_noise(network.noise[0], seed, 0)
    return generate(spec, -(-n_steps // hold), hold * DT).repeat(hold)[:n_steps]


class TestCompiledSingleNeuron:
    @pytest.mark.parametrize("variant", sorted(SINGLE_NOISE))
    @pytest.mark.parametrize("decim", [None, 1, 10])
    def test_shipped_drives(self, kernel, variant, decim):
        drive = shipped_drive(variant, 5, 100_000)
        python, compiled = both_loops(kernel, P, drive, decim)
        assert len(python[0]) > 20 and python[1] > drive.size // 2
        assert compiled == python

    @settings(max_examples=300, deadline=None)
    @given(_near(V_M_LEVELS, 0.3), _near(V_N_LEVELS, 0.3),
           st.lists(st.one_of(_near(I_LEVELS, 20e-6), _near([0.0], 200e-6), SPECIALS), min_size=1, max_size=40),
           st.sampled_from([None, 1, 3]))
    @example(P.v_th, P.v_gate_th, [0.0, 1.5e-6], None)
    @example(DETECT_THRESHOLD_V, 0.0, [1.5e-6, math.nan, 1.5e-6], 1)
    @example(P.v_clamp_lo, 0.0, [-math.inf, 1.5e-6], None)
    @example(P.v_clamp_hi, P.v_n_inf, [math.inf, 0.0], 3)
    @example(0.5, 0.0, [1.5e-6, -math.inf, 1.5e-6, math.inf, 0.0], 1)
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf inputs
    def test_states_and_drives_around_the_levels(self, kernel, v_m, v_n, drive, decim):
        python, compiled = both_loops(kernel, P, drive, decim, v_m, v_n)
        assert compiled == python

    @pytest.mark.parametrize("changes", [dict(v_th=1.2, v_gate_th=0.75), dict(v_th=1.0, v_gate_th=0.5),
                                         dict(i_r=20e-6, tau_n=300e-9), dict(v_rest=-0.2, v_spike=2.0)])
    def test_other_parameters(self, kernel, changes):
        # v_th above, at and below the detection level, other clamps and
        # refractory currents
        drive = shipped_drive("white", 2, 30_000) * 1.5
        for decim in (None, 1):
            python, compiled = both_loops(kernel, replace(P, **changes), drive, decim)
            assert python[0]
            assert compiled == python


class TestCompiledAdvance:
    @settings(max_examples=800, deadline=None)
    @given(_near(V_M_LEVELS, 0.3), _near(V_N_LEVELS, 0.3), _near(I_LEVELS, 20e-6), DTS)
    @example(P.v_th, P.v_gate_th, 0.0, DT)
    @example(DETECT_THRESHOLD_V, 0.0, 1.5e-6, DT)
    @example(P.v_clamp_lo, P.v_gate_th, -P.i_sink, DT)
    def test_states_around_the_levels(self, kernel, v_m, v_n, i_in, dt):
        assert _bits(*kernel.advance(v_m, v_n, i_in, dt, P)) == _bits(*advance(v_m, v_n, i_in, dt, P))

    @settings(max_examples=400, deadline=None)
    @given(st.floats(0.01, 0.99), st.floats(50e-6, 300e-6), st.booleans())
    def test_switches_that_flip_at_one_instant(self, kernel, frac, drive, sodium_on):
        state = _tie(frac, drive, sodium_on)
        assume(state is not None)
        assert _bits(*kernel.advance(*state, DT, P)) == _bits(*advance(*state, DT, P))

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_near(V_M_LEVELS, 0.3), SPECIALS), st.one_of(_near(V_N_LEVELS, 0.3), SPECIALS),
           st.one_of(_near(I_LEVELS, 20e-6), SPECIALS), st.integers(0, 2), SPECIALS)
    def test_nan_and_infinite_inputs(self, kernel, v_m, v_n, i_in, which, special):
        args = [v_m, v_n, i_in]
        args[which] = special
        assert _bits(*kernel.advance(*args, DT, P)) == _bits(*advance(*args, DT, P))

    @pytest.mark.parametrize("changes", [dict(v_th=1.2), dict(i_r=20e-6, tau_n=300e-9),
                                         dict(mirror_ratio=1.0, c_n=2e-12), dict(v_rest=-0.2, v_spike=2.0),
                                         dict(c_m=1.5e-12, i_na_max=40e-6, i_k_max=60e-6)])
    def test_other_parameters(self, kernel, changes):
        q = replace(P, **changes)
        v_m, v_n = P.v_rest, 0.0
        for _ in range(400):
            assert _bits(*kernel.advance(v_m, v_n, 1.5e-6, DT, q)) == _bits(*advance(v_m, v_n, 1.5e-6, DT, q))
            v_m, v_n, _ = advance(v_m, v_n, 1.5e-6, DT, P)


def driven_block(n, pre, dt=DT):
    """A synapse block of n neurons in which each neuron of ``pre`` drives a
    fast-dpi output onto the next neuron (weight 2) and the one before
    (weight -1)."""
    post = [(j + d) % n for j in pre for d in (1, -1)]
    return _SynapseStates([(j, SP) for j in pre], n, dt, post, [2.0, -1.0] * len(pre),
                          np.arange(len(pre)).repeat(2))


def both_layers(kernel, params, island_of, rows, v_m, v_n, decim=None, dt=DT, synapses=None):
    """The Python and the compiled neuron layer, each with its own
    ``_Traces`` (of neurons n-1 .. 0, every ``decim`` steps, or None), of
    neurons ``params`` on islands ``island_of`` under the noise ``rows`` (a
    row per island) from the state (v_m, v_n), each over a synapse block
    made by ``synapses`` (by default, one without outputs at a zero floor)."""
    out = []
    for layer in (_NeuronLayer, kernel.neuron_layer):
        traces = None
        if decim is not None:
            traces = _Traces(list(range(len(params)))[::-1], rows.shape[1], decim, dt, np.array(v_m))
            traces.v[1:] = 0.0
        block = floor_block(len(params), 0.0, dt) if synapses is None else synapses()
        neurons = layer(_NeuronBlock(params, dt), block, _CheckDrive(rows), np.asarray(island_of), rows.shape[1],
                        np.array(v_m, dtype=float), traces)
        neurons.v_n[...] = v_n
        out.append((neurons, traces))
    return out


def run_outcome(neurons, traces, k):
    """What the runs of ``neurons`` from step k to the end give, as bits: the
    fields of the SimulationError of the first state that is not finite, or
    None; the spikes, the quiet steps, the state and the trace rows up to
    the step reached (rows after it may hold values a compiled quiet stretch
    took back); the synapses' state, pulse tables and counters."""
    error = None
    try:
        while k < neurons.n_steps:
            k = neurons.run(k)
    except SimulationError as err:
        k, error = err.step, (err.neuron, err.island, err.step, err.t, err.phase)
    fired = [(step, who) for steps, neurons_ in neurons.fired for step, who in zip(steps.tolist(), neurons_.tolist())]
    rows = None if traces is None else traces.v[:k // traces.decim + 1].tobytes()
    s = neurons.synapses
    return (error, fired, neurons.quiet_steps, _bits(*neurons.v_m), _bits(*neurons.v_n), rows,
            b"".join(a.tobytes() for a in (s.i, s.tab_i, s.tab_q, s.tab_on, s.until)), s.pulse_steps,
            s.rising_solves)


V_M_AROUND = V_M_LEVELS + [Q.v_th, Q.v_gate_th]
V_N_AROUND = V_N_LEVELS + [Q.v_gate_th]
INPUTS = st.one_of(_near(I_LEVELS, 20e-6), SPECIALS)


class TestCompiledNeuronLayer:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_near(V_M_AROUND, 0.3), _near(V_N_AROUND, 0.3), INPUTS, st.sampled_from([P, Q]),
                              st.integers(0, 2)), min_size=1, max_size=6),
           st.lists(INPUTS, min_size=3, max_size=3), st.integers(0, 5), st.sampled_from([None, 1, 3]))
    @example([(P.v_th, P.v_gate_th, 0.0, P, 0), (DETECT_THRESHOLD_V, 0.0, 1.5e-6, Q, 1)], [0.0, 1.5e-6, 0.0], 0, 1)
    @example([(P.v_clamp_lo, 0.0, -math.inf, P, 0), (P.v_clamp_hi, P.v_n_inf, math.inf, Q, 0)],
             [1.5e-6, 0.0, 0.0], 2, 3)
    @example([(0.5, 0.0, 1e-6, P, 0), (0.5, 0.0, math.nan, P, 1), (0.5, 0.0, 1e-6, Q, 2)],
             [1e-6, 0.0, math.nan], 4, None)
    @example([(0.5, 0.0, 1e-6, Q, 0), (0.5, math.nan, 1e-6, P, 0)], [0.0, 0.0, 0.0], 0, None)  # v_n alone
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf inputs
    def test_general_step_around_the_levels(self, kernel, neurons, noise, k, decim):
        # a run of the one step k, under a floor input of the synapses,
        # gathers each neuron's noise by its island, adds its synaptic input
        # and gives _NeuronBlock.step's bits, with the error the Python
        # layer raises for a state that is not finite
        v_m, v_n, i_syn, params, island_of = (list(col) for col in zip(*neurons))
        rows = np.array(noise)[:, None].repeat(k + 1, axis=1)
        (python, py_traces), (compiled, c_traces) = both_layers(
            kernel, params, island_of, rows, v_m, v_n, decim, synapses=lambda: floor_block(len(params), i_syn))
        assert run_outcome(compiled, c_traces, k) == run_outcome(python, py_traces, k)

    def test_at_the_switch_limit(self, kernel, monkeypatch):
        # a step ten times the spike period holds more switches than
        # MAX_SWITCHES_PER_STEP, and the rest of it is taken with the
        # switches held
        dt, i_in = 1e-5, 6e-6
        with monkeypatch.context() as mp:
            mp.setattr(neuron_mod, "MAX_SWITCHES_PER_STEP", 1000)
            unbounded = [advance(p.v_rest, 0.0, i_in, dt, p) for p in (P, Q)]
        assert [advance(p.v_rest, 0.0, i_in, dt, p) for p in (P, Q)] != unbounded
        rows = np.full((1, 6), i_in)
        (python, py_traces), (compiled, c_traces) = both_layers(kernel, [P, Q], [0, 0], rows, [0.0, 0.0], [0.0, 0.0],
                                                                1, dt=dt)
        assert run_outcome(compiled, c_traces, 0) == run_outcome(python, py_traces, 0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_near([P.v_clamp_lo, P.v_rest, P.v_gate_th, P.v_th, DETECT_THRESHOLD_V], 0.3),
                              _near([0.0, P.v_gate_th], 0.1), st.sampled_from([P, Q]), st.integers(0, 2),
                              st.booleans()), min_size=1, max_size=5),
           st.lists(_near([0.0, 1.5e-6, -1.5e-6, 4e-6], 2e-6), min_size=3, max_size=3),
           st.integers(1, 600), st.integers(0, 599), st.one_of(st.none(), st.tuples(st.integers(0, 2), SPECIALS)),
           st.sampled_from([None, 1, 3]))
    @example([(0.0, 0.0, P, 0, True), (0.2, 0.0, Q, 1, True)], [1.5e-6, 1e-6, 0.0], 600, 0, (1, math.nan), 1)
    @example([(0.3, 0.0, Q, 1, True), (P.v_th, 0.0, P, 0, True)], [0.0, 1e-6, 0.0], 5, 0, None, 1)  # on the level
    @example([(P.v_clamp_lo, 0.0, P, 0, False)], [-4e-6, 0.0, 0.0], 300, 10, (0, -math.inf), 3)
    @example([(0.7, 0.0, P, 0, True), (0.1, 0.0, Q, 2, False)], [0.0, 0.0, 2e-6], 400, 0, (2, math.inf), None)
    # the last neuron ends the stretch first, so the ones before it are taken back
    @example([(0.0, 0.0, P, 0, True), (0.3, 0.0, P, 0, True), (0.6, 0.0, Q, 1, True)], [1e-6, 3e-6, 0.0], 300, 0,
             None, 3)
    # a neuron without synapse outputs fires, and the run goes on
    @example([(0.6, 0.0, P, 0, False), (0.0, 0.0, P, 1, True)], [4e-6, 0.5e-6, 0.0], 400, 0, None, 1)
    def test_idle_and_busy_runs(self, kernel, neurons, means, n_steps, k, special, decim):
        # from any start, across the Python stretch's QUIET_CHUNK batches,
        # the compiled run takes the steps the Python run takes, to the
        # bit: quiet stretches (a NaN or +inf increment goes to the general
        # step), general steps, the pulses the spikes of the driving
        # neurons start and the busy steps under them, and the first state
        # that is not finite
        v_m, v_n, params, island_of, drives = (list(col) for col in zip(*neurons))
        k = min(k, n_steps - 1)
        t = np.arange(n_steps)
        rows = np.array(means)[:, None] + 0.5e-6 * np.sin(t * 0.07 + np.arange(3)[:, None])
        if special is not None:
            rows[special[0], (k + n_steps) // 2] = special[1]
        pre = np.nonzero(drives)[0]
        (python, py_traces), (compiled, c_traces) = both_layers(kernel, params, island_of, rows, v_m, v_n, decim,
                                                                synapses=lambda: driven_block(len(params), pre))
        assert run_outcome(compiled, c_traces, k) == run_outcome(python, py_traces, k)

    def test_a_full_spike_buffer_pauses_the_run(self, kernel, monkeypatch):
        # with room for one step of spikes, the compiled run returns after
        # each step in which a neuron fires, in idle and in busy steps, and
        # the network runs on to the same spikes, state, trace rows,
        # synapse state and counters
        monkeypatch.setattr(_kernel, "SPIKE_BUFFER", 1)
        t = np.arange(400)
        rows = np.array([3e-6 + 2e-6 * np.sin(t * 0.05), 2e-6 + 3e-6 * np.cos(t * 0.03)])
        outcomes, calls = [], []
        for neurons, traces in both_layers(kernel, [P, Q, P], [0, 1, 1], rows, [0.0, 0.3, 0.6], [0.0] * 3, 1,
                                           synapses=lambda: driven_block(3, [0, 2])):
            starts, real_run = [], neurons.run
            neurons.run = lambda k, starts=starts, real_run=real_run, s=neurons.synapses: (
                starts.append(s.idle_at_floor(k)) or real_run(k))
            outcomes.append(run_outcome(neurons, traces, 0))
            calls.append(starts)
        python, compiled = outcomes
        assert compiled == python
        fired_steps = {step for step, _ in python[1]}
        assert len(fired_steps) > 10 and len(calls[0]) == 1 and len(calls[1]) > len(fired_steps)
        assert python[-2] > 0 and not all(calls[1])  # some returns inside a busy stretch

    @pytest.mark.parametrize("name", builtin_names())
    def test_shipped_configs_run_alike_on_both_paths(self, kernel, name, monkeypatch):
        # the spikes CSV, the traces and the stats of every shipped config,
        # untraced and traced, at master seeds 0-3 over 20 us
        network, _ = parse_document(load_builtin(name))
        spikes = 0
        for seed in range(4):
            for traced in ({}, dict(record_traces="all", trace_decimation=1),
                           dict(record_traces="all", trace_decimation=3)):
                sim = SimConfig(duration=20e-6, dt=DT, master_seed=seed, **traced)
                compiled = run(network, sim)
                with monkeypatch.context() as mp:
                    mp.setattr(_kernel, "load", lambda: None)
                    python = run(network, sim)
                assert spikes_to_csv(compiled) == spikes_to_csv(python)
                assert compiled.stats == python.stats
                if traced:
                    assert compiled.traces[0].tobytes() == python.traces[0].tobytes()
                    assert {i: v.tobytes() for i, v in compiled.traces[1].items()} == {
                        i: v.tobytes() for i, v in python.traces[1].items()}
                spikes += compiled.total_spikes()
        assert spikes > 0


SP = synapse_preset("fast-dpi")
# The synapses of the tests: fast-dpi, its pulse cut to 2.5 steps, and a
# drive below i_tau (a < 0: every driven output falls, to its floor) with a
# pulse of half a step.
SYNAPSES = [SP, replace(SP, pulse_width=2.5 * DT), replace(SP, i_pulse=0.4 * SP.i_tau, pulse_width=0.5 * DT)]
# An output's state at the start: a multiple of its floor (1 is the floor),
# of its fixed point a (1 is a) or of their geometric mean.
STARTS = st.one_of(st.tuples(st.just("floor"), st.sampled_from([1.0, 1.0 + 2**-40, 1.2, 3.0])),
                   st.tuples(st.just("a"), st.sampled_from([1.0, 1.0 - 2**-40, 1.0 + 2**-40, 0.9, 1.5, 4.0])),
                   st.tuples(st.just("mean"), st.floats(0.01, 100.0)))
# Onsets into a step: at either end, next to them, or anywhere.
ONSETS = st.one_of(st.sampled_from([0.0, float(np.nextafter(0.0, 1.0)), float(np.nextafter(DT, 0.0)), DT]),
                   st.floats(0.0, DT))


def synapse_block(outputs, synapses):
    """A synapse block of outputs ``(preset, pre, start, in_flight)`` (an
    index into SYNAPSES, the neuron driving the output, its start in STARTS
    and, or None, the part of step 0 an earlier pulse is in flight over) on
    ``synapses`` ``(output, post, weight)`` among three neurons."""
    keys = [(pre, SYNAPSES[preset]) for preset, pre, _, _ in outputs]
    states = _SynapseStates(keys, 3, DT, *zip(*[(post, weight, out) for out, post, weight in synapses]))
    for j, (preset, _, (base, factor), in_flight) in enumerate(outputs):
        sp = SYNAPSES[preset]
        a = sp.i_pulse - sp.i_tau
        level = {"floor": sp.i_floor, "a": a if a > 0.0 else sp.i_floor,
                 "mean": math.sqrt(sp.i_floor * abs(a))}[base]
        states.i[j] = max(level * factor, sp.i_floor)
        if in_flight is not None:
            states.tab_i[0, j], states.tab_q[0, j], states.tab_on[0, j] = 2.0 * sp.i_floor, 1e-15, in_flight
            states.until[j], states.busy_until = 0, 1
    states.at_floor = bool((states.i == states.floor).all())
    return states


def synapse_run(layer, pulses, n_steps):
    """Steps 0 .. n_steps-1 of the synapse block ``layer``, starting in step
    k the pulses ``pulses[k]`` ((neuron, onset) pairs): whether each step is
    idle, its input current and the state after the step and its pulses,
    as bytes, then the counters."""
    out = []
    for k in range(n_steps):
        out += [layer.idle_at_floor(k), layer.step(k).tobytes()]
        if pulses.get(k):
            spiking, onsets = zip(*sorted(pulses[k].items()))
            layer.start_pulses(k, np.array(spiking, dtype=np.int64), np.array(onsets))
        out.append(b"".join(a.tobytes() for a in (layer.i, layer.on, layer.tab_i, layer.tab_q, layer.tab_on,
                                                   layer.until)))
    return out + [layer.busy_until, layer.at_floor, layer.pulse_steps, layer.rising_solves]


class SteppedSynapses:
    """The compiled synapse layer made from the block ``states``, stepped
    by ``si_synapse_step`` and started by ``si_start_pulses`` one call at a
    time, with the methods and attributes of ``_SynapseStates``."""

    def __init__(self, kernel, states):
        lib = ctypes.CDLL(str(kernel.path))
        self._step, self._start = lib.si_synapse_step, lib.si_start_pulses
        self._step.restype, self._start.restype = ctypes.c_int64, None
        struct = ctypes.POINTER(_kernel._Synapses)
        self._step.argtypes = [struct, ctypes.c_int64]
        self._start.argtypes = [struct, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
        self.layer, self.floor_input = _kernel.SynapseLayer(kernel, states), states.floor_input

    def __getattr__(self, name):
        return getattr(self.layer, name)

    @property
    def busy_until(self):
        return self.layer.s.busy_until

    @property
    def at_floor(self):
        return bool(self.layer.s.at_floor)

    def step(self, k):
        return self.layer.input if self._step(self.layer.s, k) else self.floor_input

    def start_pulses(self, k, spiking, onsets):
        spiking, onsets = np.ascontiguousarray(spiking, dtype=np.int64), np.ascontiguousarray(onsets, dtype=float)
        self._start(self.layer.s, k, spiking.ctypes.data, onsets.ctypes.data, len(spiking))


def both_synapse_layers(kernel, outputs, synapses, pulses, n_steps):
    """``synapse_run`` on the Python block and on the compiled layer made
    from a block like it (whether or not the library passed its check)."""
    return (synapse_run(synapse_block(outputs, synapses), pulses, n_steps),
            synapse_run(SteppedSynapses(kernel, synapse_block(outputs, synapses)), pulses, n_steps))


class TestCompiledSynapseLayer:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), STARTS,
                              st.one_of(st.none(), st.floats(0.0, DT))), min_size=1, max_size=4),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.sampled_from([1.0, -1.0, 3.0])),
                    min_size=1, max_size=6),
           st.dictionaries(st.integers(0, 30), st.dictionaries(st.integers(0, 2), ONSETS, min_size=1),
                           max_size=8))
    # an output at its fixed point under an earlier pulse (dpi_flow's i0 == a)
    @example([(0, 0, ("a", 1.0), 0.8 * DT)], [(0, 1, 1.0)], {0: {0: 0.5 * DT}})
    # above it (falling toward it), and a drive below i_tau from above the
    # floor to the floor inside the onset step, both overlapping
    @example([(1, 0, ("a", 4.0), None), (2, 0, ("floor", 1.2), 0.3 * DT), (0, 1, ("floor", 1.0), None)],
             [(0, 1, 1.0), (1, 2, -1.0), (2, 0, 3.0)], {0: {0: 0.6 * DT}, 1: {0: DT, 1: 0.0}, 2: {0: 0.1 * DT}})
    # onsets at and next to the step ends, pulses ending on the grid
    @example([(0, 0, ("floor", 1.0), None), (1, 1, ("mean", 1.0), None)], [(0, 0, 1.0), (1, 1, 1.0)],
             {0: {0: 0.0, 1: float(np.nextafter(DT, 0.0))}, 15: {0: DT}, 16: {0: 0.5 * DT, 1: 0.0}})
    def test_steps_and_pulse_starts(self, kernel, outputs, synapses, pulses):
        # from any state, onsets and overlaps, the compiled layer takes each
        # step and starts each pulse with the Python block's bits: input
        # currents, states, pulse tables and counters
        synapses = [(out % len(outputs), post, weight) for out, post, weight in synapses]
        python, compiled = both_synapse_layers(kernel, outputs, synapses, pulses, 40)
        assert compiled == python

    def test_the_check_covers_each_regime(self, monkeypatch):
        # the four-neuron network of the check reaches the rising flow, the
        # falling flow above a fixed point a > 0 and toward a <= 0, the
        # floor in a decay and in a falling flow, a pulse over an earlier
        # one (a rising solve to its onset), a pulse that ends inside its
        # onset step, and pulses started in busy and in idle steps; after
        # the busy steps, a quiet stretch ends where a later neuron alone
        # reaches the network's stop, the lower v_th of the other preset,
        # below its own (v_th above the detection level), so that the
        # compiled stretch takes the neurons before it back; its traces
        # are of neurons out of index order
        import spikeislands.synapse as synapse_mod

        seen, stretches = set(), []
        for name in ("_rising", "_falling", "dpi_decay"):
            real = getattr(synapse_mod, name)

            def spy(*args, real=real, name=name):
                i1, q = real(*args)
                seen.add(name)
                if name != "_rising" and np.any((i1 == args[-1]) & (np.asarray(args[0]) > args[-1])):
                    seen.add(f"{name} to the floor")
                if name == "_falling":
                    seen.update("_falling to a > 0" if d > i_tau else "_falling to a <= 0"
                                for d, i_tau in zip(np.ravel(args[1]), np.ravel(args[3])))
                return i1, q

            monkeypatch.setattr(synapse_mod, name, spy)
        monkeypatch.setattr(engine_mod, "dpi_decay", synapse_mod.dpi_decay)
        real_start, real_take = _SynapseStates.start_pulses, _QuietStretch.take
        starts = []

        def start(self, k, spiking, onsets):
            hit, solves = np.concatenate([self.of_pre[j] for j in spiking]), self.rising_solves
            seen.add("after an idle step" if self.idle_at_floor(k) else "after a busy step")
            starts.append(k)
            real_start(self, k, spiking, onsets)
            if hit.size and self.rising_solves - solves == 2:
                seen.add("over an earlier pulse")
            if (self.until[hit] == k).any():
                seen.add("ending in its onset step")

        def take(self, k, end, v_m, v_n, traces):
            taken = real_take(self, k, end, v_m, v_n, traces)
            if taken[0] < end:  # the neurons that stop the stretch
                v = taken[1] + self.inc[taken[0] - self.start]
                stretches.append((k, taken[0], np.nonzero(~(v < self.stop))[0].tolist(), self.stop))
            return taken

        monkeypatch.setattr(_SynapseStates, "start_pulses", start)
        monkeypatch.setattr(_QuietStretch, "take", take)
        network = _kernel.check_busy_network()
        outcome = _kernel.network_outcome(_NeuronLayer, network, 2)
        assert seen == {"_rising", "_falling", "dpi_decay", "dpi_decay to the floor", "_falling to the floor",
                        "_falling to a > 0", "_falling to a <= 0", "after an idle step", "after a busy step",
                        "over an earlier pulse", "ending in its onset step"}
        params, trace_ids = network[0], network[-1]
        assert [p.v_th > DETECT_THRESHOLD_V for p in params] == [False, False, False, True]
        # after the pulses, one quiet stretch stopped by neuron 3 alone, at
        # neuron 0's v_th
        quiet = [(k, stop, who, level) for k, stop, who, level in stretches if stop > k]
        assert quiet == [(21, 24, [3], params[0].v_th)] and starts[0] < 21
        assert trace_ids != sorted(trace_ids) and len(trace_ids) < len(params)
        assert outcome[0] == [[1], [1], [3], [30]]
        assert (outcome[1], outcome[-2], outcome[-1]) == (3, 4, 3)  # quiet steps, pulse steps, rising solves


# A process that loads the compiled neuron updates and runs the single neuron
# for 1 ms.
PROBE = """
import hashlib
from spikeislands import _kernel
from spikeislands.configio import load_builtin, parse_document
from spikeislands.engine import SimConfig, run
kernel = _kernel.load()
network, _ = parse_document(load_builtin("fig3_single_neuron"))
record = run(network, SimConfig(duration=1e-3, master_seed=4))
print(kernel is not None, kernel is not None and kernel.built, kernel and kernel.path.name)
print(hashlib.sha256(record.times[0].tobytes()).hexdigest())
"""


def probe_env(cache, **env):
    return {**os.environ, "XDG_CACHE_HOME": str(cache), "PYTHONPATH": str(SRC), **env}


def probe(cache, **env) -> tuple[list[str], str]:
    proc = subprocess.run([sys.executable, "-c", PROBE], env=probe_env(cache, **env), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded, spikes = proc.stdout.splitlines()
    return loaded.split(), spikes


def spikes_here() -> str:
    network, _ = parse_document(load_builtin("fig3_single_neuron"))
    return hashlib.sha256(run(network, SimConfig(duration=1e-3, master_seed=4)).times[0].tobytes()).hexdigest()


needs_compiler = pytest.mark.skipif(_kernel.compiler() is None, reason="no C compiler found (sysconfig CC or cc)")


class TestLoader:
    def test_source_ships_with_the_package(self):
        assert (importlib.resources.files("spikeislands") / "_scalar.c").is_file()

    def test_importing_the_package_builds_nothing(self, tmp_path):
        code = "import spikeislands.cli, spikeislands.engine, spikeislands._kernel as k; print(k.load.cache_info())"
        proc = subprocess.run([sys.executable, "-c", code], env=probe_env(tmp_path), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "currsize=0" in proc.stdout
        assert not (tmp_path / "spikeislands").exists()

    @needs_compiler
    def test_a_second_process_loads_the_cached_library(self, tmp_path):
        first, spikes = probe(tmp_path)
        second, spikes_again = probe(tmp_path)
        assert first[:2] == ["True", "True"] and second[:2] == ["True", "False"]
        assert first[2] == second[2]
        assert [p.name for p in (tmp_path / "spikeislands").iterdir()] == [first[2]]
        assert (tmp_path / "spikeislands").stat().st_mode & 0o777 == 0o700
        assert spikes == spikes_again == spikes_here()

    @needs_compiler
    def test_two_processes_on_an_empty_cache(self, tmp_path):
        procs = [subprocess.Popen([sys.executable, "-c", PROBE], env=probe_env(tmp_path), stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True) for _ in range(2)]
        outs = [proc.communicate(timeout=300) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in outs]
        loaded = [out.splitlines()[0].split() for out, _ in outs]
        assert [line[0] for line in loaded] == ["True", "True"]
        # a whole library, and no temporary file left behind
        assert [p.name for p in (tmp_path / "spikeislands").iterdir()] == [loaded[0][2]]
        assert probe(tmp_path)[0][:2] == ["True", "False"]

    @needs_compiler
    def test_the_source_compiles_without_warnings(self, tmp_path):
        # the library's flags with every warning of -Wall -Wextra under C99
        # made an error
        cmd = [*_kernel.compiler(), *_kernel.FLAGS, "-Wall", "-Wextra", "-Werror", "-std=c99", "-o",
               str(tmp_path / "scalar.so"), str(_kernel.SOURCE), *_kernel.LIBS]
        proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=_kernel.COMPILE_TIMEOUT_S)
        assert proc.returncode == 0 and not proc.stderr, proc.stderr

    def test_no_compiler_on_the_path_runs_the_python_loop(self, tmp_path):
        empty = tmp_path / "bin"
        empty.mkdir()
        loaded, spikes = probe(tmp_path / "cache", PATH=str(empty))
        assert loaded[0] == "False"
        assert spikes == spikes_here()

    def test_unwritable_cache_runs_the_python_loop(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        loaded, spikes = probe(blocker)
        assert loaded[0] == "False"
        assert spikes == spikes_here()

    @pytest.mark.parametrize("name,extra", [("FLAGS", "-O3"), ("LIBS", "-lpthread")])
    def test_the_library_is_named_by_its_flags(self, tmp_path, monkeypatch, name, extra):
        # a library built with other flags is never loaded in their place
        path = _kernel._library_path(tmp_path, ["cc"])
        monkeypatch.setattr(_kernel, name, (*getattr(_kernel, name), extra))
        assert _kernel._library_path(tmp_path, ["cc"]) != path

    def test_failing_check_runs_the_python_loop(self, kernel, monkeypatch):
        # a library that fails the check is not loaded, and a network with
        # synapse outputs and a single neuron then run on the Python layers
        # to the spikes and stats of the compiled layers
        network, _ = parse_document(load_builtin("fig6G"))
        sim = SimConfig(duration=10e-6, dt=DT, master_seed=1)
        noise = NoiseSpec("white", 2e-10, (10.0, 5e6))
        compiled = run(network, sim), run_single_neuron(noise, P, sim)
        layers = []
        real_step_network, real_scalar_run = engine_mod._step_network, _ScalarNeuron.run
        monkeypatch.setattr(engine_mod, "_step_network",
                            lambda neurons, n: layers.append(type(neurons)) or real_step_network(neurons, n))
        monkeypatch.setattr(_ScalarNeuron, "run",
                            lambda self, *args: layers.append(_ScalarNeuron) or real_scalar_run(self, *args))
        monkeypatch.setattr(_kernel, "_matches_python", lambda kernel: False)
        _kernel.load.cache_clear()
        try:
            assert _kernel.load() is None
            python = run(network, sim), run_single_neuron(noise, P, sim)
        finally:
            _kernel.load.cache_clear()
        assert layers == [_NeuronLayer, _ScalarNeuron]
        for ours, reference in zip(compiled, python):
            assert spikes_to_csv(ours) == spikes_to_csv(reference) and ours.stats == reference.stats
        assert python[0].stats["rising_solves"] > 0 and python[1].total_spikes() > 0
