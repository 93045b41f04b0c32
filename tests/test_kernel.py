"""The compiled neuron updates (``_scalar.c``) and their loader.

The compiled single-neuron loop must give the bits of the Python loop it
replaces, ``engine._ScalarNeuron.take``: the same spike steps, end state
and trace rows, on the shipped drives and on states and drives around
every level the loop compares against, NaN and infinities included; its
``advance`` must give ``neuron.advance``'s bits on the cases
``TestAdvanceAsFirstWritten`` checks.  The compiled neuron layer of a
network must give the bits of ``engine._NeuronLayer``: its general step
those of ``_NeuronBlock.step``, which takes the quiet neurons of a step in
one vector expression and every other neuron through ``_general_step``
(spikes, onsets, state, the ``SimulationError`` of a state that is not
finite), and its quiet stretches those of ``_QuietStretch.take``, on
blocks of two presets around the same levels and at the switch limit, and
every shipped config runs to the same spikes, traces and stats on both.
``test_engine`` checks ``_NeuronBlock.step`` against ``neuron.advance``
without a compiler.  Those tests skip, saying why,
when the compiled code is not available.  The loader builds the library
once per cache, safely from two processes at once, and without a compiler
or a writable cache the run takes the Python code and gives the same
spikes.  The ``kernel`` fixture (conftest.py) is the loaded library.
"""

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
import spikeislands.neuron as neuron_mod
from spikeislands import _kernel
from spikeislands._kernel import _CheckDrive
from spikeislands.configio import builtin_names, load_builtin, parse_document
from spikeislands.engine import (SimConfig, SimulationError, _Drive, _NeuronBlock, _NeuronLayer, _QuietStretch,
                                 _ScalarNeuron, _Traces, run)
from spikeislands.io import spikes_to_csv
from spikeislands.neuron import DETECT_THRESHOLD_V, advance
from spikeislands.presets import neuron_preset

SRC = Path(spikeislands.__file__).resolve().parent.parent
P = neuron_preset("fast-mode")
Q = replace(P, v_th=1.2, v_gate_th=0.75)  # v_th above the detection level
DT = 1e-8


def _bits(*values):
    """Floats (None kept) as bytes, NaN payloads and signed zeros included."""
    return tuple(None if x is None else struct.pack("<d", x) for x in values)


def both_loops(kernel, params, drive, decim, v_m=None, v_n=0.0):
    """(end state, spike steps, trace rows) of the Python loop and of the
    compiled one, from (v_m, v_n) (v_m at rest by default) under ``drive``,
    untraced when ``decim`` is None."""
    v_m = params.v_rest if v_m is None else v_m
    out = []
    for compiled in (False, True):
        traces = None if decim is None else _Traces([0], len(drive), decim, DT, np.array([v_m]))
        neuron = _ScalarNeuron(params, DT, traces)
        if compiled:
            end = kernel.stepper(neuron)(np.array(drive, dtype=np.float64), 0, v_m, v_n)
        else:
            end = neuron.take(list(drive), 0, v_m, v_n)
        out.append((_bits(*end), neuron.spikes, None if traces is None else traces.v.tobytes()))
    return out


def shipped_drive(variant: str, seed: int, n_steps: int) -> np.ndarray:
    """The drive of a golden single-neuron variant: white as shipped, pink,
    or white held on a grid of three steps."""
    network, _ = parse_document(single_neuron_text(variant))
    sim = SimConfig(duration=n_steps * DT, dt=DT, master_seed=seed, noise_dt=3e-8 if variant == "held" else None)
    return _Drive(network.noise, sim).steps(0, n_steps)[0].copy()


class TestCompiledLoop:
    @pytest.mark.parametrize("variant", sorted(SINGLE_NOISE))
    @pytest.mark.parametrize("decim", [None, 1, 10])
    def test_shipped_drives(self, kernel, variant, decim):
        drive = shipped_drive(variant, 5, 100_000)
        python, compiled = both_loops(kernel, P, drive, decim)
        assert len(python[1]) > 20
        assert compiled == python

    @settings(max_examples=300, deadline=None)
    @given(_near(V_M_LEVELS, 0.3), _near(V_N_LEVELS, 0.3),
           st.lists(st.one_of(_near(I_LEVELS, 20e-6), _near([0.0], 200e-6), SPECIALS), min_size=1, max_size=40),
           st.sampled_from([None, 1, 3]))
    @example(P.v_th, P.v_gate_th, [0.0, 1.5e-6], None)
    @example(DETECT_THRESHOLD_V, 0.0, [1.5e-6, math.nan, 1.5e-6], 1)
    @example(P.v_clamp_lo, 0.0, [-math.inf, 1.5e-6], None)
    @example(P.v_clamp_hi, P.v_n_inf, [math.inf, 0.0], 3)
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
            assert python[1]
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


def both_layers(kernel, params, island_of, rows, v_m, v_n, decim=None, dt=DT):
    """The Python and the compiled neuron layer, each with its own
    ``_QuietStretch`` and ``_Traces`` (of neurons n-1 .. 0, every ``decim``
    steps, or None), of neurons ``params`` on islands ``island_of`` under
    the noise ``rows`` (a row per island) from the state (v_m, v_n)."""
    out = []
    for layer in (_NeuronLayer, kernel.neuron_layer):
        drive, block = _CheckDrive(rows), _NeuronBlock(params, dt)
        quiet = _QuietStretch(drive, np.asarray(island_of), rows.shape[1], block, np.zeros(len(params)))
        traces = None
        if decim is not None:
            traces = _Traces(list(range(len(params)))[::-1], rows.shape[1], decim, dt, np.array(v_m))
            traces.v[1:] = 0.0
        neurons = layer(block, quiet, drive, np.asarray(island_of), np.array(v_m, dtype=float), traces)
        neurons.v_n[...] = v_n
        out.append((neurons, quiet, traces))
    return out


def step_outcome(neurons, traces, k, i_syn):
    """What general step k of ``neurons`` gives, as bits: its spikes and
    onsets, or the fields of its SimulationError, then the state, the
    quiet test and the trace rows."""
    try:
        spiking, onsets = neurons.step(k, np.array(i_syn))
        result = (spiking.tolist(), _bits(*onsets.tolist()), neurons.holds())
    except SimulationError as err:
        result = (err.neuron, err.island, err.step, err.t, err.phase)
    return result, _bits(*neurons.v_m), _bits(*neurons.v_n), None if traces is None else traces.v.tobytes()


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
        # the compiled step gathers each neuron's noise by its island, adds
        # its synaptic input and gives _NeuronBlock.step's bits, with the
        # error the Python layer raises for a state that is not finite
        v_m, v_n, i_syn, params, island_of = (list(col) for col in zip(*neurons))
        rows = np.array(noise)[:, None].repeat(k + 1, axis=1)
        (python, _, py_traces), (compiled, _, c_traces) = both_layers(kernel, params, island_of, rows, v_m, v_n,
                                                                      decim)
        assert step_outcome(compiled, c_traces, k, i_syn) == step_outcome(python, py_traces, k, i_syn)

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
        (python, _, _), (compiled, _, _) = both_layers(kernel, [P, Q], [0, 0], rows, [0.0, 0.0], [0.0, 0.0],
                                                       dt=dt)
        for k in range(6):
            assert step_outcome(compiled, None, k, [0.0, 0.0]) == step_outcome(python, None, k, [0.0, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_near([P.v_clamp_lo, P.v_rest, P.v_gate_th, P.v_th, DETECT_THRESHOLD_V], 0.3),
                              _near([0.0, P.v_gate_th], 0.1), st.sampled_from([P, Q]), st.integers(0, 2)),
                    min_size=1, max_size=5),
           st.lists(_near([0.0, 1.5e-6, -1.5e-6, 4e-6], 2e-6), min_size=3, max_size=3),
           st.integers(1, 600), st.integers(0, 599), st.one_of(st.none(), st.tuples(st.integers(0, 2), SPECIALS)),
           st.sampled_from([None, 1, 3]))
    @example([(0.0, 0.0, P, 0), (0.2, 0.0, Q, 1)], [1.5e-6, 1e-6, 0.0], 600, 0, (1, math.nan), 1)
    @example([(0.3, 0.0, Q, 1), (P.v_th, 0.0, P, 0)], [0.0, 1e-6, 0.0], 5, 0, None, 1)  # lands on the level
    @example([(P.v_clamp_lo, 0.0, P, 0)], [-4e-6, 0.0, 0.0], 300, 10, (0, -math.inf), 3)
    @example([(0.7, 0.0, P, 0), (0.1, 0.0, Q, 2)], [0.0, 0.0, 2e-6], 400, 0, (2, math.inf), None)
    def test_quiet_stretches(self, kernel, neurons, means, n_steps, k, special, decim):
        # from any start, across batches of QUIET_CHUNK steps, the compiled
        # stretch takes the steps _QuietStretch.take takes, to the bit, and
        # hands a NaN or +inf increment back to the general step
        v_m, v_n, params, island_of = (list(col) for col in zip(*neurons))
        k = min(k, n_steps - 1)
        t = np.arange(n_steps)
        rows = np.array(means)[:, None] + 0.5e-6 * np.sin(t * 0.07 + np.arange(3)[:, None])
        if special is not None:
            rows[special[0], (k + n_steps) // 2] = special[1]
        out = []
        for neurons, quiet, traces in both_layers(kernel, params, island_of, rows, v_m, v_n, decim):
            end = neurons.take_quiet(k)
            out.append((end, quiet.steps, _bits(*neurons.v_m), _bits(*neurons.v_n),
                        None if traces is None else traces.v.tobytes()))
        assert out[1] == out[0]

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


# A process that loads the loop and runs the single neuron for 1 ms.
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

    @needs_compiler
    def test_failing_check_runs_the_python_loop(self, monkeypatch):
        monkeypatch.setattr(_kernel, "_matches_python", lambda kernel: False)
        _kernel.load.cache_clear()
        try:
            assert _kernel.load() is None
        finally:
            _kernel.load.cache_clear()
