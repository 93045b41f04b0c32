"""The compiled single-neuron loop (``_scalar.c``) and its loader.

The compiled loop must give the bits of the Python loop it replaces,
``engine._ScalarNeuron.take``: the same spike steps, end state and trace
rows, on the shipped drives and on states and drives around every level
the loop compares against, NaN and infinities included; its ``advance``
must give ``neuron.advance``'s bits on the cases ``TestAdvanceAsFirstWritten``
checks.  Those tests skip, saying why, when the loop is not available.  The
loader builds the library once per cache, safely from two processes at
once, and without a compiler or a writable cache the run takes the Python
loop and gives the same spikes.  The ``kernel`` fixture (conftest.py) is
the loaded loop.
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
from spikeislands import _kernel
from spikeislands.configio import load_builtin, parse_document
from spikeislands.engine import SimConfig, _Drive, _ScalarNeuron, _Traces, run
from spikeislands.neuron import DETECT_THRESHOLD_V, advance
from spikeislands.presets import neuron_preset

SRC = Path(spikeislands.__file__).resolve().parent.parent
P = neuron_preset("fast-mode")
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

    @needs_compiler
    def test_failing_check_runs_the_python_loop(self, monkeypatch):
        monkeypatch.setattr(_kernel, "_matches_python", lambda kernel: False)
        _kernel.load.cache_clear()
        try:
            assert _kernel.load() is None
        finally:
            _kernel.load.cache_clear()
