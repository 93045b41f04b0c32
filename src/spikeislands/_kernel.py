"""The compiled neuron updates: ``_scalar.c``, built on first use.

``load()`` gives the library compiled from the C file shipped next to this
module, or None, and is called by the first run of a process (see
``engine._simulate``); importing the package builds and loads nothing.  It
runs the single-neuron loop of ``engine._ScalarNeuron`` (``stepper``) and
the neuron layer of a network, ``engine._NeuronLayer`` (``neuron_layer``),
both with ``engine._general_step`` in C on each neuron's ``_step_consts``.
The library is compiled once per user, source, compiler command and flags,
with the C compiler Python was built with (``sysconfig``'s ``CC``, else
``cc``), into ``$XDG_CACHE_HOME/spikeislands/`` or
``~/.cache/spikeislands/`` (mode 0700).  It is written under a temporary
name and renamed into place, so processes that build it at once each load
a whole file; deleting the cache is safe, the next run builds it again.

Before it is used, the loaded library must give the bits of the Python
code it replaces on short fixed inputs: the single-neuron loop's spike
steps, end state and trace rows on a drive that fires the neuron, and the
neuron layer's spikes, onsets, end state and trace rows on a small network
of two presets.  Without a compiler, when the cache cannot be written, when
compiling or loading fails or when that check differs, ``load()`` returns
None and the Python code runs: it is the reference the compiled code
reproduces.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .engine import (SimulationError, _NeuronBlock, _NeuronLayer, _phase_at_fault, _QuietStretch, _ScalarNeuron,
                     _step_consts, _step_network, _Traces)
from .presets import neuron_preset

SOURCE = Path(__file__).with_name("_scalar.c")
# -ffp-contract=off: a fused multiply-add rounds once where the Python loop
# rounds twice (the default of some compilers on aarch64).
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)
COMPILE_TIMEOUT_S = 120

_double_p = ctypes.POINTER(ctypes.c_double)


class _Consts(ctypes.Structure):
    """``si_consts`` of ``_scalar.c``: a neuron's ``engine._step_consts``."""

    _fields_ = [(name, ctypes.c_double) for name in (
        "v_th", "v_gate", "c_m", "tau_n", "i_na_max", "i_sink", "v_n_inf", "lo", "hi",
        "v_detect", "dt", "k_dt", "decay")] + [("max_switches", ctypes.c_int64)]


class _Block(ctypes.Structure):
    """``si_block`` of ``_scalar.c``: pointers to the arrays of a
    ``NeuronLayer``, and its quiet level."""

    _fields_ = [("n", ctypes.c_int64)] + [(name, ctypes.c_void_p) for name in (
        "c", "island_of", "noise", "i_syn", "v_m", "v_n", "spiking", "onsets")] + [
        ("stop", ctypes.c_double), ("holds", ctypes.c_int64), ("trace", ctypes.c_void_p),
        ("trace_ids", ctypes.c_void_p), ("n_trace", ctypes.c_int64), ("decim", ctypes.c_int64)]


_NO_SPIKES, _NO_ONSETS = np.empty(0, dtype=np.int64), np.empty(0)


class NeuronLayer:
    """``engine._NeuronLayer`` run by ``si_block_step`` and ``si_quiet``,
    with its methods and its bits.  The state, the inputs of a step and its
    spikes are arrays bound to one ``si_block`` when the layer is made and
    updated in place: a general step copies the step's noise samples and
    synaptic input into them and makes one call, which also tests the state
    and samples the trace; a quiet stretch makes one call per batch of
    ``_QuietStretch`` increments."""

    def __init__(self, kernel: Kernel, block: _NeuronBlock, quiet: _QuietStretch, drive, island_of, v_m,
                 traces: _Traces | None):
        n = len(v_m)
        self.quiet, self.drive, self.island_of, self.dt = quiet, drive, island_of, block.dt
        self._block_step, self._quiet = kernel._block_step, kernel._quiet
        self.consts = (_Consts * n)(*[_Consts(*c) for c in block.consts])
        self.v_m, self.v_n = np.array(v_m, dtype=np.float64), np.zeros(n)
        self.noise, self.i_syn = np.empty(drive.n_islands), np.empty(n)
        self.spiking, self.onsets = np.empty(n, dtype=np.int64), np.empty(n)
        self._islands = np.ascontiguousarray(island_of, dtype=np.int64)
        # What the C code indexes without a check.
        if len(self._islands) != n or n and not 0 <= self._islands.min() <= self._islands.max() < len(self.noise):
            raise ValueError("island_of must give each neuron an island of the drive")
        if traces is not None and not (traces.v.dtype == np.float64 and traces.v.flags.c_contiguous
                                       and traces.v.shape == (quiet.n_steps // traces.decim + 1, len(traces.ids))
                                       and 0 <= min(traces.ids) <= max(traces.ids) < n):
            raise ValueError("traces must hold a row per sample of the run's steps and a column per traced neuron")
        self._b = _Block(n, ctypes.addressof(self.consts), *(a.ctypes.data for a in (
            self._islands, self.noise, self.i_syn, self.v_m, self.v_n, self.spiking, self.onsets)),
            quiet.stop, quiet.holds(self.v_m, self.v_n))
        if traces is not None:
            self._traces, self._trace_ids = traces, np.array(traces.ids, dtype=np.int64)
            self._b.trace, self._b.trace_ids = traces.v.ctypes.data, self._trace_ids.ctypes.data
            self._b.n_trace, self._b.decim = len(traces.ids), traces.decim
        self._inc, self._row = None, n * self.v_m.itemsize  # the batch si_quiet reads, kept alive

    def holds(self) -> bool:
        return self._b.holds != 0

    def take_quiet(self, k: int) -> int:
        quiet, k0 = self.quiet, k
        while k < quiet.n_steps:
            if not quiet.start <= k < quiet.end:
                quiet._batch(k)
                self._inc = np.ascontiguousarray(quiet.inc)
                self._inc_at = self._inc.ctypes.data
            k += self._quiet(self._b, self._inc_at + (k - quiet.start) * self._row, quiet.end - k, k)
            if k < quiet.end:
                break
        quiet.steps += k - k0
        return k

    def step(self, k: int, i_syn):
        self.noise[...] = self.drive.at(k)
        self.i_syn[...] = i_syn
        n = self._block_step(self._b, k)
        if n == 0:
            return _NO_SPIKES, _NO_ONSETS
        if n < 0:
            b = -1 - n
            island = int(self.island_of[b])
            raise SimulationError(b, island, k, (k + 1) * self.dt,
                                  _phase_at_fault(self.noise[island], self.i_syn[b]))
        return self.spiking[:n].copy(), self.onsets[:n].copy()


class Kernel:
    """The loaded library; ``command`` is the compiler command that built it
    and ``built`` whether this process ran it."""

    def __init__(self, lib: ctypes.CDLL, path: Path, command: list[str], built: bool):
        self.path, self.command, self.built = path, command, built
        self._take = lib.si_take
        self._take.restype = ctypes.c_int64
        self._take.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, _double_p,
                               ctypes.POINTER(_Consts), ctypes.c_void_p, ctypes.c_void_p,
                               ctypes.c_int64, ctypes.c_int64]
        self._advance = lib.si_advance
        self._advance.restype = ctypes.c_int
        self._advance.argtypes = [_double_p, _double_p, ctypes.c_double, ctypes.c_double,
                                  ctypes.POINTER(_Consts), _double_p]
        self._block_step = lib.si_block_step
        self._block_step.restype = ctypes.c_int64
        self._block_step.argtypes = [ctypes.POINTER(_Block), ctypes.c_int64]
        self._quiet = lib.si_quiet
        self._quiet.restype = ctypes.c_int64
        self._quiet.argtypes = [ctypes.POINTER(_Block), ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64]

    def neuron_layer(self, block: _NeuronBlock, quiet: _QuietStretch, drive, island_of, v_m,
                     traces: _Traces | None) -> NeuronLayer:
        """The compiled counterpart of ``engine._NeuronLayer(block, quiet,
        drive, island_of, v_m, traces)``."""
        return NeuronLayer(self, block, quiet, drive, island_of, v_m, traces)

    def stepper(self, neuron):
        """A function ``(drive, k, v_m, v_n) -> (v_m, v_n)`` that does what
        ``neuron.take`` does (an ``engine._ScalarNeuron``: its spikes and
        trace samples included), with the drive a float64 array."""
        consts = _Consts(*neuron.consts)
        state = (ctypes.c_double * 2)()
        spikes = np.empty(0, dtype=np.int64)
        trace, decim, stride, rows = None, 1, 0, 0
        if neuron.traces is not None:
            v = neuron.traces.v  # float64, a row per sample
            trace, decim, stride, rows = v.ctypes.data, neuron.traces.decim, v.strides[0] // v.itemsize, len(v)

        def take(drive, k: int, v_m: float, v_n: float) -> tuple[float, float]:
            nonlocal spikes
            drive = np.ascontiguousarray(drive, dtype=np.float64)
            if trace is not None and (k + drive.size) // decim >= rows:
                raise ValueError(f"steps {k + 1}..{k + drive.size} run past the trace's {rows} rows")
            if spikes.size < drive.size:
                spikes = np.empty(drive.size, dtype=np.int64)
            state[0], state[1] = v_m, v_n
            n = self._take(drive.ctypes.data, drive.size, k, state, consts, spikes.ctypes.data,
                           trace, decim, stride)
            neuron.spikes.extend(spikes[:n].tolist())
            return state[0], state[1]

        return take

    def advance(self, v_m: float, v_n: float, i_in: float, dt: float, params) -> tuple:
        """``neuron.advance`` in C."""
        vm, vn, onset = ctypes.c_double(v_m), ctypes.c_double(v_n), ctypes.c_double()
        hit = self._advance(vm, vn, i_in, dt, _Consts(*_step_consts(params, dt)), onset)
        return vm.value, vn.value, onset.value if hit else None


def compiler() -> list[str] | None:
    """The compiler command: ``sysconfig``'s ``CC`` when that program is on
    PATH, else ``cc`` when it is, else None."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if cc and shutil.which(cc[0]):
        return cc
    return ["cc"] if shutil.which("cc") else None


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base and os.path.isabs(base) else Path.home() / ".cache"
    return root / "spikeislands"


def _library_path(cache: Path, command: list[str]) -> Path:
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update("\0".join([*command, *FLAGS, *LIBS, sysconfig.get_platform()]).encode())
    return cache / f"scalar-{key.hexdigest()[:24]}.so"


def _private_dir(path: Path) -> bool:
    """Make ``path`` (mode 0700) if need be; True if it is a directory of
    this user that no one else can write to."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return False
    return path.is_dir() and st.st_uid == os.getuid() and not st.st_mode & 0o022


def _build(cc: list[str], target: Path) -> bool:
    """Compile SOURCE to ``target``, atomically; True on success."""
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run([*cc, *FLAGS, "-o", tmp, str(SOURCE), *LIBS], stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=COMPILE_TIMEOUT_S)
        if proc.returncode != 0:
            return False
        os.replace(tmp, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def check_drive() -> np.ndarray:
    """The drive of the check: 1 500 steps that fire the fast-mode neuron
    a few times, at a 10 ns step."""
    t = np.arange(1500)
    return 1.5e-6 + 4e-6 * np.sin(t * 0.013) * np.cos(t * 0.0021)


class _CheckDrive:
    """``engine._Drive`` over fixed samples, a row per island."""

    def __init__(self, rows: np.ndarray):
        self.rows, self.n_islands = rows, len(rows)

    def at(self, k: int) -> np.ndarray:
        return self.rows[:, k]

    def steps(self, start: int, end: int) -> np.ndarray:
        return self.rows[:, start:end]


class _CheckSynapses:
    """No synapses: every step is idle at the zero floor input.  Keeps the
    onsets of the spikes that start pulses."""

    def __init__(self, n: int):
        self.floor_input, self.onsets = np.zeros(n), []

    def idle_at_floor(self, k: int) -> bool:
        return True

    def step(self, k: int) -> np.ndarray:
        return self.floor_input

    def start_pulses(self, k: int, spiking, onsets) -> None:
        self.onsets.append(onsets.tobytes())


def check_network() -> tuple:
    """The network of the check: ``(params, island_of, drive, v_m)``, four
    neurons of two presets (v_th below and above the detection level) on
    two islands, starting below v_th, and 50 steps of drive, a row per
    island, in which a few quiet steps come before every neuron fires."""
    p = neuron_preset("fast-mode")
    t = np.arange(50)
    drive = np.array([3e-6 + 1e-6 * np.sin(t * 0.3), 2.5e-6 + 1.5e-6 * np.cos(t * 0.2)])
    return ([p, replace(p, v_th=1.2, v_gate_th=0.75)] * 2, np.array([0, 0, 1, 1], dtype=np.int32), drive,
            np.array([0.4, 0.6, 0.3, 0.5]))


def network_outcome(layer, decim: int) -> tuple:
    """The spike steps, onset bits, quiet steps, end state and trace rows
    (neurons 3, 0 and 2, every ``decim`` steps) of ``check_network()``
    with the neuron layer ``layer`` (``engine._NeuronLayer`` or a
    ``Kernel``'s ``neuron_layer``)."""
    params, island_of, rows, v_m = check_network()
    dt, n_steps = 1e-8, rows.shape[1]
    drive, synapses = _CheckDrive(rows), _CheckSynapses(len(params))
    block = _NeuronBlock(params, dt)
    quiet = _QuietStretch(drive, island_of, n_steps, block, synapses.floor_input)
    traces = _Traces([3, 0, 2], n_steps, decim, dt, v_m)
    neurons = layer(block, quiet, drive, island_of, v_m, traces)
    spikes = _step_network(neurons, synapses, n_steps)
    return spikes, synapses.onsets, quiet.steps, neurons.v_m.tobytes(), neurons.v_n.tobytes(), traces.v.tobytes()


def _matches_python(kernel: Kernel) -> bool:
    """The compiled code gives the bits of the Python code: the
    single-neuron loop's spike steps, end state and trace rows on
    ``check_drive()``, untraced and traced, and the neuron layer's
    ``network_outcome``."""
    params, dt, drive = neuron_preset("fast-mode"), 1e-8, check_drive()

    def outcome(compiled: bool, decim: int | None) -> tuple:
        traces = None if decim is None else _Traces([0], drive.size, decim, dt, np.array([params.v_rest]))
        neuron = _ScalarNeuron(params, dt, traces)
        if compiled:
            end = kernel.stepper(neuron)(drive, 0, params.v_rest, 0.0)
        else:
            end = neuron.take(drive.tolist(), 0, params.v_rest, 0.0)
        return np.array(end).tobytes(), neuron.spikes, None if traces is None else traces.v.tobytes()

    for decim in (None, 1, 7):
        expected = outcome(False, decim)
        if not expected[1] or outcome(True, decim) != expected:
            return False
    expected = network_outcome(_NeuronLayer, 3)
    return all(expected[0]) and expected[2] > 0 and network_outcome(kernel.neuron_layer, 3) == expected


@functools.cache
def load() -> Kernel | None:
    """The compiled neuron updates, built and checked once per process, or
    None when the Python code must run (see the module docstring)."""
    cc = compiler()
    cache = cache_dir()
    if cc is None or not _private_dir(cache):
        return None
    try:
        path = _library_path(cache, cc)
        built = not path.exists()
        if built and not _build(cc, path):
            return None
        kernel = Kernel(ctypes.CDLL(str(path)), path, [*cc, *FLAGS, *LIBS], built)
    except (OSError, AttributeError):
        return None
    return kernel if _matches_python(kernel) else None
