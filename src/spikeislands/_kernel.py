"""The compiled neuron and synapse updates: ``_scalar.c``, built on first use.

``load()`` gives the library compiled from the C file shipped next to this
module, or None, and is called by the first run of a process (see
``engine._simulate``); importing the package builds and loads nothing.  It
runs every network, one neuron without synapses included, as
``engine._NeuronLayer`` does (``neuron_layer``): ``si_run`` takes every
step, idle or busy, with ``engine._general_step`` in C on each neuron's
``_step_consts`` and the synapse layer, an ``engine._SynapseStates``
compiled in place (``SynapseLayer``), so that a run is one call per noise
block.
The library is compiled once per user, source, compiler command and flags,
with the C compiler Python was built with (``sysconfig``'s ``CC``, else
``cc``), into ``$XDG_CACHE_HOME/spikeislands/`` or
``~/.cache/spikeislands/`` (mode 0700).  It is written under a temporary
name and renamed into place, so processes that build it at once each load
a whole file; deleting the cache is safe, the next run builds it again.

Before it is used, ``load()`` checks that the loaded library gives the
bits of the Python code it replaces on short fixed inputs
(``network_outcome``: spikes, quiet steps, end state, trace rows, synapse
state, pulse tables and counters): a small network of two presets whose
pulses overlap, end inside their onset step, fall and reach the floor,
with a quiet stretch and spikes in busy and in idle steps, and one neuron
without synapses (``check_networks()``).  Without a compiler, when the
cache cannot be written, when compiling or loading fails or when the check
differs, ``load()`` returns None and the Python code runs every network:
it is the reference the compiled code reproduces.
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

from .engine import (_NO_SPIKES, SimulationError, _NeuronBlock, _NeuronLayer, _phase_at_fault, _step_consts,
                     _step_network, _SynapseStates, _Traces)
from .presets import neuron_preset, synapse_preset
from .synapse import _rising_relation

SOURCE = Path(__file__).with_name("_scalar.c")
# -ffp-contract=off: a fused multiply-add rounds once where the Python loop
# rounds twice (the default of some compilers on aarch64).
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)
COMPILE_TIMEOUT_S = 120

_double_p = ctypes.POINTER(ctypes.c_double)
# The pointer fields of ``si_block``, in its order.
_POINTERS = ("c", "island_of", "held", "floor", "v_m", "v_n", "spiking", "onsets", "buffer", "save", "trace",
             "trace_col")
# The pointer fields of ``si_synapses``, in its order.
_SYNAPSE_POINTERS = ("consts", "rel", "psi", "ends", "rel_of", "ahead", "post", "state_of", "pre_start", "pre_out",
                     "signw", "i", "i_start", "on", "tab_i", "tab_q", "tab_on", "until", "input", "hit", "m", "theta",
                     "x", "first_off", "h", "i_tab", "q_tab")


def _address(a) -> int | None:
    """The address of the data of a numpy or ctypes array, or None."""
    return None if a is None else a.ctypes.data if isinstance(a, np.ndarray) else ctypes.addressof(a)


class _Consts(ctypes.Structure):
    """``si_consts`` of ``_scalar.c``: a neuron's ``engine._step_consts``."""

    _fields_ = [(name, ctypes.c_double) for name in (
        "v_th", "v_gate", "c_m", "tau_n", "i_na_max", "i_sink", "v_n_inf", "lo", "hi",
        "v_detect", "dt", "k_dt", "decay")] + [("max_switches", ctypes.c_int64)]


class _Block(ctypes.Structure):
    """``si_block`` of ``_scalar.c``: pointers to the arrays of a
    ``NeuronLayer`` and the held noise block, their sizes, the counts of a
    run and the quiet level."""

    _fields_ = [(name, ctypes.c_void_p) for name in _POINTERS] + [(name, ctypes.c_int64) for name in (
        "n", "width", "first", "hold", "room", "n_fired", "k", "quiet_steps", "n_trace", "decim")] + [
        ("stop", ctypes.c_double)]


class _Synapses(ctypes.Structure):
    """``si_synapses`` of ``_scalar.c``: pointers to the arrays of a
    ``SynapseLayer``, their sizes, its counters and the step."""

    _fields_ = [(name, ctypes.c_void_p) for name in _SYNAPSE_POINTERS] + [(name, ctypes.c_int64) for name in (
        "n_out", "n_syn", "n_neurons", "n_grid", "ring", "cols", "busy_until", "at_floor", "pulse_steps",
        "rising_solves")] + [("dt", ctypes.c_double)]


# Spikes per neuron that a run of the compiled layer buffers before it
# returns to Python.
SPIKE_BUFFER = 256


class NeuronLayer:
    """``engine._NeuronLayer`` run by ``si_run``, with its methods and its
    bits, over the compiled synapse layer made from its synapse block
    (``synapses``).  The state, a step's spikes and the spike buffer are
    arrays bound to one ``si_block`` when the layer is made and updated in
    place.  A run is one call, which reads the noise from the drive's held
    block (``_Drive.held_at``) and takes every step, idle or busy, up to the
    end of that block or a full spike buffer."""

    def __init__(self, kernel: Kernel, block: _NeuronBlock, synapses: _SynapseStates, drive, island_of,
                 n_steps: int, v_m, traces: _Traces | None):
        n = len(v_m)
        self.drive, self.dt, self.n_steps, self._run = drive, block.dt, n_steps, kernel._run
        self.synapses = SynapseLayer(kernel, synapses)
        self.c = (_Consts * n)(*[_Consts(*c) for c in block.consts])
        self.island_of = np.ascontiguousarray(island_of, dtype=np.int64)
        self.floor = np.array(synapses.floor_input, dtype=np.float64)
        self.v_m, self.v_n = np.array(v_m, dtype=np.float64), np.zeros(n)
        self.spiking, self.onsets = np.empty(n, dtype=np.int64), np.empty(n)
        self.buffer, self.save = np.empty((SPIKE_BUFFER * n, 2), dtype=np.int64), np.empty(2 * n)
        # What the C code indexes without a check.
        if len(self.island_of) != n or n and not 0 <= self.island_of.min() <= self.island_of.max() < drive.n_islands:
            raise ValueError("island_of must give each neuron an island of the drive")
        if not (synapses.n_neurons == n and self.floor.shape == (n,)):
            raise ValueError("the synapse block must give each neuron a floor input and an input current")
        if traces is not None and not (traces.v.dtype == np.float64 and traces.v.flags.c_contiguous
                                       and traces.v.shape == (n_steps // traces.decim + 1, len(traces.ids))
                                       and 0 <= min(traces.ids) <= max(traces.ids) < n):
            raise ValueError("traces must hold a row per sample of the run's steps and a column per traced neuron")
        ids = [] if traces is None else traces.ids
        self.trace, self.trace_col = None if traces is None else traces.v, np.full(n, -1, dtype=np.int64)
        self.trace_col[ids] = np.arange(len(ids))
        self._b = _Block(n=n, hold=drive.hold, room=len(self.buffer), stop=block.stop.min(), n_trace=len(ids),
                         decim=1 if traces is None else traces.decim,
                         **{name: _address(getattr(self, name)) for name in _POINTERS if name != "held"})
        self.fired = []

    @property
    def quiet_steps(self) -> int:
        return self._b.quiet_steps

    def run(self, k: int) -> int:
        b = self._b
        # Not kept past the call: the drive frees a block when it holds the next.
        held, b.first = self.drive.held_at(k)
        b.held, b.width = held.ctypes.data, held.shape[1]
        fault = self._run(b, self.synapses.s, k, min(self.n_steps, (b.first + b.width) * b.hold))
        if b.n_fired:
            fired = self.buffer[:b.n_fired].T.copy()
            self.fired.append((fired[0], fired[1]))
        if fault:
            j, k = -1 - fault, b.k
            island = int(self.island_of[j])
            raise SimulationError(j, island, k, (k + 1) * self.dt,
                                  _phase_at_fault(held[island, k // b.hold - b.first], self.synapses.input[j]))
        return b.k


class SynapseLayer:
    """``engine._SynapseStates`` in ``si_synapses`` (``s``), with its
    counters and its bits: the struct is bound once per run to the arrays
    of the block it is made from (the outputs, the pulse tables, ``until``,
    the constants), with the rising relation of each output's constant c,
    the outputs of each neuron, the input current and room for a pulse
    start.  ``si_run`` takes its steps and starts its pulses in place."""

    def __init__(self, kernel: Kernel, states: _SynapseStates):
        n, n_neurons, cols = len(states.pre), states.n_neurons, states.ahead.shape[1]
        self.consts, self.ends, self.ahead = states.consts, states.ends, states.ahead
        self.post, self.state_of, self.signw = states.post, states.state_of, states.signw
        self.i, self.until = states.i, states.until
        self.tab_i, self.tab_q, self.tab_on = states.tab_i, states.tab_q, states.tab_on
        c = self.consts[4].tolist()
        row = {value: j for j, value in enumerate(dict.fromkeys(c))}  # a relation per distinct c
        self.rel_of = np.array([row[value] for value in c], dtype=np.int64)
        tables = [_rising_relation(value) for value in row] or [_rising_relation(1.0)]
        self.rel, self.psi = np.array([rel for rel, _ in tables]), tables[0][1]
        self.pre_out = np.concatenate([*states.of_pre, _NO_SPIKES])
        self.pre_start = np.cumsum([0, *map(len, states.of_pre)])
        self.i_start, self.on, self.input = self.i.copy(), np.zeros(n), np.zeros(n_neurons)
        self.hit, self.m = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        self.theta, self.x, self.first_off = np.empty(n), np.empty(n), np.empty(n)
        self.h, self.i_tab, self.q_tab = (np.empty((n, cols + 1)) for _ in range(3))
        # What the C code indexes without a check, and the order np.interp
        # relies on in the relation of every c > 0 (a <= 0 never rises).
        rising = np.array([value > 0.0 for value in row], dtype=bool)
        if not (all(a.dtype == np.int64 for a in (self.pre_start, self.pre_out, self.ahead, self.post, self.state_of,
                                                  self.until))
                and self.consts.shape == (7, n) and len(self.ends) == cols + 1 and self.psi.size > 4
                and (np.diff(self.rel[rising], axis=1) > 0.0).all() and len(self.pre_start) == n_neurons + 1
                and (self.post < n_neurons).all() and (self.state_of < n).all()
                and self.ahead.shape == (states.ring, cols) and states.ring == cols + 1
                and all(a.flags.c_contiguous for a in (self.consts, self.ahead, self.tab_i, self.tab_q,
                                                       self.tab_on, self.i))):
            raise ValueError("the synapse block does not have the layout the compiled code indexes")
        self.s = _Synapses(n_out=n, n_syn=len(self.post), n_neurons=n_neurons, n_grid=self.psi.size,
                           ring=states.ring, cols=cols, busy_until=states.busy_until, at_floor=states.at_floor,
                           pulse_steps=states.pulse_steps, rising_solves=states.rising_solves, dt=states.dt,
                           **{name: _address(getattr(self, name)) for name in _SYNAPSE_POINTERS})

    @property
    def pulse_steps(self) -> int:
        return self.s.pulse_steps

    @property
    def rising_solves(self) -> int:
        return self.s.rising_solves

    def idle_at_floor(self, k: int) -> bool:
        return bool(self.s.at_floor) and k >= self.s.busy_until


class Kernel:
    """The loaded library; ``command`` is the compiler command that built it
    and ``built`` whether this process ran it."""

    def __init__(self, lib: ctypes.CDLL, path: Path, command: list[str], built: bool):
        self.path, self.command, self.built = path, command, built
        self._advance = lib.si_advance
        self._advance.restype = ctypes.c_int
        self._advance.argtypes = [_double_p, _double_p, ctypes.c_double, ctypes.c_double,
                                  ctypes.POINTER(_Consts), _double_p]
        self._run = lib.si_run
        self._run.restype = ctypes.c_int64
        self._run.argtypes = [ctypes.POINTER(_Block), ctypes.POINTER(_Synapses), ctypes.c_int64, ctypes.c_int64]
        # The compiled counterpart of engine._NeuronLayer, made with the same arguments.
        self.neuron_layer = functools.partial(NeuronLayer, self)

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


class _CheckDrive:
    """``engine._Drive`` over fixed samples, a row per island, each read by
    one step, held as one block."""

    hold = 1

    def __init__(self, rows: np.ndarray):
        self.rows, self.n_islands = np.ascontiguousarray(rows, dtype=np.float64), len(rows)

    def held_at(self, k: int) -> tuple[np.ndarray, int]:
        return self.rows, 0


# The step of the checks' networks.
CHECK_DT = 1e-8


def floor_block(n: int, floor, dt: float = CHECK_DT) -> _SynapseStates:
    """A synapse block of n neurons without outputs, at the floor input
    ``floor`` (a current per neuron, or one for all)."""
    states = _SynapseStates([], n, dt, [], [], [])
    states.floor_input = np.broadcast_to(np.asarray(floor, dtype=np.float64), (n,)).copy()
    return states


def check_synapses() -> _SynapseStates:
    """A fresh synapse block of ``check_busy_network()``: four outputs,
    neuron 0 driving output 0 (a pulse of 2.5 steps, the last of an earlier
    one in flight over the first 0.6 of step 0), neuron 1 outputs 1 (the
    same, from far above its fixed point, so that it falls) and 2 (a pulse
    of half a step, whose drive is below i_tau, from just above its floor)
    and neuron 3 output 3 (from far above its floor).  Their time constant
    is a tenth of fast-dpi's, so that they fall to their floor within a few
    steps of a pulse, but for output 3's, three tenths: it is the last to
    reach its floor, in the step before the idle ones."""
    fast = synapse_preset("fast-dpi")
    sp = replace(fast, c_s=0.1 * fast.c_s, pulse_width=2.5 * CHECK_DT)
    low = replace(sp, i_pulse=0.4 * sp.i_tau, pulse_width=0.5 * CHECK_DT)
    slow = replace(sp, c_s=0.3 * fast.c_s)
    states = _SynapseStates([(0, sp), (1, sp), (1, low), (3, slow)], 4, CHECK_DT, [1, 0, 2, 1, 2, 2],
                            [1.0, -1.0, 2.0, 1.0, 3.0, 1.0], [0, 1, 2, 1, 0, 3])
    states.i[1:] = 20e-6, 1.2 * low.i_floor, 1e-6
    states.tab_i[0, 0], states.tab_q[0, 0], states.tab_on[0, 0] = 1e-6, 5e-15, 0.6 * CHECK_DT
    states.until[0], states.busy_until, states.at_floor = 0, 1, False
    return states


def check_busy_network() -> tuple:
    """The four-neuron network of the check, as ``check_networks()`` gives
    it: on two islands, under 31 steps of drive (a row per island), with
    the synapses of ``check_synapses()`` and traces of neurons 3, 0 and 2.
    Its neurons are fast-mode, with a gate time constant of a fifth of
    fast-mode's so that their gates close within 20 steps of a spike, but
    for neuron 3, whose v_th lies above the detection level.  Neurons 0 and
    1 spike in step 0, inside the pulse in flight, and neuron 1's short
    pulse ends inside that step; neuron 2 spikes in a busy step; the
    outputs reach their floor.  Once every gate has closed, a quiet
    stretch ends where neuron 3 alone reaches the lower v_th of the other
    neurons, below its own, so that the neurons before it are taken back
    to that step; neuron 3 then spikes in an idle step, early enough that
    its output, taken to the onset from the step's start, is not yet at
    the floor from a start read before the idle steps."""
    p = replace(neuron_preset("fast-mode"), tau_n=100e-9)
    t = np.arange(31)
    rows = np.array([3e-6 + 1e-6 * np.sin(t * 0.3), 5e-6 + 0.5e-6 * np.cos(t * 0.2)])
    return ([p, p, p, replace(p, v_th=1.2, v_gate_th=0.75)], np.array([0, 1, 1, 0], dtype=np.int32), rows,
            np.array([0.97, 0.98, 0.5, -0.1]), check_synapses, [3, 0, 2])


def check_networks() -> tuple:
    """The networks of the check, each ``(params, island_of, drive, v_m,
    synapses, trace_ids)`` with ``synapses`` making its synapse block, and
    the trace decimation it runs at (None: untraced):
    ``check_busy_network()`` every 2 steps, and one fast-mode neuron from
    rest without synapse outputs, under 30 steps that fire it once after a
    quiet stretch, untraced."""
    p = neuron_preset("fast-mode")
    one = ([p], np.zeros(1, dtype=np.int32), 1.5e-6 + 4e-6 * np.sin(np.arange(30)[None] * 0.05), np.array([p.v_rest]),
           lambda: floor_block(1, 0.0), [0])
    return (check_busy_network(), 2), (one, None)


def network_outcome(layer, network: tuple, decim: int | None) -> tuple:
    """The spike steps, quiet steps, end state and trace rows (every
    ``decim`` steps, or none) of a network of ``check_networks()`` on the
    neuron layer ``layer`` (``engine._NeuronLayer`` or a ``Kernel``'s
    ``neuron_layer``), with its synapses' state, pulse tables and
    counters."""
    params, island_of, rows, v_m, synapses, trace_ids = network
    n_steps = rows.shape[1]
    traces = None if decim is None else _Traces(trace_ids, n_steps, decim, CHECK_DT, v_m)
    neurons = layer(_NeuronBlock(params, CHECK_DT), synapses(), _CheckDrive(rows), island_of, n_steps, v_m, traces)
    spikes = [s.tolist() for s in _step_network(neurons, n_steps)]
    s = neurons.synapses
    return (spikes, neurons.quiet_steps, neurons.v_m.tobytes(), neurons.v_n.tobytes(),
            None if traces is None else traces.v.tobytes(),
            b"".join(a.tobytes() for a in (s.i, s.tab_i, s.tab_q, s.tab_on, s.until)), s.pulse_steps,
            s.rising_solves)


def _matches_python(kernel: Kernel) -> bool:
    """The compiled neuron layer gives the bits of the Python code on every
    network of ``check_networks()`` (``network_outcome``), in each of which
    the Python code takes quiet steps and every neuron spikes."""
    for network, decim in check_networks():
        expected = network_outcome(_NeuronLayer, network, decim)
        if not (all(expected[0]) and expected[1]) or network_outcome(kernel.neuron_layer, network,
                                                                     decim) != expected:
            return False
    return True


@functools.cache
def load() -> Kernel | None:
    """The compiled neuron and synapse updates, built and checked once per
    process, or None when the Python code must run (see the module
    docstring)."""
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
