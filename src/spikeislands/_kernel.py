"""The compiled neuron updates: ``_scalar.c``, built on first use.

``load()`` gives the library compiled from the C file shipped next to this
module, or None, and is called by the first run of a process (see
``engine._simulate``); importing the package builds and loads nothing.  It
runs the neuron layer of every network, ``engine._NeuronLayer``
(``neuron_layer``), one neuron without synapses included, with
``engine._general_step`` in C on each neuron's ``_step_consts``: one call
per busy step and one loop in C, ``si_run``, over the idle steps.
The library is compiled once per user, source, compiler command and flags,
with the C compiler Python was built with (``sysconfig``'s ``CC``, else
``cc``), into ``$XDG_CACHE_HOME/spikeislands/`` or
``~/.cache/spikeislands/`` (mode 0700).  It is written under a temporary
name and renamed into place, so processes that build it at once each load
a whole file; deleting the cache is safe, the next run builds it again.

Before it is used, the loaded library must give the bits of the Python
code it replaces on short fixed inputs: the neuron layer's spikes, pulse
starts, quiet steps, end state and trace rows on a small network of two
presets and on one neuron without synapses.  Without a compiler, when the
cache cannot be written, when compiling or loading fails or when that
check differs, ``load()`` returns None and the Python code runs: it is
the reference the compiled code reproduces.
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

from .engine import (_NO_ONSETS, _NO_SPIKES, SimulationError, _NeuronBlock, _NeuronLayer, _phase_at_fault,
                     _step_consts, _step_network, _Traces)
from .presets import neuron_preset

SOURCE = Path(__file__).with_name("_scalar.c")
# -ffp-contract=off: a fused multiply-add rounds once where the Python loop
# rounds twice (the default of some compilers on aarch64).
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)
COMPILE_TIMEOUT_S = 120

_double_p = ctypes.POINTER(ctypes.c_double)
# The pointer fields of ``si_block``, in its order.
_POINTERS = ("c", "island_of", "noise", "i_syn", "held", "floor", "v_m", "v_n", "spiking", "onsets", "drives",
             "buffer", "save", "trace", "trace_col")


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
    ``NeuronLayer`` and the held noise block, their sizes, the counts of an
    idle run and the quiet level."""

    _fields_ = [(name, ctypes.c_void_p) for name in _POINTERS] + [(name, ctypes.c_int64) for name in (
        "n", "width", "first", "hold", "room", "n_fired", "k", "quiet_steps", "n_trace", "decim")] + [
        ("stop", ctypes.c_double)]


# Spikes per neuron that an idle run of the compiled layer buffers before it
# returns to Python.
SPIKE_BUFFER = 256


class NeuronLayer:
    """``engine._NeuronLayer`` run by ``si_block_step`` and ``si_run``,
    with its methods and its bits.  The state, the inputs of a step, its
    spikes and the spike buffer of an idle run are arrays bound to one
    ``si_block`` when the layer is made and updated in place.  A busy step
    copies the step's noise samples and synaptic input into them and makes
    one call, which also tests the state and samples the trace.  An idle
    run makes one call, which reads the noise from the drive's held block
    (``_Drive.held_at``), up to the end of that block, a full spike buffer
    or a step that starts pulses."""

    def __init__(self, kernel: Kernel, block: _NeuronBlock, synapses, drive, island_of, n_steps: int, v_m,
                 traces: _Traces | None):
        n = len(v_m)
        self.drive, self.dt, self.n_steps = drive, block.dt, n_steps
        self._block_step, self._run = kernel._block_step, kernel._run
        self.c = (_Consts * n)(*[_Consts(*c) for c in block.consts])
        self.island_of = np.ascontiguousarray(island_of, dtype=np.int64)
        self.noise, self.i_syn = np.empty(drive.n_islands), np.empty(n)
        self.floor = np.array(synapses.floor_input, dtype=np.float64)
        self.v_m, self.v_n = np.array(v_m, dtype=np.float64), np.zeros(n)
        self.spiking, self.onsets = np.empty(n, dtype=np.int64), np.empty(n)
        self.drives = (np.bincount(synapses.pre, minlength=n) > 0).astype(np.uint8)
        self.buffer, self.save = np.empty((SPIKE_BUFFER * n, 2), dtype=np.int64), np.empty(2 * n)
        # What the C code indexes without a check.
        if len(self.island_of) != n or n and not 0 <= self.island_of.min() <= self.island_of.max() < len(self.noise):
            raise ValueError("island_of must give each neuron an island of the drive")
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

    def run(self, k: int):
        b = self._b
        # Not kept past the call: the drive frees a block when it holds the next.
        held, b.first = self.drive.held_at(k)
        b.held, b.width = held.ctypes.data, held.shape[1]
        n = self._run(b, k, min(self.n_steps, (b.first + b.width) * b.hold))
        if b.n_fired:
            fired = self.buffer[:b.n_fired].T.copy()
            self.fired.append((fired[0], fired[1]))
        k = b.k
        if n < 0:
            self._fail(k, -1 - n, self.drive.at(k), self.floor)
        if n == 0:
            return k, _NO_SPIKES, _NO_ONSETS
        return k, self.spiking[:n].copy(), self.onsets[:n].copy()

    def step(self, k: int, i_syn):
        self.noise[...] = self.drive.at(k)
        self.i_syn[...] = i_syn
        n = self._block_step(self._b, k)
        if n == 0:
            return _NO_SPIKES, _NO_ONSETS
        if n < 0:
            self._fail(k, -1 - n, self.noise, self.i_syn)
        spiking = self.spiking[:n].copy()
        self.fired.append((np.full(n, k + 1), spiking))
        return spiking, self.onsets[:n].copy()

    def _fail(self, k: int, b: int, noise, i_syn):
        island = int(self.island_of[b])
        raise SimulationError(b, island, k, (k + 1) * self.dt, _phase_at_fault(noise[island], i_syn[b]))


class Kernel:
    """The loaded library; ``command`` is the compiler command that built it
    and ``built`` whether this process ran it."""

    def __init__(self, lib: ctypes.CDLL, path: Path, command: list[str], built: bool):
        self.path, self.command, self.built = path, command, built
        self._advance = lib.si_advance
        self._advance.restype = ctypes.c_int
        self._advance.argtypes = [_double_p, _double_p, ctypes.c_double, ctypes.c_double,
                                  ctypes.POINTER(_Consts), _double_p]
        self._block_step = lib.si_block_step
        self._block_step.restype = ctypes.c_int64
        self._block_step.argtypes = [ctypes.POINTER(_Block), ctypes.c_int64]
        self._run = lib.si_run
        self._run.restype = ctypes.c_int64
        self._run.argtypes = [ctypes.POINTER(_Block), ctypes.c_int64, ctypes.c_int64]
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
    one step."""

    hold = 1

    def __init__(self, rows: np.ndarray):
        self.rows, self.n_islands = np.ascontiguousarray(rows, dtype=np.float64), len(rows)

    def at(self, k: int) -> np.ndarray:
        return self.rows[:, k]

    def steps(self, start: int, end: int) -> np.ndarray:
        return self.rows[:, start:end]

    def held_at(self, k: int) -> tuple[np.ndarray, int]:
        return self.rows, 0


class _CheckSynapses:
    """A synapse block idle on every step at the floor input ``floor`` (a
    current per neuron, zero by default), whose outputs are driven by the
    neurons ``pre``.  Keeps the step, the neurons and the onsets of each
    start of pulses."""

    def __init__(self, n: int, pre, floor=0.0):
        self.floor_input, self.pre, self.pulses = np.full(n, floor), np.asarray(pre, dtype=np.int64), []

    def idle_at_floor(self, k: int) -> bool:
        return True

    def step(self, k: int) -> np.ndarray:
        return self.floor_input

    def start_pulses(self, k: int, spiking, onsets) -> None:
        self.pulses.append((k, spiking.tolist(), onsets.tobytes()))


def check_networks() -> tuple:
    """The networks of the check, each ``(params, island_of, drive, v_m,
    pre, trace_ids)``: four neurons of two presets (v_th below and above
    the detection level) on two islands from below v_th, neurons 0 and 3
    driving synapse outputs, traced at neurons 3, 0 and 2, under 50 steps
    of drive (a row per island) in which a few quiet steps come before
    every neuron fires; and one fast-mode neuron without synapses from
    rest, under 30 steps that fire it once after a quiet stretch."""
    p = neuron_preset("fast-mode")
    t = np.arange(50)
    four = np.array([3e-6 + 1e-6 * np.sin(t * 0.3), 2.5e-6 + 1.5e-6 * np.cos(t * 0.2)])
    return ((([p, replace(p, v_th=1.2, v_gate_th=0.75)] * 2, np.array([0, 0, 1, 1], dtype=np.int32), four,
              np.array([0.4, 0.6, 0.3, 0.5]), [0, 3], [3, 0, 2]),
             ([p], np.zeros(1, dtype=np.int32), 1.5e-6 + 4e-6 * np.sin(t[None, :30] * 0.05), np.array([p.v_rest]),
              [], [0])))


def network_outcome(layer, network: tuple, decim: int | None) -> tuple:
    """The spike steps, pulse starts, quiet steps, end state and trace rows
    (every ``decim`` steps, or none) of a network of ``check_networks()``,
    with a floor input of 0.2 uA times each neuron's index, on the neuron
    layer ``layer`` (``engine._NeuronLayer`` or a ``Kernel``'s
    ``neuron_layer``)."""
    params, island_of, rows, v_m, pre, trace_ids = network
    dt, n_steps = 1e-8, rows.shape[1]
    synapses = _CheckSynapses(len(params), pre, np.arange(len(params)) * 2e-7)
    traces = None if decim is None else _Traces(trace_ids, n_steps, decim, dt, v_m)
    neurons = layer(_NeuronBlock(params, dt), synapses, _CheckDrive(rows), island_of, n_steps, v_m, traces)
    spikes = [s.tolist() for s in _step_network(neurons, synapses, n_steps)]
    return (spikes, synapses.pulses, neurons.quiet_steps, neurons.v_m.tobytes(), neurons.v_n.tobytes(),
            None if traces is None else traces.v.tobytes())


def _matches_python(kernel: Kernel) -> bool:
    """The compiled code gives the bits of the Python code: the neuron
    layer's ``network_outcome`` on the four-neuron network traced every 3
    steps, and on the single neuron untraced and traced every 7 steps."""
    four, one = check_networks()
    for network, decim in ((four, 3), (one, None), (one, 7)):
        expected = network_outcome(_NeuronLayer, network, decim)
        if not (all(expected[0]) and expected[2]) or network_outcome(kernel.neuron_layer, network,
                                                                     decim) != expected:
            return False
    return True


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
