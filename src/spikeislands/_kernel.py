"""The compiled single-neuron loop: ``_scalar.c``, built on first use.

``load()`` gives the loop of ``engine._ScalarNeuron`` compiled from the C
file shipped next to this module, or None, and is called by the first run
of one neuron without synapses in a process; importing the package builds
and loads nothing.  The library is compiled once per user, source and
compiler command, with the C compiler Python was built with
(``sysconfig``'s ``CC``, else ``cc``), into ``$XDG_CACHE_HOME/spikeislands/``
or ``~/.cache/spikeislands/`` (mode 0700).  It is written under a temporary
name and renamed into place, so processes that build it at once each load
a whole file; deleting the cache is safe, the next run builds it again.

Before it is used, the loaded loop must give the Python loop's spike steps,
end state and trace rows, bit for bit, on a short drive that fires the
neuron.  Without a compiler, when the cache cannot be written, when
compiling or loading fails or when that check differs, ``load()`` returns
None and the Python loop runs: it is the reference the compiled loop
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
from pathlib import Path

import numpy as np

from .engine import _ScalarNeuron, _Traces
from .neuron import DETECT_THRESHOLD_V, MAX_SWITCHES_PER_STEP
from .presets import neuron_preset

SOURCE = Path(__file__).with_name("_scalar.c")
# -ffp-contract=off: a fused multiply-add rounds once where the Python loop
# rounds twice (the default of some compilers on aarch64).
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
COMPILE_TIMEOUT_S = 120

_double_p = ctypes.POINTER(ctypes.c_double)


class _Consts(ctypes.Structure):
    """``si_consts`` of ``_scalar.c``."""

    _fields_ = [(name, ctypes.c_double) for name in (
        "v_th", "v_gate", "c_m", "tau_n", "i_na_max", "i_sink", "v_n_inf", "lo", "hi",
        "v_detect", "dt", "k_dt", "decay")] + [("max_switches", ctypes.c_int64)]


def _consts(params, dt: float, k_dt: float = 0.0, decay: float = 0.0) -> _Consts:
    return _Consts(*params.advance_consts, DETECT_THRESHOLD_V, dt, k_dt, decay, MAX_SWITCHES_PER_STEP)


class ScalarKernel:
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

    def stepper(self, neuron):
        """A function ``(drive, k, v_m, v_n) -> (v_m, v_n)`` that does what
        ``neuron.take`` does (an ``engine._ScalarNeuron``: its spikes and
        trace samples included), with the drive a float64 array."""
        consts = _consts(neuron.params, neuron.dt, neuron.k_dt, neuron.decay)
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
        hit = self._advance(vm, vn, i_in, dt, _consts(params, dt), onset)
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
    key.update("\0".join([*command, sysconfig.get_platform()]).encode())
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
        proc = subprocess.run([*cc, *FLAGS, "-o", tmp, str(SOURCE), "-lm"], stdin=subprocess.DEVNULL,
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


def _matches_python(kernel: ScalarKernel) -> bool:
    """The compiled loop gives the Python loop's spike steps, end state and
    trace rows on ``check_drive()``, untraced and traced."""
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
    return True


@functools.cache
def load() -> ScalarKernel | None:
    """The compiled single-neuron loop, built and checked once per process,
    or None when the Python loop must run (see the module docstring)."""
    cc = compiler()
    cache = cache_dir()
    if cc is None or not _private_dir(cache):
        return None
    try:
        path = _library_path(cache, cc)
        built = not path.exists()
        if built and not _build(cc, path):
            return None
        kernel = ScalarKernel(ctypes.CDLL(str(path)), path, [*cc, *FLAGS], built)
    except (OSError, AttributeError):
        return None
    return kernel if _matches_python(kernel) else None
