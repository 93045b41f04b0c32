"""Deterministic fixed-step transient simulation of island networks.

Update order within one step (t -> t + dt), fixed and part of the output
contract since it affects exact trajectories:

1. the per-island noise sample for this step is read (one shared sample
   per island, added to every neuron of that island).  Each island's
   stream is read forward a chunk at a time (``_Drive``), so a step's
   sample does not depend on how long the run is;
2. all synapses advance over the step by the exact DPI flow map, driven by
   the rectangular pulses of earlier spikes, each starting at its spike's
   exact onset.  Each pulse was solved once, at its onset, for every step
   it covers (see step 5): a synapse whose pulse is in flight reads its
   state at the end of the pulse's part of the step and the charge over
   that part from its pulse's table, and the exact decay covers the rest of
   the step; the charge each synapse delivers over the step is kept;
3. per-neuron input currents are summed: noise + excitatory - inhibitory,
   each synapse contributing its mean current over the step (charge / dt);
4. all neurons advance one step by the exact update of ``neuron.advance``:
   each switch flips at the instant its threshold is crossed;
5. spike onsets (rising crossings of 1 V) are located within the step and
   reported at the grid stamp (k+1)*dt.  The presynaptic pulse starts at
   the exact onset: the synapses it drives are taken from the start of
   the step to the onset, and the driven flow is solved from there to
   every step end the pulse covers and to its end, in one call for all
   the pulses that start in the step.  The part inside this step is
   applied to the synapse state at the end of the step, and the membrane
   sees the pulse from the next step on.

Idle runs and quiet stretches.  A step is idle when no pulse is in flight
over it and every synapse output sits at its floor, so that the synapses
deliver their constant floor charge.  The neurons take idle steps in a run
of their own (``_NeuronLayer.run``), up to the first step in which a
neuron with synapse outputs spikes.  An idle step is quiet when, at its
start, no neuron has a switch on (v_m <= v_th and v_n <= v_gate_th
everywhere): each neuron only integrates its input and lets its gate
voltage decay, and no spike can start.  A stretch of quiet steps takes an
add, the lower clamp, the gate decay and a crossing check per step
(``_QuietStretch``), with the general step's expressions in its order, so
the result is bit-identical to taking every step in full.  The first step
in which a membrane would not stay below the network's lowest v_th and the
detection level goes to the general step from its saved state; so does a
NaN or +inf increment, which the general step reports.  A -inf increment
takes the membrane to its lower clamp, as the general step does.  A
network without synapses has an empty synapse block, always idle.

Every path steps a neuron with one general step in plain floats,
``_general_step`` (the switch test, the update of a step in which no
switch flips, the 1 V test and the clamp, or ``neuron.advance`` when a
switch flips), and one set of constants per neuron, ``_step_consts``.  A
network steps its neurons through ``_NeuronLayer``: ``_NeuronBlock``
gives a step's quiet neurons the quiet update in one vector expression
and the others the general step; the synapse block stays in numpy.  The
neuron layer runs compiled from ``_scalar.c`` when a C compiler is found
(``_kernel``), one neuron without synapses as a one-neuron network: the
first run of a process builds the library into a per-user cache,
``$XDG_CACHE_HOME/spikeislands/`` or ``~/.cache/spikeislands/``, which is
safe to delete, and checks it against the Python code.  The compiled code
gives the Python code's bits; without a compiler, or when building,
loading or that check fails, the Python code runs, and one neuron without
synapses takes a scalar loop of its own (``_ScalarNeuron``).

The output is fully determined by (network, sim) including the master seed:
per-island noise streams are derived by stable 64-bit mixing of the master
seed with the island's declared (seed, stream_id), so no thread count or
scheduling can change the result.

Numerical notes.  Within a step every input is constant, and both the
neuron and the synapse are integrated exactly under constant input: the
membrane is piecewise linear, the gate voltage and an undriven synapse
relax exponentially (the synapse down to its floor), and a driven synapse
follows the closed-form DPI flow (see ``synapse.dpi_flow``).  No state
therefore depends on dt beyond rounding, except through the inputs: the
noise waveform, defined on its own grid (``noise_dt``, default dt), and the
synaptic current, which the membrane takes as its mean over the step.
Integrating with a smaller dt and the noise held on the coarse grid
reproduces every spike onset to well under a step, and reported spike
times move by at most the difference of the two grids' stamps.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .configio import serialize_config
from .neuron import DETECT_THRESHOLD_V, MAX_SWITCHES_PER_STEP, advance, check_dt
from .noise import NOISE_CHUNK, NoiseSpec, NoiseStream, check_grid
from .presets import neuron_preset, synapse_preset
from .synapse import FLOOR_RATIO, dpi_decay, dpi_flow, dpi_rise, time_constant
from .topology import NetworkSpec

__all__ = [
    "SimConfig",
    "SpikeRecord",
    "SimulationError",
    "run",
    "run_single_neuron",
    "check_sim",
    "DETECT_THRESHOLD_V",
    "derive_seed",
]

# Steps whose membrane increments a quiet stretch computes in one batch;
# bounds the batch at QUIET_CHUNK x n_neurons doubles.
QUIET_CHUNK = 256

# Steps of drive the Python single-neuron loop takes at a time, as Python
# floats.
DRIVE_CHUNK = 1 << 14

_NO_SPIKES, _NO_ONSETS = np.empty(0, dtype=np.int64), np.empty(0)


class SimulationError(RuntimeError):
    """Numerical blow-up during a run: the first neuron (global id) whose
    state is not finite, its island, the step that made it so (0-based;
    the state is that at its end, ``t = (step + 1) * dt``) and the phase of
    that step at fault: ``"noise"`` or ``"synapse step"`` when that input of
    the neuron was not finite (the first in update order), else
    ``"neuron block"``."""

    def __init__(self, neuron: int, island: int, step: int, t: float, phase: str):
        self.neuron = neuron
        self.island = island
        self.step = step
        self.t = t
        self.phase = phase
        super().__init__(f"non-finite state at neuron {neuron} (island {island}) after step {step}, "
                         f"t={t:.9g} s, phase: {phase}")


def _phase_at_fault(i_noise: float, i_syn: float) -> str:
    """``SimulationError.phase`` of a neuron that a step left non-finite,
    from its noise and synaptic inputs over the step."""
    if not math.isfinite(i_noise):
        return "noise"
    if not math.isfinite(i_syn):
        return "synapse step"
    return "neuron block"


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_seed(master_seed: int, *indices: int) -> int:
    """Stable 64-bit mix of a master seed with run/stream indices."""
    acc = _splitmix64(master_seed & 0xFFFFFFFFFFFFFFFF)
    for ix in indices:
        acc = _splitmix64(acc ^ (ix & 0xFFFFFFFFFFFFFFFF))
    return acc


@dataclass(frozen=True)
class SimConfig:
    """Run parameters.

    ``record_traces`` selects membrane traces: None, "all", or a sequence of
    global neuron ids; traces are decimated by ``trace_decimation``.
    ``noise_dt`` fixes the noise sample grid independently of the
    integration step (must be an integer multiple of dt); leave None to
    sample noise at every step.
    """

    duration: float
    dt: float = 1e-8
    master_seed: int = 0
    record_traces: object = None
    trace_decimation: int = 10
    noise_dt: float | None = None

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not (math.isfinite(self.duration) and self.duration >= 10.0 * self.dt):
            raise ValueError("duration must be finite and at least 10 * dt")
        for name in ("master_seed", "trace_decimation"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trace_decimation < 1:
            raise ValueError("trace_decimation must be >= 1")
        if self.noise_dt is not None:
            hold = self.noise_dt / self.dt
            if not math.isfinite(hold) or abs(hold - round(hold)) > 1e-9 or round(hold) < 1:
                raise ValueError("noise_dt must be a positive integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    @property
    def hold(self) -> int:
        return 1 if self.noise_dt is None else int(round(self.noise_dt / self.dt))


@dataclass
class SpikeRecord:
    """Result of one run: per-neuron spike times plus optional traces.

    ``times[i]`` is a strictly increasing float array of spike times
    (seconds) of global neuron i; ``island_of[i]`` is its island index.
    ``traces`` is None or ``(t, {neuron_id: v})`` with decimated samples.
    ``stats`` holds deterministic counters of the run: ``steps`` taken
    (``sim.n_steps``), ``quiet_steps`` of them taken as a quiet stretch
    (see the module docstring; the Python loop of one neuron without
    synapses counts the same steps), ``pulse_steps`` with a synaptic pulse
    in flight, ``rising_solves``, the number of times the pulse-driven DPI
    flow was solved (one call over an array of outputs counts once; both
    are 0 without synapses), and ``spikes_per_island``.  They are kept out of
    ``meta``, so they never reach ``meta.json`` or a manifest.
    """

    times: list
    island_of: np.ndarray
    dt: float
    duration: float
    meta: dict
    traces: tuple | None = None
    stats: dict = field(default_factory=dict)

    @property
    def n_neurons(self) -> int:
        return len(self.times)

    def total_spikes(self) -> int:
        return int(sum(len(t) for t in self.times))


def _effective_noise(spec: NoiseSpec, master_seed: int, island_index: int) -> NoiseSpec:
    return replace(
        spec,
        seed=derive_seed(master_seed, spec.seed),
        stream_id=derive_seed(island_index, spec.stream_id),
    )


class _Drive:
    """Each island's noise on the step grid, read forward.

    Holds every island's samples (a row each) from the first one a read may
    still need, and draws NOISE_CHUNK more of each stream
    (``noise.NoiseStream``) when a read runs past them; a run so holds about
    ``n_islands x NOISE_CHUNK`` doubles whatever its length.  The steps of
    a run read their samples in order, none before the last one read.
    """

    def __init__(self, specs, sim: SimConfig):
        noise_dt = sim.dt * sim.hold
        self.streams = [NoiseStream(_effective_noise(spec, sim.master_seed, i), noise_dt)
                        for i, spec in enumerate(specs)]
        self.n_islands, self.hold = len(self.streams), sim.hold
        self.first = 0  # noise sample in column 0 of self.held
        self.held = np.empty((len(self.streams), 0))

    def _hold(self, lo: int, hi: int) -> None:
        """Hold noise samples lo .. hi-1."""
        end = self.first + self.held.shape[1]
        if hi <= end:
            return
        keep = self.held[:, min(lo, end) - self.first:].copy()
        self.held = None  # not held next to its successor
        n_new = max(NOISE_CHUNK, hi - end)
        held = np.empty((len(self.streams), keep.shape[1] + n_new))
        held[:, :keep.shape[1]] = keep
        for row, stream in zip(held, self.streams):
            row[keep.shape[1]:] = stream.read(n_new)
        self.first, self.held = end - keep.shape[1], held

    def at(self, k: int) -> np.ndarray:
        """The per-island samples step k reads."""
        j = k // self.hold
        self._hold(j, j + 1)
        return self.held[:, j - self.first]

    def steps(self, start: int, end: int) -> np.ndarray:
        """The per-island samples (last axis) that steps start .. end-1 read."""
        lo, hi = start // self.hold, (end - 1) // self.hold + 1
        self._hold(lo, hi)
        if self.hold == 1:
            return self.held[:, lo - self.first:hi - self.first]
        return self.held[:, np.arange(start, end) // self.hold - self.first]

    def held_at(self, k: int) -> tuple[np.ndarray, int]:
        """The held samples from step k's on, a row per island, and the
        sample in their column 0, ``first``: step j reads ``j // hold - first``."""
        self._hold(k // self.hold, k // self.hold + 1)
        return self.held, self.first


def _meta(config_hash: str, sim: SimConfig, n_neurons: int, n_synapses: int) -> dict:
    """The ``SpikeRecord.meta`` of a run."""
    return {
        "tool": "spikeislands",
        "version": __version__,
        "config_hash": config_hash,
        "master_seed": sim.master_seed,
        "dt": sim.dt,
        "noise_dt": sim.noise_dt if sim.noise_dt is not None else sim.dt,
        "duration": sim.duration,
        "n_neurons": n_neurons,
        "n_synapses": n_synapses,
    }


def _trace_selector(sel, n: int) -> list[int]:
    if sel is None:
        return []
    if isinstance(sel, str):
        if sel != "all":
            raise ValueError("record_traces must be None, 'all', or a sequence of ids")
        return list(range(n))
    ids = []
    for i in sel:
        if isinstance(i, bool) or not isinstance(i, numbers.Integral):
            raise ValueError(f"trace selector id {i!r} is not an integer")
        if not 0 <= i < n:
            raise ValueError(f"trace selector id {i} out of range")
        ids.append(int(i))
    return list(dict.fromkeys(ids))  # a trace each, in selector order


class _Traces:
    """Membrane samples of the selected neurons at t = 0 and after every
    ``decim``-th step: the sample after step k (0-based) is row
    ``(k + 1) // decim`` of ``v``, a column per neuron."""

    def __init__(self, ids: list, n_steps: int, decim: int, dt: float, v_m):
        self.ids, self.decim = ids, decim
        n_samp = n_steps // decim + 1
        self.t = np.arange(n_samp) * decim * dt
        self.v = np.empty((n_samp, len(ids)))
        self.v[0] = v_m[ids]

    def after(self, k: int, v_m) -> None:
        """Sample after step k if its end is on the decimated grid."""
        if (k + 1) % self.decim == 0:
            self.v[(k + 1) // self.decim] = v_m[self.ids]

    def result(self) -> tuple:
        return self.t, {nid: np.ascontiguousarray(self.v[:, col]) for col, nid in enumerate(self.ids)}


def _step_consts(params, dt: float) -> tuple:
    """The constants of a step of ``dt`` of a neuron with parameters
    ``params``, for every path, in the field order of ``_scalar.c``'s
    ``si_consts``: ``params.advance_consts``, the detection level, dt,
    ``k_dt = dt / c_m``, the gate decay ``exp(-dt / tau_n)`` and the switch
    limit."""
    return (*params.advance_consts, DETECT_THRESHOLD_V, dt, dt / params.c_m, math.exp(-dt / params.tau_n),
            MAX_SWITCHES_PER_STEP)


def _general_step(v_m: float, v_n: float, i_in: float, params, consts: tuple) -> tuple:
    """``neuron.advance(v_m, v_n, i_in, dt, params)``'s ``(v_m, v_n, onset)``,
    with ``consts`` its ``_step_consts(params, dt)``.  A step in which no
    switch flips is taken with ``advance``'s expressions for a step with the
    switches held: the sum and the gate relaxation, the 1 V test on the
    unclamped membrane, then the clamp.  A step in which one flips goes
    through ``advance`` itself.  ``_scalar.c``'s ``general_step`` is this
    function in C."""
    v_th, v_gate, c_m, _, i_na_max, i_sink, v_n_inf, lo, hi, v_detect, dt, k_dt, decay, _ = consts
    na = v_m > v_th
    sk = v_n > v_gate
    i_net = i_in + (i_na_max if na else 0.0) - (i_sink if sk else 0.0)
    target = v_n_inf if na else 0.0
    v = v_m + i_net * k_dt
    vn = target + (v_n - target) * decay
    if (v > v_th) != na or (vn > v_gate) != sk:
        return advance(v_m, v_n, i_in, dt, params)
    onset = (v_detect - v_m) / (i_net / c_m) if v_m < v_detect <= v else None
    return (lo if v < lo else hi if v > hi else v), vn, onset


class _NeuronBlock:
    """All neurons of a network, advanced together by the general step.

    A neuron is quiet in a step when both its switches are off and the step
    keeps its membrane below v_th and the detection level (``stop``); the
    quiet neurons take the quiet update of ``_QuietStretch`` in one vector
    expression, which gives the general step's bits (see the module
    docstring).  Every other neuron takes ``_general_step``, in index order.
    ``consts`` holds each neuron's ``_step_consts``; the arrays the quiet
    update reads are columns of it.
    """

    def __init__(self, params: list, dt: float):
        self.params = params
        self.dt = dt
        self.consts = [_step_consts(p, dt) for p in params]
        self.v_th, self.v_gate, self.lo, self.k, self.decay = np.array(self.consts).T[[0, 1, 7, 11, 12]]
        self.stop = np.minimum(self.v_th, DETECT_THRESHOLD_V)

    def step(self, v_m, v_n, i_in):
        """Advance by dt.  Returns (v_m, v_n, spiking, onsets): the sorted
        indices of neurons that crossed the detection level upward and the
        offsets of those crossings into the step."""
        v = v_m + ((i_in + 0.0) - 0.0) * self.k  # the general step's membrane, both switches off
        quiet = (v_m <= self.v_th) & (v_n <= self.v_gate) & (v < self.stop)
        v_new = np.maximum(v, self.lo)
        # The general step's 0.0 + (v_n - 0.0) * decay: v_n - 0.0 is v_n.
        v_n_new = 0.0 + v_n * self.decay
        spiking, onsets = [], []
        busy = (~quiet).nonzero()[0]
        if busy.size:
            params, consts = self.params, self.consts
            for i, m, n, i_i in zip(busy.tolist(), v_m[busy].tolist(), v_n[busy].tolist(), i_in[busy].tolist()):
                v_new[i], v_n_new[i], onset = _general_step(m, n, i_i, params[i], consts[i])
                if onset is not None:
                    spiking.append(i)
                    onsets.append(onset)
        return v_new, v_n_new, np.array(spiking, dtype=np.int64), np.array(onsets)


class _SynapseStates:
    """Synapse outputs, one per (presynaptic neuron, preset) pair: every
    synapse of such a pair has the same drive and so the same trajectory.

    Each pulse is solved once, at its onset.  ``start_pulses`` takes the
    output from the start of the step to the onset and then solves the
    pulse-driven DPI flow from the onset, in one ``dpi_rise`` call for all
    the pulses that start in the step, to every step end the pulse covers
    and to the pulse's end.  For each later step the pulse is in flight
    over, the state at the end of its driven part, the charge delivered
    over that part and the part's length go into a table: a ring of rows,
    one per step, with a column per output.  A step reads the rows of the
    outputs whose pulse is in flight, and ``dpi_decay`` covers the rest of
    the step (all of it for the other outputs), so it solves nothing.

    ``until`` is each output's last step with its pulse in flight and
    ``busy_until`` the first step after all of them; a step from
    ``busy_until`` on has no pulse in flight.  ``at_floor`` says that every
    output sits exactly at its floor; such a step then delivers the floor
    charge without further work.  The pulse drive of every output is
    constant, so its fixed point ``a = i_pulse - i_tau`` and
    ``c = i_tau / a`` are computed once.  A network without synapses has
    an empty block, which delivers its zero ``floor_input`` on every step.
    """

    def __init__(self, keys: list, n_neurons: int, dt: float, post, signw, state_of):
        sps = [synapse_preset(name) for _, name in keys]
        self.dt = dt
        self.n_neurons = n_neurons
        self.post = np.asarray(post, dtype=np.int64)
        self.signw = np.asarray(signw, dtype=float)
        self.state_of = np.asarray(state_of, dtype=np.int64)
        self.pre = np.array([pre for pre, _ in keys], dtype=np.int64)
        self.of_pre = [np.nonzero(self.pre == i)[0] for i in range(n_neurons)]
        tau = np.array([time_constant(sp) for sp in sps])
        i_tau = np.array([sp.i_tau for sp in sps])
        i_pulse = np.array([sp.i_pulse for sp in sps])
        a = i_pulse - i_tau
        # Per-output constants, a row each, gathered in one call for the
        # outputs that pulses drive.
        self.consts = np.array([tau, i_tau, i_pulse, a, i_tau / a,
                                [sp.pulse_width for sp in sps], i_tau * FLOOR_RATIO])
        self.tau, _, _, _, _, self.width, self.floor = self.consts
        self.i = self.floor.copy()
        # A pulse is in flight over at most ceil(width / dt) steps after its
        # onset step (one more is kept for the rounding of the quotient).
        cols = int(math.ceil(self.width.max(initial=0.0) / dt)) + 1
        self.ends = np.arange(1, cols + 2) * dt  # step ends from the onset step's start
        self.ring = cols + 1
        # Ring rows of the steps k+1 .. k+cols, by k % ring.
        self.ahead = (np.arange(self.ring)[:, None] + np.arange(1, cols + 1)) % self.ring
        self.tab_i = np.zeros((self.ring, len(keys)))
        self.tab_q = np.zeros((self.ring, len(keys)))
        self.tab_on = np.zeros((self.ring, len(keys)))
        self.until = np.full(len(keys), -1, dtype=np.int64)
        self.busy_until = 0
        self.at_floor = True
        self.idle_on = np.zeros(len(keys))  # pulse time left within an idle step
        self.floor_input = self.input_current(dpi_decay(self.floor, dt, self.tau, self.floor)[1])
        self.pulse_steps = 0
        self.rising_solves = 0  # calls of the pulse-driven (rising) flow

    def input_current(self, q):
        """Per-neuron synaptic input current from each output's charge ``q``
        over a step (its mean current, signed and weighted)."""
        return np.bincount(self.post, weights=self.signw * (q / self.dt)[self.state_of],
                           minlength=self.n_neurons)

    def idle_at_floor(self, k: int) -> bool:
        """True when step k has no pulse in flight and every output sits at
        its floor."""
        return self.at_floor and k >= self.busy_until

    def _rise(self, i, consts, h):
        """Outputs with constants ``consts`` (columns of ``self.consts``)
        after ``h`` seconds of their pulse drive from ``i``, and their
        charge: one rising solve, by the rising branch alone when every
        output lies below its fixed point."""
        self.rising_solves += 1
        tau, i_tau, i_pulse, a, c, _, floor = consts
        if np.logical_and.reduce(i < a):
            return dpi_rise(i, i_pulse, h, a, c, tau)
        return dpi_flow(i, i_pulse, h, i_tau, tau, floor)

    def step(self, k: int):
        """Advance over step k under the pulses of earlier spikes; returns
        the per-neuron synaptic input current over the step."""
        dt = self.dt
        self.i_start = self.i
        if k < self.busy_until:
            self.pulse_steps += 1
            self.at_floor = False
            r = k % self.ring
            # x * mask is x where the mask is set and +0.0 elsewhere, for
            # the finite, non-negative table entries.
            flight = k <= self.until
            i = np.where(flight, self.tab_i[r], self.i)
            self.on = on = self.tab_on[r] * flight
            self.i, q = dpi_decay(i, dt - on, self.tau, self.floor)
            return self.input_current(q + self.tab_q[r] * flight)
        self.on = self.idle_on
        if self.at_floor:
            return self.floor_input
        self.i, q = dpi_decay(self.i, dt, self.tau, self.floor)
        self.at_floor = bool(np.logical_and.reduce(self.i == self.floor))
        return self.input_current(q)

    def start_pulses(self, k: int, spiking, onsets) -> None:
        """Start the pulses of spikes at offsets ``onsets`` into step k: take
        the outputs they drive to the onset and solve each pulse from there
        (see the class docstring).  The membrane already took this step's
        current; the new pulse reaches it from the next step.  A pulse ends
        after any earlier pulse of its output, so it takes over from its
        onset (pulses do not stack)."""
        groups = [self.of_pre[i] for i in spiking]
        hit = np.concatenate(groups)
        if not hit.size:
            return
        dt = self.dt
        theta = onsets.repeat([len(g) for g in groups])
        consts = self.consts[:, hit]
        tau, width, floor = consts[0], consts[5], consts[6]
        # To the onset, from the start of the step, under an earlier pulse
        # while it lasts.
        first_off = np.minimum(self.on[hit], theta)
        i = self.i_start[hit]
        if np.logical_or.reduce(first_off):
            i, _ = self._rise(i, consts, first_off)
        i = np.maximum(i * np.exp(-(theta - first_off) / tau), floor)  # dpi_decay's state
        # Offsets from the onset of the m step ends within the pulse, then of
        # its end (repeated where another pulse covers more step ends), all
        # solved together.
        h = np.minimum(self.ends - theta[:, None], width[:, None])
        m = np.add.reduce(h < width[:, None], axis=1)
        n = int(np.maximum.reduce(m)) + 1
        h = h[:, :n]
        i_tab, q_tab = self._rise(i.repeat(n), consts.repeat(n, axis=1), h.ravel())
        i_tab, q_tab = i_tab.reshape(h.shape), q_tab.reshape(h.shape)
        # The onset step ends in its pulse, or (m = 0) after the pulse's end.
        end = i_tab[:, 0]
        if not np.logical_and.reduce(m):
            end, _ = dpi_decay(end, (dt - theta) - h[:, 0], tau, floor)
        self.i[hit] = end
        # Step k+j, j = 1 .. m, is driven from offset h[j-1] to the pulse's
        # end or, all through, to the step's end.
        cells = (self.ahead[k % self.ring][:n - 1, None], hit)
        self.tab_i[cells] = i_tab[:, 1:].T
        self.tab_q[cells] = (q_tab[:, 1:] - q_tab[:, :-1]).T
        self.tab_on[cells] = np.minimum(width[:, None] - h[:, :-1], dt).T
        self.until[hit] = k + m
        self.busy_until = max(self.busy_until, k + n)
        self.at_floor = False


class _QuietStretch:
    """Takes quiet steps (see the module docstring) with the general step's
    own expressions, the membrane increments of up to QUIET_CHUNK steps at
    a time computed in one batch."""

    def __init__(self, drive: _Drive, island_of, n_steps: int, neurons: _NeuronBlock, floor_input):
        self.drive, self.island_of, self.n_steps = drive, island_of, n_steps
        self.k_dt, self.lo, self.decay = neurons.k, neurons.lo, neurons.decay
        self.v_th, self.v_gate = neurons.v_th, neurons.v_gate
        # A step that takes a membrane to the lowest v_th or to the detection
        # level may flip a switch or start a spike: it goes to the general
        # step (early, for a neuron whose own level is higher).
        self.stop = float(neurons.stop.min())
        self.floor_input = floor_input
        self.start = self.end = 0  # steps whose increments are in self.inc
        self.inc = None
        self.steps = 0

    def holds(self, v_m, v_n) -> bool:
        """True when no neuron has a switch on."""
        return not (np.logical_or.reduce(v_m > self.v_th) or np.logical_or.reduce(v_n > self.v_gate))

    def _batch(self, k: int) -> None:
        end = min(k + QUIET_CHUNK, self.n_steps)
        i_total = self.drive.steps(k, end).T[:, self.island_of] + self.floor_input
        self.inc = ((i_total + 0.0) - 0.0) * self.k_dt
        self.start, self.end = k, end

    def take(self, k: int, v_m, v_n, traces):
        """Take quiet steps from step k while they stay quiet; returns the
        first step not taken and the state at its start; ``traces`` (or
        None) samples the membranes after every step."""
        k0 = k
        while k < self.n_steps:
            if not self.start <= k < self.end:
                self._batch(k)
            inc, lo, stop, decay, base = self.inc, self.lo, self.stop, self.decay, self.start
            while k < self.end:
                v = v_m + inc[k - base]
                # Not below the level: crossed, or a NaN (which max() passes on).
                if not np.maximum.reduce(v) < stop:
                    self.steps += k - k0
                    return k, v_m, v_n
                np.maximum(v, lo, out=v)  # the clip of the general step: v < v_th < hi
                v_m = v
                # The general step's 0.0 + (v_n - 0.0) * decay, as v_n >= +0.
                v_n = v_n * decay
                if traces is not None:
                    traces.after(k, v_m)
                k += 1
        self.steps += k - k0
        return k, v_m, v_n


class _NeuronLayer:
    """The neurons of a network run: their state ``(v_m, v_n)``, advanced
    by the general step (``_NeuronBlock``) and by quiet stretches
    (``_QuietStretch``) under the noise of ``drive``, with ``traces`` (or
    None) sampling the membranes after every step and ``fired`` holding the
    spikes, arrays of (1-based) steps and of neurons.  ``_kernel``'s
    compiled layer has the same methods and gives the same bits."""

    def __init__(self, block: _NeuronBlock, synapses: _SynapseStates, drive: _Drive, island_of, n_steps: int,
                 v_m, traces: _Traces | None):
        self.block, self.drive, self.island_of, self.traces = block, drive, island_of, traces
        self.quiet = _QuietStretch(drive, island_of, n_steps, block, synapses.floor_input)
        self.drives = np.bincount(synapses.pre, minlength=len(v_m)) > 0  # has synapse outputs
        self.v_m, self.v_n = v_m, np.zeros(len(v_m))
        self.fired = []

    @property
    def quiet_steps(self) -> int:
        return self.quiet.steps

    def run(self, k: int):
        """Idle steps from step k (see ``_step_network``): a quiet stretch
        where no neuron has a switch on, else the general step under the
        synapses' floor input, up to the end of the run or the first step in
        which a neuron with synapse outputs spikes.  Returns the first step
        not taken and, when the last step taken starts pulses, its spikes
        and onsets, else empty arrays."""
        quiet = self.quiet
        while k < quiet.n_steps:
            if quiet.holds(self.v_m, self.v_n):
                k, self.v_m, self.v_n = quiet.take(k, self.v_m, self.v_n, self.traces)
                if k == quiet.n_steps:
                    break
            spiking, onsets = self.step(k, quiet.floor_input)
            k += 1
            if np.logical_or.reduce(self.drives[spiking]):
                return k, spiking, onsets
        return k, _NO_SPIKES, _NO_ONSETS

    def step(self, k: int, i_syn):
        """The general step k under the synaptic input ``i_syn``; returns the
        spiking neurons and their onsets (``_NeuronBlock.step``).  Raises
        SimulationError when it leaves a state that is not finite."""
        i_noise = self.drive.at(k)[self.island_of]
        self.v_m, self.v_n, spiking, onsets = self.block.step(self.v_m, self.v_n, i_noise + i_syn)
        # A finite sum has finite terms; the exact test runs only otherwise.
        if not (math.isfinite(np.add.reduce(self.v_m)) and math.isfinite(np.add.reduce(self.v_n))):
            bad = np.nonzero(~(np.isfinite(self.v_m) & np.isfinite(self.v_n)))[0]
            if bad.size:
                b = int(bad[0])
                raise SimulationError(b, int(self.island_of[b]), k, (k + 1) * self.block.dt,
                                      _phase_at_fault(i_noise[b], i_syn[b]))
        if self.traces is not None:
            self.traces.after(k, self.v_m)
        if spiking.size:
            self.fired.append((np.full(spiking.size, k + 1), spiking))
        return spiking, onsets


def _step_network(neurons, synapses: _SynapseStates, n_steps: int) -> list:
    """Steps 0 .. n_steps-1 of a network: an idle run (``neurons.run``)
    from an idle step, else the synapse step and the neurons' general step,
    and the start of the pulses of either's spikes.  ``neurons`` is a
    ``_NeuronLayer`` or ``_kernel``'s compiled layer.  Returns the (1-based)
    steps at whose end each neuron spikes, an array per neuron."""
    k = 0
    while k < n_steps:
        if synapses.idle_at_floor(k):
            k, spiking, onsets = neurons.run(k)
            if spiking.size:
                synapses.step(k - 1)  # sets the i_start and on that start_pulses reads
        else:
            spiking, onsets = neurons.step(k, synapses.step(k))
            k += 1
        if spiking.size:
            synapses.start_pulses(k - 1, spiking, onsets)
    fired = [(_NO_SPIKES, _NO_SPIKES), *neurons.fired]
    steps, who = np.concatenate([s for s, _ in fired]), np.concatenate([w for _, w in fired])
    order = np.argsort(who, kind="stable")
    return np.split(steps[order], np.cumsum(np.bincount(who, minlength=len(neurons.v_m)))[:-1])


def run(network: NetworkSpec, sim: SimConfig) -> SpikeRecord:
    """Simulate a network under its per-island noise drive.

    Deterministic: identical (network, sim) produce identical records.
    Raises SimulationError on numerical blow-up.
    """
    network.validate()
    sizes = [isl.n_neurons for isl in network.islands]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    n = int(offsets[-1])
    island_of = np.concatenate([np.full(s, i, dtype=np.int32) for i, s in enumerate(sizes)])
    nps = [neuron_preset(isl.neuron_preset) for isl in network.islands]

    # Synapses: island crossbars, then inter-island links.  A synapse sits in
    # its destination island and uses that island's preset; links are
    # excitatory and multiplicity enters as an exact output weight, since
    # parallel identical synapses with identical drive carry identical
    # currents.  For the same reason every synapse of one (presynaptic
    # neuron, preset) pair follows one trajectory, kept once as a "state".
    post_l, signw_l, state_l = [], [], []
    state_index: dict[tuple[int, str], int] = {}

    def add_synapse(pre: int, post: int, weight: float, preset: str) -> None:
        post_l.append(post)
        signw_l.append(weight)
        state_l.append(state_index.setdefault((pre, preset), len(state_index)))

    for isl_idx, isl in enumerate(network.islands):
        base = int(offsets[isl_idx])
        for pre, post, pol in isl.crossbar:
            add_synapse(base + pre, base + post, -1.0 if pol == "inh" else 1.0, isl.synapse_preset)
    for link in network.links:
        preset = network.islands[link.dst_island].synapse_preset
        for tgt in link.targets:
            add_synapse(int(offsets[link.src_island]) + link.src_neuron,
                        int(offsets[link.dst_island]) + tgt, float(link.multiplicity), preset)

    meta = _meta(hashlib.sha256(serialize_config(network).encode()).hexdigest(), sim, n, len(post_l))
    synapses = _SynapseStates(list(state_index), n, sim.dt, post_l, signw_l, state_l)
    return _simulate([nps[i] for i in island_of], island_of, network.noise, synapses, sim, meta)


def check_sim(params, noise, sim: SimConfig) -> None:
    """Raise ValueError when ``sim`` cannot run neurons with parameters
    ``params`` under the noise sources ``noise``: a step above a neuron's
    stability bound, or a band above the Nyquist frequency of the noise grid.
    Every run checks this before its first step."""
    for p in params:
        check_dt(p, sim.dt)
    for spec in noise:
        check_grid(spec.band, sim.dt * sim.hold)


def _simulate(params: list, island_of, noise, synapses: _SynapseStates, sim: SimConfig,
              meta: dict) -> SpikeRecord:
    """The run of neurons with parameters ``params``, neuron i in island
    ``island_of[i]`` under noise source ``noise[island_of[i]]``, coupled
    by ``synapses``, through ``_step_network`` with the neuron layer that
    ``_kernel.load()`` gives, decided here, once per run: the compiled one
    or, without it, ``_NeuronLayer``, or the Python single-neuron loop
    (``_ScalarNeuron``) for one neuron without synapses."""
    check_sim(params, noise, sim)
    n, n_steps, dt = len(params), sim.n_steps, sim.dt
    drive = _Drive(noise, sim)
    v_m = np.array([p.v_rest for p in params])
    trace_ids = _trace_selector(sim.record_traces, n)
    traces = _Traces(trace_ids, n_steps, sim.trace_decimation, dt, v_m) if trace_ids else None

    from . import _kernel  # imported by the first run, not with the package

    kernel = _kernel.load()
    if kernel is None and n == 1 and not synapses.post.size:
        neuron = _ScalarNeuron(params[0], dt, traces)
        neuron.run(drive, n_steps)
        spikes, quiet_steps = [neuron.spikes], n_steps - neuron.general
    else:
        layer = _NeuronLayer if kernel is None else kernel.neuron_layer
        neurons = layer(_NeuronBlock(params, dt), synapses, drive, island_of, n_steps, v_m, traces)
        spikes, quiet_steps = _step_network(neurons, synapses, n_steps), neurons.quiet_steps

    times = [np.array(s, dtype=np.int64) * dt for s in spikes]
    stats = {
        "steps": n_steps,
        "quiet_steps": quiet_steps,
        "pulse_steps": synapses.pulse_steps,
        "rising_solves": synapses.rising_solves,
        "spikes_per_island": [
            int(c) for c in np.bincount(island_of, weights=[len(t) for t in times], minlength=len(noise))
        ],
    }
    return SpikeRecord(
        times=times, island_of=island_of, dt=dt, duration=sim.duration, meta=meta,
        traces=traces.result() if traces is not None else None, stats=stats,
    )


class _ScalarNeuron:
    """One neuron with no synapses in plain floats, with its ``_step_consts``
    (``consts``): the Python layer's bits, much faster.  A step that starts
    with both switches off and keeps the membrane below v_th and the
    detection level is quiet: a network's quiet update takes it.  Every
    other step takes ``_general_step``; ``general`` counts them.  ``spikes``
    holds the (1-based) steps at whose end a spike is reported; ``traces``
    (the ``_Traces`` of this neuron, or None) takes its membrane samples."""

    def __init__(self, params, dt: float, traces: _Traces | None):
        self.params, self.traces = params, traces
        self.consts = _step_consts(params, dt)
        self.spikes: list[int] = []
        self.general = 0

    def take(self, drive, k: int, v_m: float, v_n: float) -> tuple[float, float]:
        """Steps k+1 .. k+len(drive) under the input currents ``drive``;
        returns the state after them.  Raises SimulationError at the first
        (general) step that leaves the state not finite, as a network does."""
        params, consts, traces = self.params, self.consts, self.traces
        v_th, v_gate, _, _, _, _, _, lo, _, th, dt, k_dt, decay, _ = consts
        # A step that takes the membrane to v_th or to the detection level
        # may flip the sodium switch or start a spike: it is not quiet.
        stop = min(v_th, th)
        steps = self.spikes
        if traces is not None:
            trace_v, decim = traces.v[:, 0], traces.decim
        drive = iter(drive)
        for i_in in drive:
            k += 1
            if v_m <= v_th and v_n <= v_gate:
                # Both switches off: the gate voltage only decays, so a step
                # that keeps the membrane below ``stop`` is quiet.
                v = v_m + ((i_in + 0.0) - 0.0) * k_dt
                if v < stop:
                    v_m = lo if v < lo else v
                    v_n = v_n * decay
                    if traces is not None:
                        if k % decim == 0:
                            trace_v[k // decim] = v_m
                        continue
                    # With no trace to sample, quiet steps run on in a loop of
                    # their own (v_n * decay <= v_n <= v_gate, as v_n >= 0);
                    # the first other step, NaN included, goes to the general step.
                    for i_in in drive:
                        k += 1
                        v = v_m + ((i_in + 0.0) - 0.0) * k_dt
                        if not v < stop:
                            break
                        v_m = lo if v < lo else v
                        v_n = v_n * decay
                    else:
                        break
            v_m, v_n, onset = _general_step(v_m, v_n, i_in, params, consts)
            self.general += 1
            if onset is not None:
                steps.append(k)
            if not (math.isfinite(v_m) and math.isfinite(v_n)):
                raise SimulationError(0, 0, k - 1, k * dt, _phase_at_fault(i_in, 0.0))
            if traces is not None and k % decim == 0:
                trace_v[k // decim] = v_m
        return v_m, v_n

    def run(self, drive: _Drive, n_steps: int) -> None:
        """Steps 0 .. n_steps-1 from rest, the drive read DRIVE_CHUNK steps
        at a time."""
        state = self.params.v_rest, 0.0
        for k in range(0, n_steps, DRIVE_CHUNK):
            state = self.take(drive.steps(k, min(k + DRIVE_CHUNK, n_steps))[0].tolist(), k, *state)


def run_single_neuron(noise: NoiseSpec, params, sim: SimConfig) -> SpikeRecord:
    """Simulate one isolated neuron under a noise drive.

    Specialization of ``run`` to a single neuron with no synapses; the
    membrane trace is always recorded (decimated by
    ``sim.trace_decimation``).
    """
    config = {"single_neuron": True, "noise": [noise.kind, noise.density, noise.band]}
    meta = _meta(hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(), sim, 1, 0)
    return _simulate([params], np.zeros(1, dtype=np.int32), (noise,),
                     _SynapseStates([], 1, sim.dt, [], [], []), replace(sim, record_traces="all"), meta)
