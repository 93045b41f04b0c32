"""Behavioral model of a fast-mode sodium-potassium silicon neuron.

The neuron is a two-variable switched-current system:

    dv_m/dt = (i_in + i_na - i_k - i_r) / c_m
    dv_n/dt = mirror_ratio * i_na / c_n - v_n / tau_n

where
    i_na = i_na_max  while v_m > v_th        (regenerative up-swing),
    i_k  = i_k_max   while v_n > v_gate_th   (down-swing),
    i_r  = i_r       while v_n > v_gate_th   (refractory sink),

and v_m is clamped to [v_rest - 0.1 V, v_spike + 0.1 V].  v_n is the voltage
on the potassium-gate capacitor; it is charged by a mirror copy of the sodium
current and leaks with time constant tau_n, which sets the refractory period
together with i_r.

Integration is exact for an input held constant over the step.  Between
switching instants v_m is linear in time (then clamped) and v_n relaxes
exponentially toward mirror_ratio * i_na * tau_n / c_n, so ``advance``
locates each instant at which v_m crosses v_th or v_n crosses v_gate_th,
flips that switch there and carries on to the end of the step.  It also
locates the rising crossing of the spike detection level inside the step.
The switch states at the start of a step are read off (v_m, v_n), so the
state is just the two voltages, and the result does not depend on how a
stretch of constant input is divided into steps.

The admissible step is dt <= tau_n / 10: short against the refractory
period, so a neuron spikes at most once per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, log

__all__ = [
    "CLAMP_MARGIN_V",
    "DETECT_THRESHOLD_V",
    "advance",
    "check_dt",
    "NeuronParams",
    "NeuronState",
    "NoFiringError",
    "neuron_step",
    "natural_period",
    "rest_state",
    "stability_dt_max",
]

# Membrane clamp margin around [v_rest, v_spike], volts.
CLAMP_MARGIN_V = 0.1

# Spike detection level, volts (the count-vs-threshold plateau level).
DETECT_THRESHOLD_V = 1.0

# Switching instants handled within one step before the rest of the step is
# taken with the switches held (a spike needs four).
MAX_SWITCHES_PER_STEP = 8


class NoFiringError(RuntimeError):
    """Raised when a drive expected to cause firing produces no spikes."""


@dataclass(frozen=True)
class NeuronParams:
    """Component values and bias points of the fast-mode neuron.

    Parameters
    ----------
    c_m : float
        Membrane capacitance, farads.
    v_th : float
        Firing threshold of the sodium conductance, volts.
    i_na_max : float
        Peak sodium current (sets the pulse width), amperes.
    c_n : float
        Potassium-gate capacitance, farads.
    i_k_max : float
        Peak potassium sink current, amperes.
    i_r : float
        Refractory sink current, amperes.
    v_gate_th : float
        Potassium-gate activation threshold, volts.
    tau_n : float
        Linear discharge time constant of the gate voltage, seconds.
    v_spike : float
        Nominal spike peak amplitude, volts.
    v_rest : float
        Resting potential, volts.
    mirror_ratio : float
        Ratio of the gate charging current to the sodium current.
    """

    c_m: float
    v_th: float
    i_na_max: float
    c_n: float
    i_k_max: float
    i_r: float
    v_gate_th: float
    tau_n: float
    v_spike: float = 2.5
    v_rest: float = 0.0
    mirror_ratio: float = 1.0

    def __post_init__(self) -> None:
        for name in ("c_m", "c_n", "i_na_max", "i_k_max", "i_r", "tau_n", "mirror_ratio"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not (self.v_rest < self.v_gate_th < self.v_th < self.v_spike):
            raise ValueError("require v_rest < v_gate_th < v_th < v_spike")
        # The constants ``advance`` reads, computed once from the fields (a
        # ``dataclasses.replace`` builds a new instance and so new ones).
        object.__setattr__(self, "advance_consts", (
            self.v_th, self.v_gate_th, self.c_m, self.tau_n, self.i_na_max,
            self.i_sink, self.v_n_inf, self.v_clamp_lo, self.v_clamp_hi))

    @property
    def v_clamp_lo(self) -> float:
        return self.v_rest - CLAMP_MARGIN_V

    @property
    def v_clamp_hi(self) -> float:
        return self.v_spike + CLAMP_MARGIN_V

    @property
    def i_sink(self) -> float:
        """Potassium plus refractory sink current while the gate is open."""
        return self.i_k_max + self.i_r

    @property
    def v_n_inf(self) -> float:
        """Level the gate voltage relaxes toward while the sodium current flows."""
        return self.mirror_ratio * self.i_na_max * self.tau_n / self.c_n


@dataclass(frozen=True)
class NeuronState:
    """Instantaneous neuron state: membrane and gate voltages, volts."""

    v_m: float
    v_n: float
    refractory: bool = False


def rest_state(params: NeuronParams) -> NeuronState:
    """State with the membrane at rest and the potassium gate discharged."""
    return NeuronState(v_m=params.v_rest, v_n=0.0, refractory=False)


def stability_dt_max(params: NeuronParams) -> float:
    """Largest admissible step: one tenth of the gate time constant."""
    return params.tau_n / 10.0


def check_dt(params: NeuronParams, dt: float) -> None:
    """Raise ValueError unless ``0 < dt <= stability_dt_max(params)``."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if dt > stability_dt_max(params):
        raise ValueError(f"dt={dt:g} exceeds stability bound tau_n/10 = {stability_dt_max(params):g}")


def advance(v_m: float, v_n: float, i_in: float, dt: float, p: NeuronParams) -> tuple[float, float, float | None]:
    """Advance (v_m, v_n) by ``dt`` under constant input ``i_in``, exactly.

    Returns ``(v_m, v_n, onset)`` where ``onset`` is the offset into the
    step of the rising crossing of ``DETECT_THRESHOLD_V``, or None.  No
    validation: this is the update every other entry point shares.  The
    per-preset constants come from ``p.advance_consts``, computed once when
    ``p`` is made, and the segment end and the clamp are the comparisons of
    Python's ``min`` and ``max`` written out, ties and NaN included.
    """
    v_th, v_gate, c_m, tau_n, i_na_max, i_sink, v_n_inf, lo, hi = p.advance_consts
    v_detect = DETECT_THRESHOLD_V
    na = v_m > v_th
    sk = v_n > v_gate
    onset = None
    t = 0.0
    n_switch = 0
    while True:
        i_net = i_in + (i_na_max if na else 0.0) - (i_sink if sk else 0.0)
        target = v_n_inf if na else 0.0
        rem = dt - t
        t_na = t_sk = rem
        if n_switch < MAX_SWITCHES_PER_STEP:
            if (i_net > 0.0 and not na) or (i_net < 0.0 and na):
                t_na = (v_th - v_m) / (i_net / c_m)
            if (target > v_gate and not sk) or (target < v_gate and sk):
                t_sk = tau_n * log((v_n - target) / (v_gate - target))
        seg = t_sk if t_sk < t_na else t_na
        if rem < seg:
            seg = rem
        v_new = v_m + i_net * (seg / c_m)
        if onset is None and v_m < v_detect <= v_new:
            onset = t + (v_detect - v_m) / (i_net / c_m)
        v_m = lo if v_new < lo else hi if v_new > hi else v_new
        v_n = target + (v_n - target) * exp(-seg / tau_n)
        if not seg < rem:
            return v_m, v_n, onset
        if t_na == seg:
            v_m = v_th
            na = not na
        if t_sk == seg:
            v_n = v_gate
            sk = not sk
        t += seg
        n_switch += 1


def neuron_step(state: NeuronState, params: NeuronParams, i_in: float, dt: float) -> NeuronState:
    """Advance the neuron by one step of length ``dt`` under constant input.

    Parameters
    ----------
    state : NeuronState
    params : NeuronParams
    i_in : float
        Total injected current (noise plus net synaptic), amperes.
    dt : float
        Step length, seconds; must satisfy ``dt <= stability_dt_max(params)``.

    Returns
    -------
    NeuronState
        The state dt later.  The input state is not modified.
    """
    if not math.isfinite(i_in):
        raise ValueError(f"i_in must be finite, got {i_in!r}")
    check_dt(params, dt)
    v_m, v_n, _ = advance(state.v_m, state.v_n, i_in, dt, params)
    return NeuronState(v_m=v_m, v_n=v_n, refractory=v_n >= params.v_gate_th)


def natural_period(params: NeuronParams, i_const: float, dt: float) -> float:
    """Steady inter-spike period under a constant drive ``i_const``.

    The neuron is simulated from rest; the first 3 spikes are discarded and
    the next 8 inter-spike intervals are averaged.  Spikes are rising
    crossings of ``DETECT_THRESHOLD_V``, timed exactly within the step, so
    the period does not depend on ``dt``.

    Raises
    ------
    NoFiringError
        If the required number of spikes does not occur within 100 expected
        periods (the expectation is the charge time to threshold plus a
        microsecond of spike overhead).
    """
    if not math.isfinite(i_const) or i_const <= 0.0:
        raise NoFiringError(f"constant drive {i_const!r} cannot cause firing")
    check_dt(params, dt)

    t_expect = params.c_m * (params.v_th - params.v_rest) / i_const + 1e-6
    needed = 3 + 8 + 1  # 3 spikes discarded, then 8 intervals
    max_steps = int(math.ceil(100.0 * t_expect * needed / dt))

    v_m = params.v_rest
    v_n = 0.0
    spike_times: list[float] = []
    for k in range(max_steps):
        v_m, v_n, onset = advance(v_m, v_n, i_const, dt, params)
        if onset is not None:
            spike_times.append(k * dt + onset)
            if len(spike_times) >= needed:
                break
    if len(spike_times) < needed:
        raise NoFiringError(
            f"only {len(spike_times)} spikes within {max_steps} steps at i_const={i_const:g}"
        )
    return (spike_times[-1] - spike_times[3]) / 8
