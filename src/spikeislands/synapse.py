"""Current-mode low-pass synapse models.

Two models are provided:

* ``linear_step`` — the first-order reference filter
      tau * dI/dt = -I + I_in
* ``dpi_step`` / ``dpi_flow`` — the log-domain differential-pair integrator
  (DPI)
      tau * dI_out/dt = -I_out + I_in * (I_out / I_tau) / (1 + I_out / I_tau)
  with time constant tau = C_s * U_T / (kappa * I_tau).

The DPI equation has I_out = 0 as an absorbing state (the multiplicative
gain term vanishes), so the output is floored at ``i_tau * 1e-6``,
representing device leakage, which lets the gain term lift the output when
an input pulse arrives.

For a constant input D the DPI equation is separable (Bartolozzi &
Indiveri 2007, Neural Comput. 19:2581).  With a = D - I_tau,

    tau * dI/dt = I (a - I) / (I_tau + I),
    t / tau     = (I_tau/a) ln(I/I0) - (D/a) ln((a - I)/(a - I0)),
    int I dt    = -tau D ln((a - I1)/(a - I0)) - tau (I1 - I0),

and with no input the output decays as I0 exp(-t/tau) down to the floor.
``dpi_flow`` evaluates this flow map exactly (one Newton solve of the time
relation, in a variable in which it is convex with bounded slope), so a
step of any length gives the same state as any split of it into shorter
steps, and it also returns the charge the output delivers over the step.

Presynaptic voltage spikes act on the input transistor as a switch, so a
spike train converts to a rectangular current drive of amplitude ``i_pulse``
lasting ``pulse_width`` after each spike; overlapping pulses do not stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SynapseParams",
    "SynapseState",
    "time_constant",
    "dpi_step",
    "dpi_flow",
    "dpi_rise",
    "dpi_decay",
    "linear_step",
    "presynaptic_pulse",
    "FLOOR_RATIO",
]

# Output floor as a fraction of i_tau (device leakage).
FLOOR_RATIO = 1e-6

# Thermal voltage at 300 K, volts.
U_T_300K = 25.85e-3

# Newton iterations taken before the first stopping test (``_newton``): a
# rising solve from its interpolated start (``_rising_start``) passes the
# test at the third.
NEWTON_BATCH = 3


@dataclass(frozen=True)
class SynapseParams:
    """DPI synapse component values and spike-to-current conversion.

    A synapse's sign comes from its crossbar edge ("exc" or "inh"; links are
    excitatory) and is applied where its current enters the target membrane.

    Parameters
    ----------
    c_s : float
        Synapse capacitance, farads.
    i_tau : float
        Leak bias current, amperes.
    kappa : float
        Sub-threshold slope factor, dimensionless, in (0, 1].
    u_t : float
        Thermal voltage, volts (default 25.85 mV at 300 K).
    i_pulse : float
        Input current amplitude per presynaptic spike, amperes.
    pulse_width : float
        Duration of the input current pulse per spike, seconds.
    """

    c_s: float
    i_tau: float
    i_pulse: float
    pulse_width: float
    kappa: float = 0.7
    u_t: float = U_T_300K

    def __post_init__(self) -> None:
        for name in ("c_s", "i_tau", "u_t", "i_pulse", "pulse_width"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError("kappa must be in (0, 1]")

    @property
    def i_floor(self) -> float:
        return self.i_tau * FLOOR_RATIO


@dataclass(frozen=True)
class SynapseState:
    """Output current magnitude, amperes (sign applied at injection)."""

    i_out: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.i_out) and self.i_out >= 0.0):
            raise ValueError("i_out must be finite and non-negative")


def time_constant(params: SynapseParams) -> float:
    """Synapse time constant C_s * U_T / (kappa * I_tau), seconds."""
    return params.c_s * params.u_t / (params.kappa * params.i_tau)


def _libm(f, special):
    """``f`` of ``math`` over an array, element by element: libm's bits on
    every host, where numpy's own loops may round otherwise (its AVX-512
    ``exp``, ``log`` and ``log1p`` differ from libm in the last bit).
    ``special(x)`` gives the value of an argument ``f`` rejects (a pole,
    a domain error or an overflow), as libm returns it."""

    def apply(x):
        x = np.asarray(x, dtype=np.float64)
        flat = x.ravel().tolist()
        try:
            out = list(map(f, flat))
        except (ValueError, OverflowError):
            out = []
            for v in flat:
                try:
                    out.append(f(v))
                except (ValueError, OverflowError):
                    out.append(special(v))
        return np.array(out, dtype=np.float64).reshape(x.shape)

    return apply


_exp = _libm(math.exp, lambda x: math.inf)
_log = _libm(math.log, lambda x: -math.inf if x == 0.0 else math.nan)
_log1p = _libm(math.log1p, lambda x: -math.inf if x == -1.0 else math.nan)


def dpi_decay(i0, h, tau, i_floor):
    """Undriven DPI output after ``h`` seconds, and the charge it delivers.

    Exact exponential decay ``i0 * exp(-h / tau)`` held at ``i_floor`` from
    the instant it reaches the floor.  Arguments broadcast as numpy arrays;
    returns ``(i1, charge)`` with charge the integral of the output over the
    step, coulombs.
    """
    i0 = np.asarray(i0, dtype=float)
    i1 = i0 * _exp(-h / tau)
    charge = tau * (i0 - i1)
    low = i1 < i_floor
    if np.logical_or.reduce(low, axis=None):
        t_floor = tau * _log(i0 / i_floor)
        charge = np.where(low, tau * (i0 - i_floor) + i_floor * (h - t_floor), charge)
        i1 = np.maximum(i1, i_floor)  # i_floor exactly where low
    return i1, charge


def _softplus_sigmoid(x):
    sp = np.logaddexp(0.0, x)
    return sp, _exp(x - sp)


def _log1p_ratio(x):
    """log1p(x) / x for x > -1, continuous at 0."""
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x)), _log1p(xs) / xs)


def _newton(g, y, target):
    """Root of g(y) = target for g convex and increasing with slope bounded
    away from 0, by Newton's method from a point near the root (from a point
    left of it, the first step lands right of it, and from there the
    iterates decrease monotonically to it).

    Each element stops on its own test, ``|step| <= 1e-14 * (1 + |y|)``,
    at the first iterate that meets it; no reduction over the array decides
    how many iterations an element gets, so every element has the bits it
    has when solved alone, whatever it is solved with.  The first
    NEWTON_BATCH iterates are taken untested and kept, and the test then
    picks each element's first passing one; an element that has not passed
    goes on alone, masked, from the last of them.
    """
    ys = np.empty((NEWTON_BATCH,) + np.shape(y))
    steps = np.empty(ys.shape)
    for j in range(NEWTON_BATCH):
        val, slope = g(y)
        np.divide(val - target, slope, out=steps[j, ...])
        y = np.subtract(y, steps[j, ...], out=ys[j, ...])
    going = np.abs(steps) > 1e-14 * (1.0 + np.abs(ys))
    # Each element's first passing iterate, or the last one if none passed.
    y, active = ys[-1], going[-1]
    for j in range(NEWTON_BATCH - 2, -1, -1):
        y = np.where(going[j], y, ys[j])
        active = active & going[j]
    if not np.logical_or.reduce(active, axis=None):
        return y
    y = np.array(y)
    for _ in range(100 - NEWTON_BATCH):
        val, slope = g(y)
        step = (val - target) / slope
        np.subtract(y, step, out=y, where=active)
        active &= np.abs(step) > 1e-14 * (1.0 + np.abs(y))
        if not np.logical_or.reduce(active, axis=None):
            break
    return y


@lru_cache(maxsize=8)
def _rising_relation(c: float):
    """The rising time relation ``c * psi + softplus(psi)`` on a grid of psi
    spaced 0.03 apart, as (relation, psi)."""
    psi = np.linspace(-60.0, 60.0, 4097)
    return c * psi + np.logaddexp(0.0, psi), psi


def _rising_start(target, c):
    """Newton start for the root of ``c * psi + softplus(psi) = target``:
    linear interpolation in the tabulated relation of each element's c,
    within about 1e-4 of the root (the end of the grid beyond it)."""
    first = float(np.ravel(c)[0]) if np.size(c) else 0.0
    if np.logical_and.reduce(c == first, axis=None):
        return np.interp(target, *_rising_relation(first))
    c = np.broadcast_to(c, np.shape(target))
    start = np.empty(c.shape)
    for value in np.unique(c):
        sel = c == value
        start[sel] = np.interp(target[sel], *_rising_relation(float(value)))
    return start


def _rising(i0, d, h, a, c, tau):
    """Driven flow from below the fixed point a = d - i_tau > i0, with
    c = i_tau / a.

    In psi = ln(I / (a - I)) the time relation is
    t/tau = (i_tau/a) psi + softplus(psi) + const, convex with slope in
    [i_tau/a, d/a]; I = a * sigmoid(psi).
    """
    psi0 = _log(i0) - _log(a - i0)
    sp0 = np.logaddexp(0.0, psi0)

    def g(psi):
        sp, sig = _softplus_sigmoid(psi)
        return c * psi + sp, c + sig

    target = c * psi0 + sp0 + h / tau
    psi1 = _newton(g, _rising_start(target, c), target)
    sp1, sig1 = _softplus_sigmoid(psi1)
    i1 = a * sig1
    return i1, tau * (d * (sp1 - sp0) - (i1 - i0))


def dpi_rise(i0, d, h, a, c, tau):
    """``dpi_flow`` for arrays whose outputs all lie below their fixed point,
    ``i0 < a`` with ``a = d - i_tau`` and ``c = i_tau / a`` given (``d > 0``).

    A caller that drives the same synapses step after step computes ``a``
    and ``c`` once; the result is that of ``dpi_flow`` bit for bit,
    ``h = 0`` elements included.
    """
    i1, charge = _rising(i0, d, h, a, c, tau)
    moving = h > 0.0
    return np.where(moving, i1, i0), np.where(moving, charge, 0.0)


def _falling(i0, d, h, i_tau, tau, i_floor):
    """Driven flow from above max(a, 0), a = d - i_tau, toward that level.

    In z = -ln(I - max(a, 0)) the time relation
    t/tau = -ln I + (d/I) * log1p(-a/I) / (-a/I) + const is convex and
    increasing with slope at least 1.  The output is held at the floor from
    the instant it reaches it.
    """
    a = d - i_tau
    a_pos = np.maximum(a, 0.0)

    def time_of(i):
        return -_log(i) + d / i * _log1p_ratio(-a / i)

    def g(z):
        i = a_pos + _exp(-z)
        return time_of(i), (i_tau + i) * (i - a_pos) / (i * (i - a))

    t0 = time_of(i0)
    z0 = -_log(i0 - a_pos)
    i1 = a_pos + _exp(-_newton(g, z0, t0 + h / tau))
    can_floor = a_pos < i_floor
    t_floor = tau * (time_of(np.where(can_floor, i_floor, i0)) - t0)
    low = can_floor & (t_floor <= h)
    i_end = np.where(low, i_floor, i1)
    charge = tau * (-d * _log1p((i_end - i0) / (i0 - a)) - (i_end - i0))
    charge = np.where(low, charge + i_floor * (h - t_floor), charge)
    return i_end, charge


def dpi_flow(i0, i_in, h, i_tau, tau, i_floor):
    """Exact DPI output after ``h`` seconds of constant input ``i_in``.

    Arguments broadcast as numpy arrays (``i0 >= i_floor``, ``i_in >= 0``,
    ``h >= 0``).  Returns ``(i1, charge)``: the output at the end of the
    step and its integral over the step, coulombs, so ``charge / h`` is the
    mean current the synapse injects.  Splitting a step into shorter ones
    gives the same ``i1`` and the same total charge up to rounding.
    """
    args = [np.asarray(x, dtype=float) for x in (i0, i_in, h, i_tau, tau, i_floor)]
    if len({x.shape for x in args}) > 1:
        args = np.broadcast_arrays(*args)
    i0, d, h, i_tau, tau, i_floor = args
    a = d - i_tau
    rising = (d > 0.0) & (i0 < a)
    if rising.all():  # every output is driven up toward its fixed point
        return dpi_rise(i0, d, h, a, i_tau / a, tau)
    moving = h > 0.0
    i1 = i0.copy()
    charge = np.zeros(i0.shape)
    regimes = (
        (moving & (d == 0.0), lambda m: dpi_decay(i0[m], h[m], tau[m], i_floor[m])),
        (moving & rising, lambda m: _rising(i0[m], d[m], h[m], a[m], i_tau[m] / a[m], tau[m])),
        (moving & (d > 0.0) & (i0 > np.maximum(a, 0.0)),
         lambda m: _falling(i0[m], d[m], h[m], i_tau[m], tau[m], i_floor[m])),
        (moving & (d > 0.0) & (i0 == a), lambda m: (i0[m], i0[m] * h[m])),
    )
    for m, flow in regimes:
        if m.any():
            i1[m], charge[m] = flow(m)
    return i1, charge


def dpi_step(state: SynapseState, params: SynapseParams, i_in: float, dt: float) -> SynapseState:
    """One step of the DPI dynamics under constant input, by the exact flow.

    ``i_in`` is the (non-negative) input current; ``dt`` must satisfy
    ``dt <= tau / 10`` (``dpi_flow`` takes steps of any length).  The result
    is floored at ``params.i_floor``.
    """
    if not math.isfinite(i_in) or i_in < 0.0:
        raise ValueError(f"i_in must be finite and >= 0, got {i_in!r}")
    tau = time_constant(params)
    if not 0.0 < dt <= tau / 10.0:
        raise ValueError(f"dt={dt:g} outside (0, tau/10] with tau={tau:g}")
    i1, _ = dpi_flow(state.i_out, i_in, dt, params.i_tau, tau, params.i_floor)
    return SynapseState(i_out=float(i1))


def linear_step(state: SynapseState, tau: float, i_in: float, dt: float) -> SynapseState:
    """One Euler step of the linear first-order filter tau*dI/dt = -I + I_in."""
    if not 0.0 < dt <= tau / 10.0:
        raise ValueError(f"dt={dt:g} outside (0, tau/10]")
    i = state.i_out
    i2 = i + dt * ((i_in - i) / tau)
    return SynapseState(i_out=i2)


def presynaptic_pulse(spike_times, params: SynapseParams, t):
    """Rectangular input-current drive produced by a presynaptic spike train.

    Returns ``i_pulse`` wherever ``t`` lies within ``pulse_width`` after any
    spike time, else 0.  Overlapping pulses do not stack (the input
    transistor is a switch: on or off).

    Parameters
    ----------
    spike_times : array_like
        Spike times in seconds, sorted ascending.
    params : SynapseParams
    t : float or array_like
        Query time(s), seconds.

    Returns
    -------
    float or ndarray
        Drive current, same shape as ``t``.
    """
    times = np.asarray(spike_times, dtype=float)
    if times.ndim != 1:
        raise ValueError("spike_times must be one-dimensional")
    if times.size > 1 and np.any(np.diff(times) < 0.0):
        raise ValueError("spike_times must be sorted ascending")

    scalar = np.isscalar(t) or np.ndim(t) == 0
    tq = np.atleast_1d(np.asarray(t, dtype=float))
    if times.size == 0:
        out = np.zeros_like(tq)
        return float(out[0]) if scalar else out

    idx = np.searchsorted(times, tq, side="right") - 1
    has_prev = idx >= 0
    last = times[np.clip(idx, 0, times.size - 1)]
    active = has_prev & (tq - last < params.pulse_width)
    out = np.where(active, params.i_pulse, 0.0)
    return float(out[0]) if scalar else out
