"""Named parameter presets referenced by experiment configs.

The ``fast-mode`` neuron is calibrated for ~1 MHz tonic spiking under
microamp-scale constant drive (1.03 MHz at 1.5 uA, a 971.9 ns period)
with ~2.6 V peaks and a ~0.1 us pulse above the 1 V detection level.  The
firing threshold sits below 1 V so that every crossing of the detection
level is a committed spike (the count-vs-threshold curve is flat from 1 V
to 2 V).  The refractory window (gate voltage above its threshold plus the
recharge from the clamp floor) is roughly half a microsecond; the gate
stays open for 426 ns after a spike under the 1.5 uA tonic drive.  That is
shorter than the round trip of a volley around a four-island ring of
tripled synapses, so the echo can fire its source island again.  Measured
on fig6G at master seed 1 over 120 us: island 0's first volley (all 16
neurons at 7.74 us) reaches islands 1, 3 and 2 after 90, 210 and 360 ns
and returns to island 0 550-650 ns after it left, where it fires island 0
again.  The ring then reverberates: every island fires 30-120 spikes per
5 us over 5-30 us, one volley (15-18 spikes) per 5 us over 35-55 us, and
16-120 per 5 us over 75-120 us, with a burst of 54-69 over 60-65 us; it
fires at most one spike per island over 30-35, 55-60 and 65-75 us.

The ``fast-dpi`` synapse is calibrated so that a single presynaptic spike
produces a clear postsynaptic response: one pulse deposits enough charge to
lift the target membrane by ~0.49 V.  That is deliberately sub-threshold on
its own (the firing threshold is 0.8 V above rest), so a single synapse
fires its target only when background noise has already carried it above
~0.3 V; two stacked pulses fire a resting target, and a tripled synapse
(~1.5 V) fires any recovered target outright.  Because the membrane has no
leak, kicks accumulate until the next spike.  This makes single
point-to-point connections probabilistic relays and multi-synapse
connections reliable ones.  See demos/05_synapse_calibration.py for the
measurement.
"""

from __future__ import annotations

from .neuron import NeuronParams
from .synapse import SynapseParams

__all__ = ["NEURON_PRESETS", "SYNAPSE_PRESETS", "neuron_preset", "synapse_preset"]


NEURON_PRESETS: dict[str, NeuronParams] = {
    "fast-mode": NeuronParams(
        c_m=0.85e-12,
        v_th=0.8,
        i_na_max=60e-6,
        c_n=3.1e-12,
        i_k_max=80e-6,
        i_r=5e-6,
        v_gate_th=0.5,
        tau_n=500e-9,
        v_spike=2.5,
        v_rest=0.0,
        mirror_ratio=0.5,
    ),
}

# Constant drive for which the fast-mode neuron fires at ~1 MHz (971.9 ns
# period, independent of the step).
FAST_MODE_1MHZ_DRIVE_A = 1.5e-6

SYNAPSE_PRESETS: dict[str, SynapseParams] = {
    "fast-dpi": SynapseParams(
        c_s=0.469e-12,
        i_tau=577e-9,
        i_pulse=5.2e-6,
        pulse_width=150e-9,
        kappa=0.7,
    ),
}


def neuron_preset(name: str) -> NeuronParams:
    try:
        return NEURON_PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown neuron preset {name!r}; available: {sorted(NEURON_PRESETS)}") from None


def synapse_preset(name: str) -> SynapseParams:
    try:
        return SYNAPSE_PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown synapse preset {name!r}; available: {sorted(SYNAPSE_PRESETS)}") from None
