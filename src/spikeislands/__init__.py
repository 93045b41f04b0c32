"""Noise-activated spiking-neuron island networks.

Library for deterministic clock-driven simulation of small populations
("islands") of fast silicon neurons whose spontaneous firing is ignited by
shared background current noise, plus the spike-train statistics used to
quantify how inter-island wiring controls activity correlation.
"""

__version__ = "0.4.0"

from .analysis import (
    CorrelationMatrix,
    EventSeries,
    bin_events,
    block_means,
    detect_spikes,
    histogram,
    isi,
    iti,
    pearson_matrix,
    record_matrix,
    threshold_sweep,
    trains,
)
from .configio import (
    ConfigSyntaxError,
    builtin_names,
    load_builtin,
    parse_config,
    parse_document,
    serialize_config,
)
from .engine import SimConfig, SimulationError, SpikeRecord, run, run_single_neuron
from .neuron import NeuronParams, NeuronState, NoFiringError, natural_period, neuron_step, rest_state
from .noise import NoiseSpec, density_for_rms, generate, psd_estimate
from .presets import NEURON_PRESETS, SYNAPSE_PRESETS, neuron_preset, synapse_preset
from .synapse import SynapseParams, SynapseState, dpi_flow, dpi_step, linear_step, presynaptic_pulse, time_constant
from .topology import (
    InterIslandLink,
    IslandSpec,
    NetworkSpec,
    TopologyError,
    build_ring,
    inhibitory_ratio,
    random_crossbar,
)

__all__ = [
    "__version__",
    "CorrelationMatrix",
    "EventSeries",
    "bin_events",
    "block_means",
    "detect_spikes",
    "histogram",
    "isi",
    "iti",
    "pearson_matrix",
    "record_matrix",
    "threshold_sweep",
    "trains",
    "ConfigSyntaxError",
    "builtin_names",
    "load_builtin",
    "parse_config",
    "parse_document",
    "serialize_config",
    "SimConfig",
    "SimulationError",
    "SpikeRecord",
    "run",
    "run_single_neuron",
    "NeuronParams",
    "NeuronState",
    "NoFiringError",
    "natural_period",
    "neuron_step",
    "rest_state",
    "NoiseSpec",
    "density_for_rms",
    "generate",
    "psd_estimate",
    "NEURON_PRESETS",
    "SYNAPSE_PRESETS",
    "neuron_preset",
    "synapse_preset",
    "SynapseParams",
    "SynapseState",
    "dpi_step",
    "dpi_flow",
    "linear_step",
    "presynaptic_pulse",
    "time_constant",
    "InterIslandLink",
    "IslandSpec",
    "NetworkSpec",
    "TopologyError",
    "build_ring",
    "inhibitory_ratio",
    "random_crossbar",
]
