"""Checks of the benchmark's own machinery, on inputs small enough for the test suite.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from spans import Tracer, covered  # noqa: E402
from workloads import RingSeeds, SingleNeuronSweep, active_steps  # noqa: E402

from spikeislands.configio import load_builtin, parse_document  # noqa: E402
from spikeislands.engine import SimConfig, run  # noqa: E402
from spikeislands.presets import synapse_preset  # noqa: E402

TINY = {
    "ring_seeds": lambda: RingSeeds(7, duration=4e-6, n_seeds=1, variants=("fig6E", "fig6G")),
    "single_neuron_sweep": lambda: SingleNeuronSweep(7, duration=2e-4),
}


def _traced_layer_metrics(workload, tmp_path: Path, pass_id: int) -> dict:
    tr = Tracer(enabled=True, spill_dir=tmp_path / "spans")
    tr.pass_id = pass_id
    out = tmp_path / f"pass{pass_id}"
    out.mkdir()
    tr.call("pass", workload.run_pass, tr, out)
    return bench.layer_metrics(tr.spans)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_count_repeats_across_two_passes(name, tmp_path):
    workload = TINY[name]()
    first = _traced_layer_metrics(workload, tmp_path, 0)
    second = _traced_layer_metrics(workload, tmp_path, 1)
    counts = [k for k, unit in bench.LAYER_UNITS.items() if unit in ("count", "bytes", "fraction") and k in first]
    assert counts, "no count metrics"
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["engine.steps"] > 0 and first["noise.samples"] > 0


def test_active_steps_matches_the_engine_loop_condition():
    network, _ = parse_document(load_builtin("fig6G"))
    sim = SimConfig(duration=20e-6, dt=1e-8, master_seed=3)
    rec = run(network, sim)
    assert rec.total_spikes() > 0
    # Step-by-step replica of the engine's "any pulse in flight" test.
    offsets = np.concatenate(([0], np.cumsum([isl.n_neurons for isl in network.islands])))
    pre, width = [], []
    for k, isl in enumerate(network.islands):
        for p, _, _ in isl.crossbar:
            pre.append(offsets[k] + p)
            width.append(synapse_preset(isl.synapse_preset).pulse_width)
    for link in network.links:
        for _ in link.targets:
            pre.append(offsets[link.src_island] + link.src_neuron)
            width.append(synapse_preset(network.islands[link.dst_island].synapse_preset).pulse_width)
    pre, width = np.array(pre), np.array(width)
    spikes = sorted((t, i) for i, ts in enumerate(rec.times) for t in ts)
    last = np.full(rec.n_neurons, -np.inf)
    expected, j = 0, 0
    for k in range(sim.n_steps):
        t = k * sim.dt
        while j < len(spikes) and spikes[j][0] <= t:
            last[spikes[j][1]] = spikes[j][0]
            j += 1
        expected += bool(((t - last[pre]) < width).any())
    assert expected > 0
    assert active_steps(network, rec, sim.n_steps) == expected


def test_covered_merges_overlapping_children():
    parent = {"start": 0.0, "end": 10.0}
    kids = [{"start": 1.0, "end": 3.0}, {"start": 2.0, "end": 4.0}, {"start": 6.0, "end": 12.0}]
    assert covered(parent, kids) == pytest.approx(7.0)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(bench.LAYER_UNITS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == {**bench.END_TO_END_UNITS, **bench.LAYER_UNITS}[m["name"]]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(TINY)


def test_run_repeats_a_seed_and_fails_a_differing_spikes_csv(tmp_path, monkeypatch):
    workload = TINY["ring_seeds"]()
    args = types.SimpleNamespace(trace=0, seconds=0.0)
    passes, _ = bench.run_passes(workload, Tracer(False, tmp_path / "spans"), tmp_path, args)
    assert not any("differs" in f for f in passes[0]["failures"])

    run_pass = RingSeeds.run_pass

    def unrepeatable(self, tr, out, inputs=0, first_only=False):
        res = run_pass(self, tr, out, inputs, first_only)
        if first_only:
            res.digests = {label: "0" * 64 for label in res.digests}
        return res

    monkeypatch.setattr(RingSeeds, "run_pass", unrepeatable)
    (tmp_path / "b").mkdir()
    passes, _ = bench.run_passes(workload, Tracer(False, tmp_path / "spans2"), tmp_path / "b", args)
    assert any("differs from an earlier run" in f for f in passes[0]["failures"])
