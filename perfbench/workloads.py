"""The benchmark's workloads: inputs made from a seed, one pass, its checks.

A pass generates the workload's inputs (config text, master seeds), runs
them through spikeislands' public API or its CLI, analyses the spike trains
and ends with a checked result.  ``run_pass(tr, out_dir, inputs)`` takes
the index of the pass's inputs: ``ring_seeds`` draws a new pair of master
seeds for each index, ``single_neuron_sweep`` ignores it.  A spikes CSV made
again from the same seed must match the first one byte for byte, and
``run_pass(..., first_only=True)`` runs only the first simulation of input
0, to repeat a seed when no pass of a run did.

Every call into spikeislands goes through ``Tracer.call`` (or, inside the
CLI, through ``Tracer.patched``), so a traced pass records one span per
public call.  An untraced pass makes the same calls with tracing disabled,
except for the separate ``noise.generate`` calls that only a traced pass
makes to time noise generation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import multiprocessing
import os
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from spikeislands import cli
from spikeislands.analysis import EventSeries, bin_events, block_means, histogram, isi, pearson_matrix
from spikeislands.configio import load_builtin, parse_document
from spikeislands.engine import SimConfig, derive_seed, run
from spikeislands.io import read_events_csv, write_spikes_csv
from spikeislands.noise import generate
from spikeislands.presets import synapse_preset

BIN_S = 1e-6  # 1 us correlation bins, as in the paper's figures
ISI_HIST_BIN_S = 1e-7
RING_VARIANTS = ("fig6E", "fig6F", "fig6G", "fig6H")  # the first is the unconnected control
SWEEP_CONFIG = "fig3_single_neuron"


@dataclass
class PassResult:
    digests: dict = field(default_factory=dict)  # output label -> sha256 of its spikes CSV
    failures: list = field(default_factory=list)


# ---------------------------------------------------------------- work counts


def active_steps(network, record, n_steps: int) -> int:
    """Steps with a presynaptic pulse in flight on any synapse.

    Mirrors the engine's test ``0 <= k*dt - last_spike[pre] < pulse_width``
    for step k, evaluated from the recorded spike times; these are the steps
    on which the engine sub-steps the stiff synapse block finely.
    """
    offsets = np.concatenate(([0], np.cumsum([isl.n_neurons for isl in network.islands])))
    width: dict[int, float] = {}
    for k, isl in enumerate(network.islands):
        w = synapse_preset(isl.synapse_preset).pulse_width
        for pre, _, _ in isl.crossbar:
            g = int(offsets[k] + pre)
            width[g] = max(width.get(g, 0.0), w)
    for link in network.links:
        w = synapse_preset(network.islands[link.dst_island].synapse_preset).pulse_width
        g = int(offsets[link.src_island] + link.src_neuron)
        width[g] = max(width.get(g, 0.0), w)
    dt = record.dt
    active = np.zeros(n_steps, dtype=bool)
    for g, w in width.items():
        t = record.times[g]
        if t.size == 0:
            continue
        first = np.rint(t / dt).astype(np.int64)
        k = first[:, None] + np.arange(int(np.ceil(w / dt)) + 2)[None, :]
        on = (k < n_steps) & (k * dt - t[:, None] < w)
        active[k[on]] = True
    return int(active.sum())


def run_counts(args, record) -> dict:
    network, sim = args
    return {
        "steps": sim.n_steps,
        "spikes": record.total_spikes(),
        "neurons": record.n_neurons,
        "synapses": int(record.meta["n_synapses"]),
        "links": len(network.links),
        "active_steps": active_steps(network, record, sim.n_steps) if record.meta["n_synapses"] else 0,
    }


def _bytes_written(args, _result) -> dict:
    return {"bytes": Path(args[1]).stat().st_size}


def _bins(_args, result) -> dict:
    return {"bins": len(result)}


def _hist_bins(_args, result) -> dict:
    return {"bins": len(result[1])}


def _samples(args, _result) -> dict:
    return {"samples": int(args[1])}


# Names the cli module imported, traced under the module that defines them.
CLI_TRACED = {
    "parse_document": ("configio.parse_document", None),
    "run": ("engine.run", run_counts),
    "write_spikes_csv": ("io.write_spikes_csv", _bytes_written),
    "read_events_csv": ("io.read_events_csv", None),
    "bin_events": ("analysis.bin_events", _bins),
    "pearson_matrix": ("analysis.pearson_matrix", None),
    "block_means": ("analysis.block_means", None),
    "isi": ("analysis.isi", None),
    "histogram": ("analysis.histogram", _hist_bins),
}


# ---------------------------------------------------------------- helpers


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _time_noise(tr, network, sim: SimConfig) -> None:
    """Generate each island's noise exactly as ``engine.run`` does, to time it."""
    if not tr.enabled:
        return
    n_noise = -(-sim.n_steps // sim.hold)
    for i, spec in enumerate(network.noise):
        eff = replace(spec, seed=derive_seed(sim.master_seed, spec.seed),
                      stream_id=derive_seed(i, spec.stream_id))
        tr.call("noise.generate", generate, eff, n_noise, sim.dt * sim.hold, counts=_samples)


def _master_seeds(workload: str, seed: int, n: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(n)]


def _simulate_and_analyse(tr, label: str, network, sim: SimConfig, out_dir: Path, res: PassResult):
    """engine.run -> spikes CSV -> read back -> 1 us bins -> Pearson -> block means.

    Returns the mean cross-island correlation; adds check failures to ``res``.
    """
    _time_noise(tr, network, sim)
    rec = tr.call("engine.run", run, network, sim, counts=lambda a, r: {**run_counts(a, r), "config": label})
    csv_path = out_dir / f"{label}-{sim.master_seed}.csv"
    tr.call("io.write_spikes_csv", write_spikes_csv, rec, csv_path, counts=_bytes_written)
    res.digests[f"{label}@{sim.master_seed}"] = _digest(csv_path)

    events = tr.call("io.read_events_csv", read_events_csv, csv_path)
    if sum(len(e) for e in events) != rec.total_spikes():
        res.failures.append(f"{label}: spikes CSV does not round-trip the record's spike count")

    binned = [tr.call("analysis.bin_events", bin_events, EventSeries(i, t), BIN_S, rec.duration, counts=_bins)
              for i, t in enumerate(rec.times)]
    corr = tr.call("analysis.pearson_matrix", pearson_matrix, binned)
    _, cross = tr.call("analysis.block_means", block_means, corr, rec.island_of)

    # The CLI's ISI histogram of the same CSV must count every interval.
    n_isi = sum(max(len(t) - 1, 0) for t in rec.times)
    hist_path = out_dir / f"{label}-{sim.master_seed}-isi.csv"
    rc = _cli(tr, label, ["analyze", "--spikes", str(csv_path), "--isi", "--out", str(hist_path)])
    if n_isi and (rc != 0 or _hist_total(hist_path) != n_isi):
        res.failures.append(f"{label}: cli analyze --isi does not count all {n_isi} intervals")
    return cross


def _cli(tr, config: str, argv: list[str]) -> int:
    """``cli.main(argv)`` as one span, with the CLI's own calls into other modules traced."""
    patch = tr.patched(cli, CLI_TRACED) if tr.enabled else contextlib.nullcontext()
    with patch, contextlib.redirect_stdout(io.StringIO()):
        rc = tr.call("cli.main", cli.main, argv, counts=lambda a, r: {"config": config})
    tr.collect()
    return rc


def _hist_total(path: Path) -> int:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return sum(int(r.split(",")[1]) for r in rows if r)


# ---------------------------------------------------------------- workloads


def _ring_seed(job) -> tuple[dict, PassResult]:
    """The ring variants at one master seed, serially through ``engine.run``;
    runs in a worker process.  Returns cross-island rho per variant."""
    ring, tr, out_dir, variants, master_seed = job
    res = PassResult()
    cross = {}
    for name in variants:
        network, hints = tr.call("configio.parse_document", parse_document, load_builtin(name))
        sim = SimConfig(duration=ring.duration, dt=hints.get("dt", 1e-8), master_seed=master_seed)
        cross[name] = _simulate_and_analyse(tr, name, network, sim, out_dir, res)
    return cross, res


class RingSeeds:
    """fig6E/F/G/H at several master seeds: the paper's headline experiment.

    Inputs ``k`` are the k-th group of ``n_seeds`` master seeds drawn from the
    workload seed.  A pass's time is mostly fig6G's, whose spike count varies
    by about a sixth between master seeds, so an untraced run gives each pass
    new seeds and its mean pass time averages over all of them.

    Each master seed runs in its own worker process, at most ``jobs`` at
    once, as ``cli sweep --jobs`` runs its values.  On a shared host a lone
    process runs at a speed set by other tenants; with both CPUs busy it
    varies far less.  On a 2-vCPU VM, 25-second mean times of a fixed
    simulation varied by 9% (standard deviation over mean, five blocks over
    five minutes) in one process and by 3% in two processes at once.
    """

    name = "ring_seeds"

    def __init__(self, seed: int, duration: float = 120e-6, n_seeds: int = 2, variants=RING_VARIANTS):
        self.seed = seed
        self.duration = duration
        self.n_seeds = n_seeds
        self.variants = tuple(variants)
        self.jobs = min(2, len(os.sched_getaffinity(0)))

    def master_seeds(self, inputs: int) -> list[int]:
        return _master_seeds(self.name, self.seed, self.n_seeds * (inputs + 1))[-self.n_seeds:]

    def config_texts(self) -> dict[str, str]:
        return {name: load_builtin(name) for name in self.variants}

    def run_pass(self, tr, out_dir: Path, inputs: int = 0, first_only: bool = False) -> PassResult:
        variants = self.variants[:1] if first_only else self.variants
        jobs = [(self, tr, out_dir, variants, m) for m in self.master_seeds(inputs)[:1 if first_only else None]]
        if first_only:
            results = [_ring_seed(jobs[0])]
        else:
            # One task per worker, so that span ids (pid:counter) stay unique.
            with multiprocessing.get_context("fork").Pool(self.jobs, maxtasksperchild=1) as pool:
                results = pool.map(_ring_seed, jobs, chunksize=1)
                pool.close()
                pool.join()
            tr.collect()
        res = PassResult()
        cross = {name: [] for name in variants}
        for seed_cross, seed_res in results:
            res.digests.update(seed_res.digests)
            res.failures.extend(seed_res.failures)
            for name, c in seed_cross.items():
                cross[name].append(c)
        # As in the c07 acceptance check, the claim is on the mean over seeds:
        # in a 120 us window one seed's chance correlation in fig6E can exceed
        # fig6F's rise (0.154 against 0.113 at master seed 281996561).
        control = variants[0]
        base = float(np.mean(cross[control]))
        for name in variants[1:]:
            c = float(np.mean(cross[name]))
            if not c > base:
                res.failures.append(f"mean cross-island rho of {name} ({c:.3f}) not above {control} ({base:.3f})")
        return res


class SingleNeuronSweep:
    """``cli sweep --axis noise-density`` on one neuron under white and pink noise."""

    name = "single_neuron_sweep"
    # Pink variant made by the benchmark: same neuron, 1/f noise over the
    # AC-coupled band of the pink-tail acceptance check.
    PINK_NOISE = "noise pink rms=1.5e-06 band=10000.0:5000000.0 seed=0 stream=0"
    # Noise densities (A/sqrt(Hz)) swept for each noise kind; two per sweep
    # keep both worker processes busy.
    VALUES = {"white": (350e-12, 600e-12), "pink": (500e-12, 900e-12)}

    def __init__(self, seed: int, duration: float = 50e-3):
        self.duration = duration
        self.jobs = min(2, len(os.sched_getaffinity(0)))
        self.base_seed = _master_seeds(self.name, seed, 1)[0]

    def config_texts(self) -> dict[str, str]:
        white = load_builtin(SWEEP_CONFIG)
        lines = [self.PINK_NOISE if ln.strip().startswith("noise ") else ln for ln in white.splitlines()]
        return {"white": white, "pink": "\n".join(lines) + "\n"}

    def run_pass(self, tr, out_dir: Path, inputs: int = 0, first_only: bool = False) -> PassResult:
        # The same inputs for every index: the sweep's time hardly depends on
        # the seed, and repeating the inputs checks every spikes CSV again.
        res = PassResult()
        texts = self.config_texts()
        for kind in ("white",) if first_only else ("white", "pink"):
            text = texts[kind]
            cfg = out_dir / f"{kind}.cfg"
            cfg.write_text(text, encoding="utf-8")
            values = self.VALUES[kind]
            if tr.enabled:
                network, hints = parse_document(text)  # bookkeeping only, not a traced call
                for run_index, v in enumerate(values):
                    net_v = replace(network, noise=tuple(replace(ns, density=v) for ns in network.noise))
                    sim = SimConfig(duration=self.duration, dt=hints.get("dt", 1e-8),
                                    master_seed=derive_seed(self.base_seed, run_index))
                    _time_noise(tr, net_v, sim)
            sweep_dir = out_dir / kind
            argv = ["sweep", "--config", str(cfg), "--axis", "noise-density",
                    "--values", ",".join(f"{v:g}" for v in values), "--out", str(sweep_dir),
                    "--seed", str(self.base_seed), "--duration", repr(self.duration),
                    "--jobs", str(self.jobs)]
            rc = _cli(tr, f"{SWEEP_CONFIG}:{kind}", argv)
            if rc != 0:
                res.failures.append(f"{kind}: cli sweep exited with {rc}")
                continue
            self._check_sweep(tr, kind, values, sweep_dir, res)
        return res

    def _check_sweep(self, tr, kind, values, sweep_dir: Path, res: PassResult) -> None:
        means = []
        for v in values:
            csv_path = sweep_dir / f"noise-density={v:g}" / "spikes.csv"
            res.digests[f"{kind}@{v:g}"] = _digest(csv_path)
            events = tr.call("io.read_events_csv", read_events_csv, csv_path)
            intervals = tr.call("analysis.isi", isi, events[0]) if events else np.empty(0)
            if intervals.size < 2:
                res.failures.append(f"{kind} density {v:g}: fewer than 3 spikes")
                return
            tr.call("analysis.histogram", histogram, intervals, ISI_HIST_BIN_S, counts=_hist_bins)
            means.append(float(intervals.mean()))
        summary = (sweep_dir / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]
        reported = [float(row.split(",")[2]) for row in summary]
        if not np.allclose(reported, means, rtol=1e-6, atol=0.0):
            res.failures.append(f"{kind}: summary.csv mean ISI {reported} != spikes.csv {means}")
        if not all(a > b for a, b in zip(means, means[1:])):
            res.failures.append(f"{kind}: mean ISI {means} does not fall as noise density rises")


WORKLOADS = {w.name: w for w in (RingSeeds, SingleNeuronSweep)}
