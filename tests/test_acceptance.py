"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion is one test that prints a single summary line with the
measured quantities when it passes (run with ``pytest -s`` to see them
inline; they also appear in captured output on failure).
"""

import subprocess
import sys
import time

import numpy as np
import pytest
from oracles import eq3_oracle

from spikeislands.analysis import EventSeries, block_means, isi, pearson_matrix, record_matrix, threshold_sweep
from spikeislands.configio import builtin_names, load_builtin, parse_document
from spikeislands.engine import SimConfig, run, run_single_neuron
from spikeislands.io import spikes_to_csv
from spikeislands.noise import NoiseSpec, generate, psd_estimate
from spikeislands.presets import neuron_preset, synapse_preset
from spikeislands.synapse import SynapseState, dpi_step, time_constant

SEEDS = (0, 1, 2, 3, 4)
DT = 1e-8


def report(line: str) -> None:
    print(f"[acceptance] {line}")


def block_stats(config_name: str, seeds=SEEDS, duration=None):
    """Mean within-island and cross-island rho over seeds, default bins."""
    net, hints = parse_document(load_builtin(config_name))
    duration = duration or hints["duration"]
    within, cross = [], []
    for seed in seeds:
        rec = run(net, SimConfig(duration=duration, dt=hints.get("dt", DT), master_seed=seed))
        w, c = block_means(record_matrix(rec), rec.island_of)
        within.append(w)
        cross.append(c)
    return float(np.mean(within)), float(np.mean(cross))


def test_c01_dpi_steady_state():
    """DPI output under constant i_in = 10 i_tau settles to i_in - i_tau
    within 1% after 10 tau; runtime < 1 s."""
    t0 = time.time()
    params = synapse_preset("fast-dpi")
    tau = time_constant(params)
    i_in = 10.0 * params.i_tau
    state = SynapseState(i_out=params.i_floor)
    dt = tau / 20.0
    for _ in range(int(round(10.0 * tau / dt))):
        state = dpi_step(state, params, i_in, dt)
    expected = i_in - params.i_tau
    rel = abs(state.i_out - expected) / expected
    elapsed = time.time() - t0
    assert rel < 0.01, f"steady-state relative error {rel:.4f}"
    assert elapsed < 1.0
    report(f"C1 DPI steady state: settled to i_in - i_tau within {rel * 100:.3f}% after 10 tau "
           f"({elapsed:.2f} s) -> PASS")


def test_c02_pearson_oracle_1000_sets():
    """pearson_matrix matches the extended-precision term-by-term oracle on
    1000 random series sets (max abs error < 1e-12); symmetry and unit
    diagonal exact to 1e-12; runtime < 10 s."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(16, 48))
        kind = rng.integers(0, 3)
        if kind == 0:
            series = rng.integers(0, 4, size=(m, n)).astype(float)
        elif kind == 1:
            series = rng.standard_normal((m, n)) * rng.uniform(0.1, 10)
        else:
            series = rng.poisson(1.0, size=(m, n)).astype(float)
        if np.any(series.std(axis=1) == 0):
            series[:, 0] += 1.0  # keep this batch non-degenerate
        got = pearson_matrix(series)
        expected = eq3_oracle(series)
        worst = max(worst, float(np.nanmax(np.abs(got.values - expected))))
        assert np.array_equal(got.values, got.values.T)
        assert np.max(np.abs(np.diag(got.values) - 1.0)) <= 1e-12
    elapsed = time.time() - t0
    assert worst < 1e-12, f"max abs deviation {worst:.2e}"
    assert elapsed < 10.0
    report(f"C2 Pearson vs oracle: 1000 sets, max |diff| = {worst:.2e}, "
           f"symmetry/diagonal exact ({elapsed:.1f} s) -> PASS")


def test_c03_threshold_plateau():
    """On a 1 ms noisy-drive membrane trace, spike counts at 1.0 V and
    2.0 V are equal and the count at 0.25 V exceeds them; runtime < 10 s."""
    t0 = time.time()
    spec = NoiseSpec.from_rms("white", 1.5e-6, band=(10.0, 0.5 / DT), seed=0)
    p = neuron_preset("fast-mode")
    rec = run_single_neuron(
        spec, p, SimConfig(duration=1e-3, dt=DT, master_seed=0, trace_decimation=1)
    )
    t, by_id = rec.traces
    counts = dict(threshold_sweep(by_id[0], DT, [0.25, 1.0, 2.0]))
    elapsed = time.time() - t0
    assert counts[1.0] == counts[2.0], f"plateau broken: {counts}"
    assert counts[0.25] > counts[1.0], f"no sub-threshold excess: {counts}"
    assert elapsed < 10.0
    report(f"C3 threshold plateau: counts 0.25 V: {counts[0.25]}, 1 V: {counts[1.0]}, "
           f"2 V: {counts[2.0]} ({elapsed:.1f} s) -> PASS")


def test_c04_isi_vs_white_density():
    """White-noise density sweep {350, 433, 516, 600} pA/rtHz over 5 ms
    runs gives strictly decreasing mean ISI; runtime < 1 min."""
    t0 = time.time()
    p = neuron_preset("fast-mode")
    means = []
    for dens in (350e-12, 433e-12, 516e-12, 600e-12):
        spec = NoiseSpec("white", dens, band=(10.0, 0.5 / DT), seed=0)
        rec = run_single_neuron(spec, p, SimConfig(duration=5e-3, dt=DT, master_seed=1))
        intervals = isi(EventSeries(0, rec.times[0]))
        assert intervals.size > 50
        means.append(float(intervals.mean()))
    elapsed = time.time() - t0
    assert all(a > b for a, b in zip(means, means[1:])), f"means not decreasing: {means}"
    assert elapsed < 60.0
    report("C4 ISI vs density: mean ISI [us] = "
           + ", ".join(f"{m * 1e6:.2f}" for m in means)
           + f" strictly decreasing ({elapsed:.1f} s) -> PASS")


def test_c05_pink_heavier_isi_tail():
    """At matched 1.5 uA rms over 50 ms, the pink-noise ISI 95th percentile
    exceeds the white-noise one by at least 20%; runtime < 2 min.

    Both sources share the band (10 kHz, 5 MHz): the noise injection chain
    is AC-coupled, so spectral content slower than ~10 kHz enters the
    membrane as a quasi-DC bias rather than noise.  (With the band opened
    down to 10 Hz the pink source's sub-kilohertz power saturates the
    leakless integrator into millisecond tonic stretches, compressing the
    ISI distribution instead of stretching its tail.)
    """
    t0 = time.time()
    p = neuron_preset("fast-mode")
    sim = SimConfig(duration=50e-3, dt=DT, master_seed=3)
    white = run_single_neuron(NoiseSpec.from_rms("white", 1.5e-6, band=(1e4, 5e6), seed=0), p, sim)
    pink = run_single_neuron(NoiseSpec.from_rms("pink", 1.5e-6, band=(1e4, 5e6), seed=0), p, sim)
    isi_w = isi(EventSeries(0, white.times[0]))
    isi_p = isi(EventSeries(0, pink.times[0]))
    assert isi_w.size > 100 and isi_p.size > 100
    p95_w = float(np.percentile(isi_w, 95))
    p95_p = float(np.percentile(isi_p, 95))
    elapsed = time.time() - t0
    assert p95_p >= 1.2 * p95_w, f"p95 pink {p95_p:.3e} vs white {p95_w:.3e}"
    assert elapsed < 120.0
    report(f"C5 pink tail: ISI p95 pink {p95_p * 1e6:.1f} us vs white {p95_w * 1e6:.1f} us "
           f"(ratio {p95_p / p95_w:.2f} >= 1.2, {elapsed:.1f} s) -> PASS")


def test_c06_island_correlation_control():
    """fig5A_nobond: mean within-island rho - mean cross-island rho > 0.4;
    fig5B_ring8 raises mean cross-island rho by > 0.2; 5 seeds;
    runtime < 5 min."""
    t0 = time.time()
    w_nb, c_nb = block_stats("fig5A_nobond")
    _, c_r8 = block_stats("fig5B_ring8")
    elapsed = time.time() - t0
    assert w_nb - c_nb > 0.4, f"no-bond separation {w_nb - c_nb:.3f}"
    assert c_r8 - c_nb > 0.2, f"ring8 rise {c_r8 - c_nb:.3f}"
    assert elapsed < 300.0
    report(f"C6 correlation control: no-bond within-cross = {w_nb - c_nb:.3f} (> 0.4), "
           f"ring8 cross rise = {c_r8 - c_nb:.3f} (> 0.2) over 5 seeds ({elapsed:.0f} s) -> PASS")


def test_c07_multisynapse_ordering():
    """Mean cross-island rho ordered (0x0) < (3x15) < (3x8 multiplicity 3)
    <= (9x15), strict for the first two steps; 5 seeds; runtime < 10 min."""
    t0 = time.time()
    cross = {}
    for name in ("fig6E", "fig6F", "fig6G", "fig6H"):
        _, cross[name] = block_stats(name)
    elapsed = time.time() - t0
    e, f, g, h = cross["fig6E"], cross["fig6F"], cross["fig6G"], cross["fig6H"]
    assert e < f, f"(0x0) {e:.3f} !< (3x15) {f:.3f}"
    assert f < g, f"(3x15) {f:.3f} !< (3x8) {g:.3f}"
    assert g <= h, f"(3x8) {g:.3f} !<= (9x15) {h:.3f}"
    assert elapsed < 600.0
    report(f"C7 multi-synapse ordering: {e:.3f} < {f:.3f} < {g:.3f} <= {h:.3f} "
           f"over 5 seeds ({elapsed:.0f} s) -> PASS")


def test_c08_noise_spectra():
    """White PSD flat within +-1.5 dB and pink slope -10 +- 1 dB/decade
    over (10 f_lo, f_hi / 10), each from 100-seed averaged periodograms;
    runtime < 1 min."""
    t0 = time.time()
    band = (100.0, 5e5)
    dt = 1e-6
    dens = 2e-10

    acc_w = acc_p = None
    for seed in range(100):
        w = generate(NoiseSpec("white", dens, band, seed=seed, stream_id=0), 1 << 16, dt)
        f, pw = psd_estimate(w, dt, 8)
        pk = generate(NoiseSpec("pink", dens, band, seed=seed, stream_id=1), 1 << 16, dt)
        _, pp = psd_estimate(pk, dt, 8)
        acc_w = pw if acc_w is None else acc_w + pw
        acc_p = pp if acc_p is None else acc_p + pp
    acc_w /= 100
    acc_p /= 100
    sel = (f >= band[0] * 10) & (f <= band[1] / 10)
    flat_dev = np.abs(10 * np.log10(acc_w[sel] / dens**2)).max()
    slope = np.polyfit(np.log10(f[sel]), 10 * np.log10(acc_p[sel]), 1)[0]
    elapsed = time.time() - t0
    assert flat_dev < 1.5, f"white deviation {flat_dev:.2f} dB"
    assert abs(slope + 10.0) < 1.0, f"pink slope {slope:.2f} dB/decade"
    assert elapsed < 60.0
    report(f"C8 noise spectra: white flat within {flat_dev:.2f} dB, pink slope "
           f"{slope:.2f} dB/decade, 100 seeds ({elapsed:.0f} s) -> PASS")


def test_c09_determinism_all_configs_and_jobs(tmp_path):
    """Every shipped config re-run with the same seed yields byte-identical
    spikes.csv, and sweep artifacts are independent of --jobs;
    runtime < 5 min."""
    t0 = time.time()
    for name in builtin_names():
        net, hints = parse_document(load_builtin(name))
        duration = min(hints["duration"], 2.4e-4)
        sim = SimConfig(duration=duration, dt=hints.get("dt", DT), master_seed=42)
        a = spikes_to_csv(run(net, sim))
        b = spikes_to_csv(run(net, sim))
        assert a == b, f"{name}: re-run differs"

    outs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        res = subprocess.run(
            [sys.executable, "-m", "spikeislands", "sweep",
             "--config", "fig3_single_neuron", "--axis", "noise-density",
             "--values", "400e-12,600e-12", "--duration", "1e-3",
             "--out", str(out), "--jobs", jobs, "--seed", "9"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        outs[jobs] = out
    for sub in ("noise-density=4e-10", "noise-density=6e-10"):
        a = (outs["1"] / sub / "spikes.csv").read_bytes()
        b = (outs["2"] / sub / "spikes.csv").read_bytes()
        assert a == b, f"--jobs changed {sub}/spikes.csv"
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(f"C9 determinism: {len(builtin_names())} configs byte-identical on re-run, "
           f"sweep identical across --jobs ({elapsed:.0f} s) -> PASS")


def _fig5a_refinement_runs():
    net, hints = parse_document(load_builtin("fig5A_nobond"))
    coarse = run(net, SimConfig(duration=hints["duration"], dt=DT, master_seed=3, noise_dt=DT))
    fine = run(net, SimConfig(duration=hints["duration"], dt=DT / 2, master_seed=3, noise_dt=DT))
    return coarse, fine


def test_c10a_dt_refinement_spike_count():
    """Halving dt on fig5A (noise waveform held on the 10 ns grid) changes
    the total network spike count by < 2%; runtime < 10 min."""
    t0 = time.time()
    coarse, fine = _fig5a_refinement_runs()
    n1, n2 = coarse.total_spikes(), fine.total_spikes()
    count_change = abs(n2 - n1) / n1
    elapsed = time.time() - t0
    assert n1 > 100
    assert count_change < 0.02, f"count change {count_change * 100:.2f}%"
    assert elapsed < 600.0
    report(f"C10a dt refinement: spike count {n1} -> {n2}, change "
           f"{count_change * 100:.2f}% (< 2%) ({elapsed:.0f} s) -> PASS")


def test_c10b_dt_refinement_every_spike_within_dt():
    """Halving dt on fig5A moves every individual spike time by < dt.

    The noise waveform is held on the 10 ns grid, so both runs see the same
    drive.  The engine integrates neurons and synapses exactly under
    constant input: switches flip at their crossing instants, pulses start
    at the exact spike onset, undriven synapses decay in closed form and
    driven ones follow the closed-form DPI flow, and the membrane takes
    each synapse's mean current over the step.  Every spike onset is then
    the same instant in both runs up to rounding and the small dt-dependence
    of the step-mean synaptic current, and only the grid stamp differs:
    an onset in (k dt, (k + 1/2) dt] is reported at (k+1) dt in the coarse
    run and (k + 1/2) dt in the fine one, a move of at most dt/2.  A slow
    threshold crossing (weak drive) amplifies any trajectory offset by its
    inverse slope, which is why the check is made per spike.
    """
    coarse, fine = _fig5a_refinement_runs()
    worst = 0.0
    n_over = 0
    total = 0
    for a, b in zip(coarse.times, fine.times):
        n = min(len(a), len(b))
        if n:
            dev = np.abs(a[:n] - b[:n])
            worst = max(worst, float(dev.max()))
            n_over += int(np.sum(dev >= DT))
            total += n
    frac = n_over / total
    line = (f"C10b strict per-spike bound: {n_over} of {total} spikes moved >= dt "
            f"(max {worst * 1e9:.0f} ns, {frac * 100:.1f}%)")
    report(line + (" -> FAIL" if worst >= DT else " -> PASS"))
    assert worst < DT, line
