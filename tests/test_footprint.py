"""What a process loads and holds for a run.

The package needs numpy alone at run time: importing it, parsing and
validating configs, generating white or pink noise, running under either
and sweeping in worker processes never load scipy, which only the tests
use, as a reference.  A run reads its noise forward and holds one block
of each island's stream (``noise.NOISE_CHUNK`` samples, ``_Drive``), and
the Python single-neuron loop at most NOISE_CHUNK steps of it as Python
floats, so a run's peak memory does not grow with its duration: a run 10
times longer peaks within GROWTH_ALLOWANCE (256 KiB) of the shorter one,
which covers its longer spike lists.  Holding the whole noise instead would add 8 bytes per island
per step: 1.4 MB for the 180 000 extra steps of the single neuron, 0.6 MB
for the 18 000 extra steps of the four-island network.  ``generate`` still
returns the whole series, scaling a pink one into it a filtered chunk at a
time.
Peak memory is measured with ``tracemalloc``, which sees numpy's array
buffers.
"""

import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import spikeislands
from spikeislands.configio import load_builtin, parse_document
from spikeislands.engine import SimConfig, run
from spikeislands.noise import NoiseSpec, generate

SRC = Path(spikeislands.__file__).resolve().parent.parent
N = 200_000
DT = 1e-8
GROWTH_ALLOWANCE = 1 << 18
# Scratch of pink generation: a chunk of input, a chunk of filter output
# and the filter's block-sized temporaries.
CHUNK_ALLOWANCE = 1 << 20
PINK = NoiseSpec("pink", 200e-12, band=(10.0, 5e6), seed=7, stream_id=3)


def peak_bytes(fn, *args):
    """Peak traced memory while ``fn(*args)`` runs, above what was traced
    before it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def run_peaks(text: str, n_steps: int, **sim_kw) -> tuple[int, int]:
    """Peaks of a run of ``n_steps`` steps and of one 10 times longer, after
    an untraced run of the shorter one has made the one-off allocations of
    a process (imports, caches, the pink filter design)."""
    network, _ = parse_document(text)
    short, long = (SimConfig(duration=n * DT, dt=DT, master_seed=1, **sim_kw) for n in (n_steps, 10 * n_steps))
    assert long.n_steps == 10 * short.n_steps
    run(network, short)
    return peak_bytes(run, network, short), peak_bytes(run, network, long)


def test_single_neuron_run_peak_does_not_grow_with_duration():
    short, long = run_peaks(load_builtin("fig3_single_neuron"), N // 10)
    assert long <= short + GROWTH_ALLOWANCE


def test_held_single_neuron_run_peak_does_not_grow_with_duration():
    text = load_builtin("fig3_single_neuron").replace("band=10.0:5e7", "band=10.0:1e7")
    short, long = run_peaks(text, N // 10, noise_dt=3 * DT)
    assert long <= short + GROWTH_ALLOWANCE


def test_network_run_peak_does_not_grow_with_duration():
    short, long = run_peaks(load_builtin("fig5A_nobond"), 2_000)
    assert long <= short + GROWTH_ALLOWANCE


def test_pink_generate_filters_into_one_array():
    generate(PINK, N, DT)
    assert peak_bytes(generate, PINK, N, DT) <= 8 * N + CHUNK_ALLOWANCE


def test_runs_never_load_scipy(tmp_path):
    pink_cfg = load_builtin("fig3_single_neuron").replace(
        "noise white rms=1.5e-06 band=10.0:5e7", "noise pink rms=1.5e-06 band=10000.0:5000000.0"
    )
    cfg_path = tmp_path / "pink.cfg"
    cfg_path.write_text(pink_cfg, encoding="utf-8")
    script = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {str(SRC)!r})
        import numpy as np
        import spikeislands, spikeislands.cli
        from spikeislands.configio import builtin_names, load_builtin, parse_document

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        for text in [load_builtin(name) for name in builtin_names()] + [{pink_cfg!r}]:
            network, _ = parse_document(text)
            network.validate()
        for text in (load_builtin("fig3_single_neuron"), load_builtin("fig5A_nobond"), {pink_cfg!r}):
            network, _ = parse_document(text)
            spikeislands.run(network, spikeislands.SimConfig(duration=1e-5, dt=1e-8))
        spec = spikeislands.NoiseSpec("pink", 200e-12, band=(10.0, 5e6))
        series = spikeislands.generate(spec, 4096, 1e-8)
        assert np.isfinite(series).all() and series.std() > 0.0
        assert spikeislands.cli.main(["sweep", "--config", {str(cfg_path)!r}, "--axis", "noise-density",
                                      "--values", "5e-10,9e-10", "--duration", "1e-5", "--jobs", "2",
                                      "--out", {str(tmp_path / "sweep")!r}]) == 0
        assert not scipy_modules(), scipy_modules()[:5]
        print("ok")
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
