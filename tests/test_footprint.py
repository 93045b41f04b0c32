"""What a process loads and holds for a run.

scipy is needed only to design and run the pink filter, so importing the
package, parsing and validating configs and running under white noise
never load it.  A run holds its noise once: the single-neuron loop reads
the drive in chunks, and pink generation filters in chunks into the output
array.  Peak memory is measured with ``tracemalloc``, which sees numpy's
array buffers; the allowance of 1 MiB over the noise bytes covers one chunk
of drive as Python floats (16 384 of them, about 0.5 MiB) or one chunk of
pink filtering, and is far below a second copy of the noise plus a list of
every sample (about 8 MB at 200 000 samples).
"""

import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np

import spikeislands
from spikeislands.configio import load_builtin, parse_document
from spikeislands.engine import SimConfig, run
from spikeislands.noise import NoiseSpec, generate

SRC = Path(spikeislands.__file__).resolve().parent.parent
N = 200_000
DT = 1e-8
ALLOWANCE = 1 << 20
PINK = NoiseSpec("pink", 200e-12, band=(10.0, 5e6), seed=7, stream_id=3)


def peak_bytes(fn, *args):
    """Peak traced memory while ``fn(*args)`` runs, above what was traced
    before it started; a first, untraced call makes the one-off
    allocations of a process (imports, caches, the pink filter design)."""
    fn(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_single_neuron_run_holds_the_noise_once():
    network, _ = parse_document(load_builtin("fig3_single_neuron"))
    sim = SimConfig(duration=N * DT, dt=DT, master_seed=1)
    assert sim.n_steps == N
    assert peak_bytes(run, network, sim) <= 8 * N + ALLOWANCE


def test_held_single_neuron_run_holds_the_noise_once():
    text = load_builtin("fig3_single_neuron").replace("band=10.0:5e7", "band=10.0:1e7")
    network, _ = parse_document(text)
    sim = SimConfig(duration=N * DT, dt=DT, master_seed=1, noise_dt=3 * DT)
    assert peak_bytes(run, network, sim) <= 8 * (N // 3 + 1) + ALLOWANCE


def test_pink_generate_filters_into_one_array():
    assert peak_bytes(generate, PINK, N, DT) <= 8 * N + ALLOWANCE


def test_white_runs_never_load_scipy():
    pink_cfg = load_builtin("fig3_single_neuron").replace(
        "noise white rms=1.5e-06 band=10.0:5e7", "noise pink rms=1.5e-06 band=10000.0:5000000.0"
    )
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
        for name in ("fig3_single_neuron", "fig5A_nobond"):
            network, _ = parse_document(load_builtin(name))
            spikeislands.run(network, spikeislands.SimConfig(duration=1e-5, dt=1e-8))
        assert not scipy_modules(), scipy_modules()[:5]
        spec = spikeislands.NoiseSpec("pink", 200e-12, band=(10.0, 5e6))
        series = spikeislands.generate(spec, 4096, 1e-8)
        assert np.isfinite(series).all() and series.std() > 0.0
        assert "scipy.signal" in scipy_modules()
        print("ok")
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
