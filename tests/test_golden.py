"""Golden behaviour gate: exact output of every shipped config.

Each case is the sha256 of the bytes ``io.write_spikes_csv`` writes for a
shipped config at master seeds 0 and 1 over 40 us (every network config
spikes in that window), plus one traced run whose membrane traces are
hashed bit for bit.  The single neuron is pinned further over 2 ms
(200 000 steps) under its white drive, under that drive held on a grid of
three steps, and under the benchmark's pink drive, together with the raw
bytes of one pink series.  Every single-neuron hash is checked on the
compiled one-neuron network and on the Python single-neuron loop (the
``engine_path`` fixture), which must give the same bits.  The busy ring configs fig6G and
fig5B_ring8, in which a pulse is in flight on most steps, are pinned over
120 us at master seeds 2 and 3 together with their ``SpikeRecord.stats``,
on the compiled and on the Python neuron layer.
The network each shipped config parses to is pinned by the sha256 of its
canonical text (``serialize_config``), so a config rewritten in another
form must still describe the same network, edge for edge.  A change that is meant to
keep behaviour (a faster path, a refactor) must leave every hash as it is; a change that moves
trajectories on purpose re-baselines them and says so in CHANGES.md.

The ring configs are chaotic in the last bit of floating-point rounding.
The synapse layer takes its ``exp``, ``log`` and ``log1p`` from libm on
both paths (numpy's own loops round otherwise where they use AVX-512), so
these hashes hold on any x86-64 host with the same libm, whatever SIMD
code numpy dispatches to; a test runs the busy fig6G case and the traced
run with numpy's AVX-512 loops turned off.  The pink filter is the
exception: its matmuls round with the BLAS kernel, so another OpenBLAS
kernel can give other pink hashes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spikeislands
from spikeislands.configio import builtin_names, load_builtin, parse_document, serialize_config
from spikeislands.engine import SimConfig, run
from spikeislands.io import write_spikes_csv
from spikeislands.noise import NoiseSpec, generate

SRC = Path(spikeislands.__file__).resolve().parent.parent
DURATION = 40e-6

# sha256 of serialize_config(parse_document(load_builtin(name))[0]).
CONFIG_SHA256 = {
    "fig3_single_neuron": "4a1881449c05d3261e66c0a275320edf5c2ca1b6783b96f111c4fe1000cfbae7",
    "fig4B_islands": "23ba901347bcde5579baf43c3baf678b2f7d2e15d7dc915222564fdc157294db",
    "fig5A_nobond": "23ba901347bcde5579baf43c3baf678b2f7d2e15d7dc915222564fdc157294db",
    "fig5B_ring8": "790a3b0206e0edbf8af884f7c07a046202c5f930538a16c2140eb9d92e090871",
    "fig6E": "23ba901347bcde5579baf43c3baf678b2f7d2e15d7dc915222564fdc157294db",
    "fig6F": "3b42a10cb95869896314b297122ff8524574d18d3e60c4b6bcecf59ad4a69205",
    "fig6G": "3d1b662dabbc38bf8409a33fd52e4de7378f2c496976b129f940e3d0b4483420",
    "fig6H": "c753bd2e37ab2d126543ded66ccfe9152d9fcec638a4dba721e92e4de4b40ecc",
}

SPIKES_SHA256 = {
    ("fig3_single_neuron", 0): "0b1e743f32394b0f87f9bc4105d6a780342702ca3691265028abf14460646fa3",
    ("fig3_single_neuron", 1): "3ba7ca888ec6315c88eb2b60d96f68c9f989b0ea04681f022e54c23559820cd3",
    ("fig4B_islands", 0): "8e6aa5ddc6616c9a5e08de0c11cd9730d2958065a6df637804c5a91d448d1d49",
    ("fig4B_islands", 1): "23cec1f9c5f918c56e93b1418a26a30d00c42a4c91500b79d23f6d7a1e8cc8e8",
    ("fig5A_nobond", 0): "8e6aa5ddc6616c9a5e08de0c11cd9730d2958065a6df637804c5a91d448d1d49",
    ("fig5A_nobond", 1): "23cec1f9c5f918c56e93b1418a26a30d00c42a4c91500b79d23f6d7a1e8cc8e8",
    ("fig5B_ring8", 0): "e1c679a59767b3ea1474248cd6a3cd0020a8121a41e167e489efce02bbdabcfd",
    ("fig5B_ring8", 1): "32a23c01399dce76d5d58b3e678e3eb7d0c796fa84cb27b186df7a20f4fbb310",
    ("fig6E", 0): "8e6aa5ddc6616c9a5e08de0c11cd9730d2958065a6df637804c5a91d448d1d49",
    ("fig6E", 1): "23cec1f9c5f918c56e93b1418a26a30d00c42a4c91500b79d23f6d7a1e8cc8e8",
    ("fig6F", 0): "d3617f4816eacfe299a2bc81b3f2322ffdbeca0d613dad3057fea9ddf606ba59",
    ("fig6F", 1): "ea569876aef94cfa732af6aba01b8946396420a447ad2cf2e3c256300b211496",
    ("fig6G", 0): "e76f79e7db4012f65398ef671f94115985c168e0bfc2de6215bffa7c62099118",
    ("fig6G", 1): "d5795290a85a6634ba6db07cf2009ae6844b7c5799fd485d809adad1aff4f537",
    ("fig6H", 0): "5440d2f98d166dbbbe6e842d2f5da5b3ff5c7d1e0c4747feeb24f59b9c9519bf",
    ("fig6H", 1): "c8cfd815e4d9a9725d9e184aa4af23d4279123e685df52ac4583c1f0fd9ec5d1",
}

TRACED_SHA256 = {
    "spikes": "ea569876aef94cfa732af6aba01b8946396420a447ad2cf2e3c256300b211496",
    "traces": "2c52760546fd00556dcc8860e1c40399c277b2a54be68255996273a5d72ea307",
}


# fig3_single_neuron over 2 ms: "white" as shipped; "held" with its band cut
# to 10 MHz (below the Nyquist frequency of the held grid) and noise_dt =
# 3 dt; "pink" under the pink drive of the benchmark's sweep.
SINGLE_DURATION = 2e-3
SINGLE_NOISE = {
    "white": None,
    "held": "noise white rms=1.5e-06 band=10.0:1e7 seed=0 stream=0",
    "pink": "noise pink rms=1.5e-06 band=10000.0:5000000.0 seed=0 stream=0",
}
SINGLE_SHA256 = {
    ("white", 0): "7647b1d9950fe49608e16d569bf64f2da50921a3faca516fd6e021c82f3eee63",
    ("white", 1): "5de4a30fb8403d1e6f9ab23691cd3632e89002d5f063390e7df022b004e31f19",
    ("held", 0): "017181c5166a42335cdfa42a795f45e3f5deea89945c25468be5df099b8437be",
    ("held", 1): "cfe5ae17e0356174f66734c7fca7523cca659363fcc5c916bb56902d7955751d",
    ("pink", 0): "13946d611125bddd932e01ae52032b0ce99289e2f62f4a10dc3313b6609986d9",
    ("pink", 1): "5b97de151f8be17b7ad060d408f6563ca3ea78e1ae44451d67e52964928d0a23",
}

# fig6G and fig5B_ring8 over 120 us: the spikes CSV and the run's stats.
BUSY_DURATION = 120e-6
BUSY_SHA256 = {
    ("fig6G", 2): "1fc946345e55855977b8c54fe10432725cafebb8f961e90e1c97009c6939205d",
    ("fig6G", 3): "e9b790be884040563cb4bcd0df1f05ae4d654fa0cd4a8baabbbb2cbf0e5247cd",
    ("fig5B_ring8", 2): "66adca539048bc8a80607f7ec49577f7df1562d7445ab777d7c22811823bbf65",
    ("fig5B_ring8", 3): "0be639c4d524c7c48f28ea317b8753ffbe016ddf8358eea8d39ee07df7802605",
}
BUSY_STATS = {
    ("fig6G", 2): {"steps": 12000, "quiet_steps": 3886, "pulse_steps": 7462, "rising_solves": 3292,
                   "spikes_per_island": [1472, 1541, 1459, 1434]},
    ("fig6G", 3): {"steps": 12000, "quiet_steps": 4388, "pulse_steps": 7048, "rising_solves": 3362,
                   "spikes_per_island": [1435, 1556, 1474, 1427]},
    ("fig5B_ring8", 2): {"steps": 12000, "quiet_steps": 1737, "pulse_steps": 9862, "rising_solves": 3643,
                         "spikes_per_island": [1340, 1327, 1223, 1174]},
    ("fig5B_ring8", 3): {"steps": 12000, "quiet_steps": 1253, "pulse_steps": 10247, "rising_solves": 3514,
                         "spikes_per_island": [1421, 1205, 1169, 1010]},
}

PINK_SERIES_SHA256 = "3ba441310141ce42929c9be35c305f37984f95f9adfa3fe9af8ade9d826887bb"


def spikes_sha256(record, tmp_path) -> str:
    path = tmp_path / "spikes.csv"
    write_spikes_csv(record, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def config_sha256(name: str) -> str:
    network, _ = parse_document(load_builtin(name))
    return hashlib.sha256(serialize_config(network).encode()).hexdigest()


def traces_sha256(traces) -> str:
    t, by_id = traces
    h = hashlib.sha256(np.ascontiguousarray(t, dtype=np.float64).tobytes())
    for nid in sorted(by_id):
        h.update(np.ascontiguousarray(by_id[nid], dtype=np.float64).tobytes())
    return h.hexdigest()


def run_builtin(name: str, seed: int, duration: float = DURATION, **sim_kw):
    network, _ = parse_document(load_builtin(name))
    return run(network, SimConfig(duration=duration, dt=1e-8, master_seed=seed, **sim_kw))


def test_every_shipped_config_is_pinned():
    assert sorted({name for name, _ in SPIKES_SHA256}) == sorted(builtin_names())
    assert sorted(CONFIG_SHA256) == sorted(builtin_names())


@pytest.mark.parametrize("name", sorted(CONFIG_SHA256))
def test_parsed_network_matches_golden_hash(name):
    assert config_sha256(name) == CONFIG_SHA256[name]


@pytest.mark.parametrize("name,seed", sorted(key for key in SPIKES_SHA256 if key[0] != "fig3_single_neuron"))
def test_spikes_csv_matches_golden_hash(name, seed, tmp_path):
    assert spikes_sha256(run_builtin(name, seed), tmp_path) == SPIKES_SHA256[name, seed]


@pytest.mark.parametrize("seed", [0, 1])
def test_single_neuron_spikes_csv_matches_golden_hash(seed, engine_path, tmp_path):
    name = "fig3_single_neuron"
    assert spikes_sha256(run_builtin(name, seed), tmp_path) == SPIKES_SHA256[name, seed]


def test_traced_run_matches_golden_hashes(tmp_path):
    rec = run_builtin("fig6F", 1, record_traces="all", trace_decimation=1)
    assert len(rec.traces[0]) == int(round(DURATION / 1e-8)) + 1
    assert spikes_sha256(rec, tmp_path) == TRACED_SHA256["spikes"]
    assert traces_sha256(rec.traces) == TRACED_SHA256["traces"]


@pytest.mark.parametrize("name,seed", sorted(BUSY_SHA256))
def test_busy_ring_matches_golden_hash_and_stats(name, seed, engine_path, tmp_path):
    rec = run_builtin(name, seed, BUSY_DURATION)
    assert spikes_sha256(rec, tmp_path) == BUSY_SHA256[name, seed]
    assert rec.stats == BUSY_STATS[name, seed]


# numpy's AVX-512 loops, which NPY_DISABLE_CPU_FEATURES turns off.
AVX512_OFF = ("X86_V4 AVX512F AVX512CD AVX512VL AVX512BW AVX512DQ AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL "
              "AVX512_SPR AVX512VNNI AVX512IFMA AVX512VBMI AVX512VBMI2 AVX512BITALG AVX512FP16 AVX512BF16 "
              "AVX512VPOPCNTDQ")

# A process that runs the busy fig6G case at seed 2 and the traced run on
# the engine path in argv[1] and prints their hashes and stats.
HOST_PROBE = """
import sys, tempfile
from pathlib import Path
import test_golden as g
from spikeislands import _kernel
if sys.argv[1] == "python":
    _kernel.load = lambda: None
assert (_kernel.load() is not None) == (sys.argv[1] == "compiled")
with tempfile.TemporaryDirectory() as tmp:
    busy = g.run_builtin("fig6G", 2, g.BUSY_DURATION)
    traced = g.run_builtin("fig6F", 1, record_traces="all", trace_decimation=1)
    print(g.spikes_sha256(busy, Path(tmp)), g.spikes_sha256(traced, Path(tmp)), g.traces_sha256(traced.traces))
    print(busy.stats)
"""


def test_busy_and_traced_hashes_hold_without_avx512(engine_path):
    # numpy's SIMD dispatch does not reach the trajectories: with its
    # AVX-512 loops off, both paths give the pinned hashes and stats
    path = "compiled" if engine_path.__module__.endswith("_kernel") else "python"
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": AVX512_OFF,
           "PYTHONPATH": os.pathsep.join([str(SRC), str(Path(__file__).parent)])}
    proc = subprocess.run([sys.executable, "-c", HOST_PROBE, path], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    hashes, stats = proc.stdout.splitlines()
    assert hashes.split() == [BUSY_SHA256["fig6G", 2], TRACED_SHA256["spikes"], TRACED_SHA256["traces"]]
    assert stats == str(BUSY_STATS["fig6G", 2])


def single_neuron_text(variant: str) -> str:
    text = load_builtin("fig3_single_neuron")
    line = SINGLE_NOISE[variant]
    if line is None:
        return text
    return "\n".join(line if ln.strip().startswith("noise ") else ln for ln in text.splitlines()) + "\n"


def run_single_neuron_variant(variant: str, seed: int):
    network, _ = parse_document(single_neuron_text(variant))
    noise_dt = 3e-8 if variant == "held" else None
    return run(network, SimConfig(duration=SINGLE_DURATION, dt=1e-8, master_seed=seed, noise_dt=noise_dt))


@pytest.mark.parametrize("variant,seed", sorted(SINGLE_SHA256))
def test_single_neuron_matches_golden_hash(variant, seed, engine_path, tmp_path):
    assert spikes_sha256(run_single_neuron_variant(variant, seed), tmp_path) == SINGLE_SHA256[variant, seed]


def pink_series_sha256() -> str:
    series = generate(NoiseSpec("pink", 200e-12, band=(10.0, 5e6), seed=7, stream_id=3), 200_000, 1e-8)
    return hashlib.sha256(series.tobytes()).hexdigest()


def test_pink_series_matches_golden_hash():
    assert pink_series_sha256() == PINK_SERIES_SHA256


def test_pink_series_does_not_depend_on_blas_threads():
    # the pink filter is a chain of matmuls; on one BLAS thread it gives
    # the same bits as on the default number
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(SRC), str(Path(__file__).parent)])}
    proc = subprocess.run([sys.executable, "-c", "import test_golden; print(test_golden.pink_series_sha256())"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == PINK_SERIES_SHA256


def _print_dict(name: str, entries: dict, pinned: dict, literal=lambda key, value: f'"{value}"') -> None:
    """Print ``entries`` as the file writes ``name``; an entry that differs
    from the file's ``pinned`` one ends in a ``# was`` comment with the old
    value."""
    print(f"{name} = {{")
    for key, value in entries.items():
        line = f"    {key!r}: {literal(key, value)},"
        if value != pinned.get(key):
            line += f"  # was {pinned.get(key)}"
        print(line.replace("'", '"'))
    print("}")


def _stats_literal(key, stats) -> str:
    """``stats`` as the file writes it: the counters, then the per-island
    spikes on a line of their own, aligned under the opening brace."""
    counters = ", ".join(f'"{k}": {v}' for k, v in stats.items() if k != "spikes_per_island")
    indent = " " * (len(f"    {key!r}: {{"))
    return f'{{{counters},\n{indent}"spikes_per_island": {stats["spikes_per_island"]}}}'


def main() -> None:
    """Print the current hashes and stats in this file's layout, for a
    change that re-takes them: ``PYTHONPATH=src python tests/test_golden.py``.
    Each value that differs from the one pinned here is followed by
    ``# was <old value>``, which gives a re-baseline its old -> new list."""
    import tempfile

    _print_dict("CONFIG_SHA256", {name: config_sha256(name) for name in CONFIG_SHA256}, CONFIG_SHA256)
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        _print_dict("SPIKES_SHA256", {
            (name, seed): spikes_sha256(run_builtin(name, seed), tmp_path) for name, seed in SPIKES_SHA256},
            SPIKES_SHA256)
        rec = run_builtin("fig6F", 1, record_traces="all", trace_decimation=1)
        _print_dict("TRACED_SHA256", {"spikes": spikes_sha256(rec, tmp_path), "traces": traces_sha256(rec.traces)},
                    TRACED_SHA256)
        _print_dict("SINGLE_SHA256", {
            key: spikes_sha256(run_single_neuron_variant(*key), tmp_path) for key in SINGLE_SHA256}, SINGLE_SHA256)
        busy = {key: run_builtin(*key, BUSY_DURATION) for key in BUSY_SHA256}
        _print_dict("BUSY_SHA256", {key: spikes_sha256(rec, tmp_path) for key, rec in busy.items()}, BUSY_SHA256)
        _print_dict("BUSY_STATS", {key: rec.stats for key, rec in busy.items()}, BUSY_STATS, _stats_literal)
    pink = pink_series_sha256()
    was = "" if pink == PINK_SERIES_SHA256 else f"  # was {PINK_SERIES_SHA256}"
    print(f'PINK_SERIES_SHA256 = "{pink}"{was}')


if __name__ == "__main__":
    main()
