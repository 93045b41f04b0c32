"""Golden behaviour gate: exact output of every shipped config.

Each case is the sha256 of the bytes ``io.write_spikes_csv`` writes for a
shipped config at master seeds 0 and 1 over 40 us (every network config
spikes in that window), plus one traced run whose membrane traces are
hashed bit for bit.  The single neuron is pinned further over 2 ms
(200 000 steps) under its white drive, under that drive held on a grid of
three steps, and under the benchmark's pink drive, together with the raw
bytes of one pink series.  The busy ring configs fig6G and fig5B_ring8, in
which a pulse is in flight on most steps, are pinned over 120 us at master
seeds 2 and 3 together with their ``SpikeRecord.stats``.  The network
each shipped config parses to is pinned by the sha256 of its canonical
text (``serialize_config``), so a config rewritten in another form must
still describe the same network, edge for edge.  A change that is meant to
keep behaviour (a faster path, a refactor) must leave every hash as it is; a change that moves
trajectories on purpose re-baselines them and says so in CHANGES.md.

The ring configs are chaotic in the last bit of floating-point rounding,
so these hashes pin the numpy build too: numpy's ``exp``/``log`` may round
differently between SIMD code paths, and another build can legitimately
give other hashes.
"""

import hashlib

import numpy as np
import pytest

from spikeislands.configio import builtin_names, load_builtin, parse_document, serialize_config
from spikeislands.engine import SimConfig, run
from spikeislands.io import write_spikes_csv
from spikeislands.noise import NoiseSpec, generate

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
    ("fig3_single_neuron", 0): "d7f4ac5c2eb7497649a241fa8c432902b23dfb8a45534c288fd5bf6e6b073073",
    ("fig3_single_neuron", 1): "e497177472974fd6ea88d1140694af2931d36709d64ae6d57798d6b31f269c54",
    ("fig4B_islands", 0): "5ae8f775a106db0bf51d6ab406358cd157f8fa75890f03091a862b2ccb66cb7e",
    ("fig4B_islands", 1): "237ed618fa4fd236aa73f94fc036ac0cabe0e02c125b1defe1887ab7314847cf",
    ("fig5A_nobond", 0): "5ae8f775a106db0bf51d6ab406358cd157f8fa75890f03091a862b2ccb66cb7e",
    ("fig5A_nobond", 1): "237ed618fa4fd236aa73f94fc036ac0cabe0e02c125b1defe1887ab7314847cf",
    ("fig5B_ring8", 0): "b4d328553e1d2e5d93e441a1cb0831f8db2f7b2ebdd2c7859142ddec92dafa42",
    ("fig5B_ring8", 1): "ac7c6279f5a9788550de82792c401935234d653ce0e0d0b92cced56a8fe49ec2",
    ("fig6E", 0): "5ae8f775a106db0bf51d6ab406358cd157f8fa75890f03091a862b2ccb66cb7e",
    ("fig6E", 1): "237ed618fa4fd236aa73f94fc036ac0cabe0e02c125b1defe1887ab7314847cf",
    ("fig6F", 0): "384b89da667ab3e26dda3600361c62cd0566a5c97ef7a2aa8649b4756f27815d",
    ("fig6F", 1): "1d4d5a3494c1b971c16419d21627750876b06aeee60121a78ebe5c1fcbfffd3a",
    ("fig6G", 0): "7a9cff1f55f22c8a20fe8c9b3900da2c0c5ce100c26546fd6b7a62fe037e8bf6",
    ("fig6G", 1): "5a04bac18b253266b542856db953a2bc756b39d99b4616bdc145bf90c0af4039",
    ("fig6H", 0): "53d2a26403491d50428250093accf3d17dffc03547a94e1431e09541aca26e6d",
    ("fig6H", 1): "455652cc0ddaa905a002d4bb5d6795024378940140038089bfa866a9400d2677",
}

TRACED_SHA256 = {
    "spikes": "1d4d5a3494c1b971c16419d21627750876b06aeee60121a78ebe5c1fcbfffd3a",
    "traces": "0ecae6b7d521ac0d1c3370655e14cefb4df9007aea1a7c913bd3d23e0e076453",
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
    ("white", 0): "889e1d60e7a73d813d13acb1c578c2fde362894b358ddff31fedbd16de0eeea8",
    ("white", 1): "5a384d992ab8c652720d1b2440136b77183abc815b55dfe002bf3a9c59a4bd29",
    ("held", 0): "2ba36fde985195314e9da50f1a14f6f01ceefb76bdd99ae52321f0988636d2db",
    ("held", 1): "1240937d55c0d47a85377b7a6385dd298133ee8158c03b75669777f68fc13957",
    ("pink", 0): "83a8e34fd35c923ca51c0505bb2fd3b9b51e7df55e486c356b6022de9dd12beb",
    ("pink", 1): "e13a0bb802b5a881e07faa578dd206d48f010e7e1f21fb912ca223df02f3996b",
}

# fig6G and fig5B_ring8 over 120 us: the spikes CSV and the run's stats.
BUSY_DURATION = 120e-6
BUSY_SHA256 = {
    ("fig6G", 2): "c82840e53992320b9889a5fb78fbd3390200ad8c6fb08679e118b19684d68053",
    ("fig6G", 3): "23d467132e654501b2f0fdc6e476c3a836ca357309a15d4edb43578cd7e0d0cb",
    ("fig5B_ring8", 2): "a186bd918332bd17455870c050a64ed621a33b766e9cd4ea9e3575b679efabbb",
    ("fig5B_ring8", 3): "c7935c22af69b3da40b0a192f99ee99dc135f2437f03f20057b79ce9a406ca78",
}
BUSY_STATS = {
    ("fig6G", 2): {"steps": 12000, "quiet_steps": 4133, "pulse_steps": 7214, "rising_solves": 3230,
                   "spikes_per_island": [1476, 1506, 1440, 1390]},
    ("fig6G", 3): {"steps": 12000, "quiet_steps": 6200, "pulse_steps": 5222, "rising_solves": 2408,
                   "spikes_per_island": [1055, 1141, 1078, 1032]},
    ("fig5B_ring8", 2): {"steps": 12000, "quiet_steps": 7202, "pulse_steps": 4128, "rising_solves": 1243,
                         "spikes_per_island": [522, 490, 474, 369]},
    ("fig5B_ring8", 3): {"steps": 12000, "quiet_steps": 1651, "pulse_steps": 9864, "rising_solves": 3700,
                         "spikes_per_island": [1305, 1334, 1291, 1231]},
}

PINK_SERIES_SHA256 = "c742dd9a4084600280a6690fd7074996d583b745a359ce2ea9fe55a7b20350df"


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


@pytest.mark.parametrize("name,seed", sorted(SPIKES_SHA256))
def test_spikes_csv_matches_golden_hash(name, seed, tmp_path):
    assert spikes_sha256(run_builtin(name, seed), tmp_path) == SPIKES_SHA256[name, seed]


def test_traced_run_matches_golden_hashes(tmp_path):
    rec = run_builtin("fig6F", 1, record_traces="all", trace_decimation=1)
    assert len(rec.traces[0]) == int(round(DURATION / 1e-8)) + 1
    assert spikes_sha256(rec, tmp_path) == TRACED_SHA256["spikes"]
    assert traces_sha256(rec.traces) == TRACED_SHA256["traces"]


@pytest.mark.parametrize("name,seed", sorted(BUSY_SHA256))
def test_busy_ring_matches_golden_hash_and_stats(name, seed, tmp_path):
    rec = run_builtin(name, seed, BUSY_DURATION)
    assert spikes_sha256(rec, tmp_path) == BUSY_SHA256[name, seed]
    assert rec.stats == BUSY_STATS[name, seed]


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
def test_single_neuron_matches_golden_hash(variant, seed, tmp_path):
    assert spikes_sha256(run_single_neuron_variant(variant, seed), tmp_path) == SINGLE_SHA256[variant, seed]


def pink_series_sha256() -> str:
    series = generate(NoiseSpec("pink", 200e-12, band=(10.0, 5e6), seed=7, stream_id=3), 200_000, 1e-8)
    return hashlib.sha256(series.tobytes()).hexdigest()


def test_pink_series_matches_golden_hash():
    assert pink_series_sha256() == PINK_SERIES_SHA256


def _print_dict(name: str, entries: dict) -> None:
    print(f"{name} = {{")
    for key, value in entries.items():
        print(f"    {key!r}: {value},".replace("'", '"'))
    print("}")


def _stats_literal(key, stats) -> str:
    """``stats`` as the file writes it: the counters, then the per-island
    spikes on a line of their own, aligned under the opening brace."""
    counters = ", ".join(f'"{k}": {v}' for k, v in stats.items() if k != "spikes_per_island")
    indent = " " * (len(f"    {key!r}: {{"))
    return f'{{{counters},\n{indent}"spikes_per_island": {stats["spikes_per_island"]}}}'


def main() -> None:
    """Print the current hashes and stats in this file's layout, for a
    change that re-takes them: ``PYTHONPATH=src python tests/test_golden.py``."""
    import tempfile
    from pathlib import Path

    _print_dict("CONFIG_SHA256", {name: f'"{config_sha256(name)}"' for name in CONFIG_SHA256})
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        _print_dict("SPIKES_SHA256", {
            (name, seed): f'"{spikes_sha256(run_builtin(name, seed), tmp_path)}"'
            for name, seed in SPIKES_SHA256})
        rec = run_builtin("fig6F", 1, record_traces="all", trace_decimation=1)
        _print_dict("TRACED_SHA256", {"spikes": f'"{spikes_sha256(rec, tmp_path)}"',
                                      "traces": f'"{traces_sha256(rec.traces)}"'})
        _print_dict("SINGLE_SHA256", {
            key: f'"{spikes_sha256(run_single_neuron_variant(*key), tmp_path)}"' for key in SINGLE_SHA256})
        busy = {key: run_builtin(*key, BUSY_DURATION) for key in BUSY_SHA256}
        _print_dict("BUSY_SHA256", {key: f'"{spikes_sha256(rec, tmp_path)}"' for key, rec in busy.items()})
        _print_dict("BUSY_STATS", {key: _stats_literal(key, rec.stats) for key, rec in busy.items()})
    print(f'PINK_SERIES_SHA256 = "{pink_series_sha256()}"')


if __name__ == "__main__":
    main()
