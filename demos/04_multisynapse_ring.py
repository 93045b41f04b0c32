"""Multi-synapse interneuron connections vs point-to-point ones.

Sweeps the four shipped ring variants -- no connections (0x0), one
interneuron per edge soliciting all targets (3x15), three interneurons
with tripled synapses to half the targets (3x8), and three interneurons
with tripled synapses to all targets (9x15) -- and shows that cross-island
correlation grows along that order: a few connections with multiple
synapses couple islands more effectively than single point-to-point links.
"""

from pathlib import Path

import numpy as np

from spikeislands import SimConfig, block_means, load_builtin, parse_document, record_matrix, run
from spikeislands.io import write_matrix_csv

OUT = Path("out/04_multisynapse_ring")
OUT.mkdir(parents=True, exist_ok=True)

CASES = [
    ("fig6E", "(0x0)   no connections"),
    ("fig6F", "(3x15)  1 interneuron/edge, all targets, single synapses"),
    ("fig6G", "(3x8)   3 interneurons/edge, 8 targets, tripled synapses"),
    ("fig6H", "(9x15)  3 interneurons/edge, all targets, tripled synapses"),
]
SEEDS = range(3)

print("mean cross-island rho (3 seeds):")
cross_by_case = {}
for name, label in CASES:
    network, hints = parse_document(load_builtin(name))
    crosses = []
    for seed in SEEDS:
        rec = run(network, SimConfig(duration=hints["duration"], dt=hints["dt"], master_seed=seed))
        matrix = record_matrix(rec)
        _, cross = block_means(matrix, rec.island_of)
        crosses.append(cross)
        if seed == 0:
            write_matrix_csv(matrix, OUT / f"matrix_{name}.csv")
    cross_by_case[name] = float(np.mean(crosses))
    print(f"  {label}: {cross_by_case[name]:+.3f}")

order = [cross_by_case[name] for name, _ in CASES]
print("\nordering (0x0) < (3x15) < (3x8) <= (9x15):",
      order[0] < order[1] < order[2] <= order[3])
