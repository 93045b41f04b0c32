"""Correlation control by inter-island wiring: unconnected vs ring-of-8.

Runs the shipped four-island configs with and without the 8 point-to-point
interneurons, computes Pearson matrices of 1 us binned activity, and
reports the within-island vs cross-island block means.  Writes matrices and
rasters into out/03_island_correlations/.
"""

from pathlib import Path

import numpy as np

from spikeislands import SimConfig, block_means, load_builtin, parse_document, record_matrix, run
from spikeislands.io import write_matrix_csv

OUT = Path("out/03_island_correlations")
OUT.mkdir(parents=True, exist_ok=True)

results = {}
for name in ("fig5A_nobond", "fig5B_ring8"):
    network, hints = parse_document(load_builtin(name))
    rec = run(network, SimConfig(duration=hints["duration"], dt=hints["dt"], master_seed=1))
    matrix = record_matrix(rec)
    within, cross = block_means(matrix, rec.island_of)
    results[name] = (rec, matrix, within, cross)
    write_matrix_csv(matrix, OUT / f"matrix_{name}.csv")
    print(f"{name}: {rec.total_spikes()} spikes, mean within-island rho {within:.3f}, "
          f"mean cross-island rho {cross:.3f}")

nb = results["fig5A_nobond"]
r8 = results["fig5B_ring8"]
print(f"\nwithin - cross (no bond)  : {nb[2] - nb[3]:.3f}")
print(f"cross-island rise with ring: {r8[3] - nb[3]:.3f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 2, figsize=(11, 9))
    for col, name in enumerate(("fig5A_nobond", "fig5B_ring8")):
        rec, matrix, _, _ = results[name]
        ax = axes[0][col]
        for i, t in enumerate(rec.times):
            ax.plot(t * 1e6, np.full(len(t), i), "k.", ms=1.5)
        for b in (16, 32, 48):
            ax.axhline(b - 0.5, color="tab:blue", lw=0.4)
        ax.set_title(name)
        ax.set_xlabel("t [us]")
        ax.set_ylabel("neuron")
        ax = axes[1][col]
        im = ax.imshow(matrix.values, vmin=-0.2, vmax=1.0, cmap="jet", interpolation="nearest")
        ax.set_xlabel("neuron")
        fig.colorbar(im, ax=ax, fraction=0.046)
    fig.tight_layout()
    fig.savefig(OUT / "rasters_and_matrices.png", dpi=130)
    print(f"wrote {OUT}/rasters_and_matrices.png")
except ImportError:
    print("matplotlib not installed; skipped figures")
