"""Correlation matrices from externally recorded event series.

The analysis pipeline is agnostic to where events come from: anything in
the two-column (source_id, t_seconds) format can be binned and correlated.
This demo fabricates a frame-sampled recording in the style of slow
imaging data (one event per detected activation, 200 ms frame interval)
with two synchronized groups, and recovers the block structure.
"""

from pathlib import Path

import numpy as np

from spikeislands import bin_events, block_means, pearson_matrix
from spikeislands.io import read_events_csv, write_matrix_csv

OUT = Path("out/06_external_events")
OUT.mkdir(parents=True, exist_ok=True)

FRAME_S = 0.2
DURATION_S = 360.0
rng = np.random.default_rng(12)

# two groups of 6 sources; each group shares burst times, plus private noise
rows = ["source_id,t_seconds"]
group_of = []
for group in range(2):
    burst_frames = np.sort(rng.choice(int(DURATION_S / FRAME_S), size=60, replace=False))
    for member in range(6):
        sid = group * 6 + member
        group_of.append(group)
        keep = burst_frames[rng.random(burst_frames.size) < 0.8]
        private = rng.choice(int(DURATION_S / FRAME_S), size=10, replace=False)
        frames = np.unique(np.concatenate([keep, private]))
        rows.extend(f"{sid},{frame * FRAME_S:.1f}" for frame in frames)
csv_path = OUT / "recording.csv"
csv_path.write_text("\n".join(rows) + "\n")

events = read_events_csv(csv_path)
print(f"loaded {len(events)} sources")

binned = [bin_events(e, FRAME_S, DURATION_S) for e in events]
matrix = pearson_matrix(binned, labels=[e.source_id for e in events], bin_width=FRAME_S)
write_matrix_csv(matrix, OUT / "matrix.csv")

within, cross = block_means(matrix, group_of)
print(f"mean within-group rho {within:.3f}, cross-group rho {cross:.3f}")
print(f"wrote {OUT}/matrix.csv")
