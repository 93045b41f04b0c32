"""Island network descriptions: crossbars, inter-island links, ring wiring.

An island is a population of neurons sharing one background-noise source,
internally connected through a crossbar of individually enabled synapses
(at most n^2 entries, self-connections allowed).  Islands communicate only
through explicit inter-island links: a source neuron ("interneuron") drives
a set of target neurons in another island, optionally through several
parallel synapses per target (multiplicity).

All types are immutable after construction and validated eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .noise import NoiseSpec, make_rng
from .presets import NEURON_PRESETS, SYNAPSE_PRESETS

__all__ = [
    "IslandSpec",
    "InterIslandLink",
    "NetworkSpec",
    "TopologyError",
    "random_crossbar",
    "build_ring",
    "inhibitory_ratio",
    "ring_order",
]

Edge = tuple[int, int, str]  # (pre, post, "exc" | "inh")


class TopologyError(ValueError):
    """Semantic error in a network description; ``path`` names the culprit."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class IslandSpec:
    """One island: population size, crossbar wiring, parameter presets."""

    n_neurons: int = 16
    crossbar: tuple[Edge, ...] = ()
    neuron_preset: str = "fast-mode"
    synapse_preset: str = "fast-dpi"

    def validate(self, path: str = "island") -> None:
        if self.n_neurons < 1:
            raise TopologyError(path, "n_neurons must be >= 1")
        if len(self.crossbar) > self.n_neurons**2:
            raise TopologyError(path, "crossbar larger than n_neurons^2")
        for field, known in (("neuron_preset", NEURON_PRESETS), ("synapse_preset", SYNAPSE_PRESETS)):
            if getattr(self, field) not in known:
                raise TopologyError(f"{path}.{field}",
                                    f"unknown preset {getattr(self, field)!r}; available: {sorted(known)}")
        seen: set[Edge] = set()
        for i, (pre, post, pol) in enumerate(self.crossbar):
            epath = f"{path}.edge[{i}]"
            if not (0 <= pre < self.n_neurons and 0 <= post < self.n_neurons):
                raise TopologyError(
                    epath, f"neuron index out of range in {pre}->{post} (size {self.n_neurons})"
                )
            if pol not in ("exc", "inh"):
                raise TopologyError(epath, f"polarity must be 'exc' or 'inh', got {pol!r}")
            if (pre, post, pol) in seen:
                raise TopologyError(epath, f"duplicate edge {pre}->{post} {pol}")
            seen.add((pre, post, pol))


@dataclass(frozen=True)
class InterIslandLink:
    """One interneuron connection: a source neuron feeding targets elsewhere."""

    src_island: int
    dst_island: int
    src_neuron: int
    targets: tuple[int, ...]
    multiplicity: int = 1

    def validate(self, network: "NetworkSpec", path: str = "link") -> None:
        n_isl = len(network.islands)
        if not (0 <= self.src_island < n_isl and 0 <= self.dst_island < n_isl):
            raise TopologyError(path, f"island index out of range ({self.src_island}->{self.dst_island})")
        if self.src_island == self.dst_island:
            raise TopologyError(path, "src_island and dst_island must differ")
        if not self.targets:
            raise TopologyError(path, "targets must be non-empty")
        if len(set(self.targets)) != len(self.targets):
            raise TopologyError(path, "duplicate targets")
        if self.multiplicity < 1:
            raise TopologyError(path, "multiplicity must be >= 1")
        src_n = network.islands[self.src_island].n_neurons
        dst_n = network.islands[self.dst_island].n_neurons
        if not 0 <= self.src_neuron < src_n:
            raise TopologyError(path, f"src_neuron {self.src_neuron} out of range (size {src_n})")
        for tgt in self.targets:
            if not 0 <= tgt < dst_n:
                raise TopologyError(path, f"target {tgt} out of range (size {dst_n})")


@dataclass(frozen=True)
class NetworkSpec:
    """Complete island network: islands, links, one noise source per island."""

    islands: tuple[IslandSpec, ...]
    noise: tuple[NoiseSpec, ...]
    links: tuple[InterIslandLink, ...] = ()

    def validate(self) -> None:
        if not self.islands:
            raise TopologyError("network", "at least one island required")
        if len(self.noise) != len(self.islands):
            raise TopologyError(
                "network.noise",
                f"need exactly one noise source per island ({len(self.noise)} for {len(self.islands)} islands)",
            )
        for i, isl in enumerate(self.islands):
            isl.validate(f"island[{i}]")
        for j, link in enumerate(self.links):
            link.validate(self, f"link[{j}]")
        keys = [(ns.seed, ns.stream_id) for ns in self.noise]
        if len(set(keys)) != len(keys):
            raise TopologyError("network.noise", "(seed, stream_id) pairs must be unique per source")

    @property
    def n_neurons_total(self) -> int:
        return sum(isl.n_neurons for isl in self.islands)


def random_crossbar(
    n_neurons: int,
    n_edges: int,
    n_inhibitory: int,
    seed: int,
) -> tuple[Edge, ...]:
    """Seeded random crossbar with exact edge and inhibitory counts.

    Draws ``n_edges`` distinct (pre, post) pairs uniformly from all
    ``n_neurons**2``, self-connections included, and marks a random subset
    of ``n_inhibitory`` of them inhibitory.  The same seed always yields
    the same crossbar.
    """
    n_slots = n_neurons * n_neurons
    if not 0 <= n_edges <= n_slots:
        raise ValueError(f"n_edges must be in [0, {n_slots}]")
    if not 0 <= n_inhibitory <= n_edges:
        raise ValueError("n_inhibitory must be in [0, n_edges]")
    rng = make_rng(seed, stream_id=0)
    flat = rng.choice(n_slots, size=n_edges, replace=False)
    inh_positions = set(rng.choice(n_edges, size=n_inhibitory, replace=False).tolist()) if n_edges else set()
    edges = []
    for i, slot in enumerate(sorted(flat.tolist())):
        pre, post = divmod(slot, n_neurons)
        edges.append((pre, post, "inh" if i in inh_positions else "exc"))
    return tuple(edges)


def ring_order(n_islands: int) -> list[tuple[int, int]]:
    """Directed (src, dst) island pairs of the ring.

    For four islands the order is 0->1, 1->3, 3->2, 2->0 (the layout used in
    the reference experiments); for other counts a simple cycle is used.
    """
    if n_islands < 2:
        raise ValueError("a ring needs at least 2 islands")
    if n_islands == 4:
        seq = [0, 1, 3, 2]
    else:
        seq = list(range(n_islands))
    return [(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))]


def build_ring(
    network: NetworkSpec,
    links_per_pair: int,
    fanout: int,
    multiplicity: int,
    seed: int,
) -> NetworkSpec:
    """Add unidirectional interneuron links along the island ring.

    For every directed ring edge, ``links_per_pair`` source neurons are
    drawn without replacement from the source island; each drives ``fanout``
    distinct target neurons in the destination island (drawn without
    replacement per link) through ``multiplicity`` parallel synapses per
    target.  ``links_per_pair = 0`` leaves the network unchanged.
    Deterministic for a given seed.
    """
    if links_per_pair < 0 or fanout < 0 or multiplicity < 1:
        raise ValueError("links_per_pair, fanout >= 0 and multiplicity >= 1 required")
    if links_per_pair == 0:
        return network
    if fanout == 0:
        raise ValueError("fanout must be >= 1 when links_per_pair > 0")

    new_links: list[InterIslandLink] = list(network.links)
    for edge_idx, (src, dst) in enumerate(ring_order(len(network.islands))):
        src_n = network.islands[src].n_neurons
        dst_n = network.islands[dst].n_neurons
        if links_per_pair > src_n:
            raise ValueError(f"links_per_pair {links_per_pair} exceeds source island size {src_n}")
        if fanout > dst_n:
            raise ValueError(f"fanout {fanout} exceeds destination island size {dst_n}")
        rng = make_rng(seed, stream_id=edge_idx + 1)
        sources = rng.choice(src_n, size=links_per_pair, replace=False)
        for s in sorted(sources.tolist()):
            targets = np.sort(rng.choice(dst_n, size=fanout, replace=False))
            new_links.append(
                InterIslandLink(
                    src_island=src,
                    dst_island=dst,
                    src_neuron=int(s),
                    targets=tuple(int(t) for t in targets),
                    multiplicity=multiplicity,
                )
            )
    out = replace(network, links=tuple(new_links))
    out.validate()
    return out


def inhibitory_ratio(network: NetworkSpec) -> list[float | None]:
    """Fraction of inhibitory edges among within-island edges, per island.

    Islands with an empty crossbar report ``None`` (the ratio is undefined,
    not zero).
    """
    out: list[float | None] = []
    for isl in network.islands:
        if not isl.crossbar:
            out.append(None)
            continue
        n_inh = sum(1 for (_, _, pol) in isl.crossbar if pol == "inh")
        out.append(n_inh / len(isl.crossbar))
    return out
