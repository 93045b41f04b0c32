import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeislands.noise import NoiseSpec
from spikeislands.topology import (
    InterIslandLink,
    IslandSpec,
    NetworkSpec,
    TopologyError,
    build_ring,
    inhibitory_ratio,
    random_crossbar,
    ring_order,
)


def noise_for(i):
    return NoiseSpec("white", 2e-10, (10.0, 5e6), seed=0, stream_id=i)


def four_islands(n=16, edges=25, inh=2):
    islands = tuple(IslandSpec(n, random_crossbar(n, edges, inh, seed=i)) for i in range(4))
    return NetworkSpec(islands=islands, noise=tuple(noise_for(i) for i in range(4)))


class TestRandomCrossbar:
    def test_exact_counts(self):
        cb = random_crossbar(16, 25, 2, seed=7)
        assert len(cb) == 25
        assert sum(1 for (_, _, p) in cb if p == "inh") == 2
        assert len(set(cb)) == 25

    def test_deterministic(self):
        assert random_crossbar(16, 50, 4, seed=3) == random_crossbar(16, 50, 4, seed=3)
        assert random_crossbar(16, 50, 4, seed=3) != random_crossbar(16, 50, 4, seed=4)

    def test_bounds(self):
        with pytest.raises(ValueError):
            random_crossbar(4, 17, 0, seed=0)
        with pytest.raises(ValueError):
            random_crossbar(4, 4, 5, seed=0)


class TestInhibitoryRatio:
    def test_all_excitatory_zero(self):
        isl = IslandSpec(4, ((0, 1, "exc"), (1, 2, "exc")))
        net = NetworkSpec((isl,), (noise_for(0),))
        assert inhibitory_ratio(net) == [0.0]

    def test_eight_percent(self):
        # 23 excitatory + 2 inhibitory = 8%
        edges = tuple((i // 5, i % 5, "exc") for i in range(23))
        edges += ((4, 3, "inh"), (3, 4, "inh"))
        isl = IslandSpec(5, edges)
        net = NetworkSpec((isl,), (noise_for(0),))
        assert inhibitory_ratio(net) == [pytest.approx(0.08)]

    def test_empty_crossbar_undefined_not_zero(self):
        net = NetworkSpec((IslandSpec(4, ()),), (noise_for(0),))
        assert inhibitory_ratio(net) == [None]


class TestValidation:
    def test_dangling_neuron_index_named(self):
        isl = IslandSpec(16, ((0, 16, "exc"),))
        net = NetworkSpec((isl,), (noise_for(0),))
        with pytest.raises(TopologyError) as err:
            net.validate()
        assert "island[0].edge[0]" in str(err.value)

    def test_duplicate_edge_rejected(self):
        isl = IslandSpec(16, ((0, 1, "exc"), (0, 1, "exc")))
        net = NetworkSpec((isl,), (noise_for(0),))
        with pytest.raises(TopologyError):
            net.validate()

    def test_same_pair_opposite_polarity_allowed(self):
        isl = IslandSpec(16, ((0, 1, "exc"), (0, 1, "inh")))
        NetworkSpec((isl,), (noise_for(0),)).validate()

    def test_noise_source_count_mismatch(self):
        with pytest.raises(TopologyError):
            NetworkSpec((IslandSpec(4, ()), IslandSpec(4, ())), (noise_for(0),)).validate()

    def test_duplicate_noise_keys_rejected(self):
        net = NetworkSpec(
            (IslandSpec(4, ()), IslandSpec(4, ())),
            (noise_for(0), noise_for(0)),
        )
        with pytest.raises(TopologyError):
            net.validate()

    def test_link_validation(self):
        net = four_islands()
        bad = InterIslandLink(src_island=0, dst_island=0, src_neuron=0, targets=(1,))
        with pytest.raises(TopologyError):
            bad.validate(net)
        bad = InterIslandLink(src_island=0, dst_island=1, src_neuron=0, targets=())
        with pytest.raises(TopologyError):
            bad.validate(net)
        bad = InterIslandLink(src_island=0, dst_island=1, src_neuron=0, targets=(3, 3))
        with pytest.raises(TopologyError):
            bad.validate(net)
        bad = InterIslandLink(src_island=0, dst_island=1, src_neuron=99, targets=(3,))
        with pytest.raises(TopologyError):
            bad.validate(net)


class TestBuildRing:
    def test_zero_links_unchanged(self):
        net = four_islands()
        assert build_ring(net, 0, 1, 1, seed=5) is net

    def test_paper_ring_order_for_four(self):
        assert ring_order(4) == [(0, 1), (1, 3), (3, 2), (2, 0)]

    def test_eight_point_to_point(self):
        net = build_ring(four_islands(), 8, 1, 1, seed=5)
        assert len(net.links) == 32  # 8 per ring edge
        per_edge = {}
        for link in net.links:
            per_edge.setdefault((link.src_island, link.dst_island), []).append(link)
            assert len(link.targets) == 1
            assert link.multiplicity == 1
        assert set(per_edge) == {(0, 1), (1, 3), (3, 2), (2, 0)}
        for links in per_edge.values():
            assert len(links) == 8
            srcs = [l.src_neuron for l in links]
            assert len(set(srcs)) == 8  # drawn without replacement

    def test_fanout_and_multiplicity(self):
        net = build_ring(four_islands(), 3, 8, 3, seed=5)
        assert len(net.links) == 12
        for link in net.links:
            assert len(link.targets) == 8
            assert len(set(link.targets)) == 8
            assert link.multiplicity == 3

    def test_deterministic(self):
        a = build_ring(four_islands(), 3, 8, 3, seed=5)
        b = build_ring(four_islands(), 3, 8, 3, seed=5)
        assert a.links == b.links
        c = build_ring(four_islands(), 3, 8, 3, seed=6)
        assert a.links != c.links

    def test_fanout_exceeding_destination_rejected(self):
        with pytest.raises(ValueError):
            build_ring(four_islands(), 1, 17, 1, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(
        n_islands=st.integers(2, 5),
        size=st.integers(2, 20),
        links=st.integers(0, 2),
        fanout=st.integers(1, 2),
        mult=st.integers(1, 4),
        seed=st.integers(0, 2**31),
    )
    def test_generated_links_satisfy_invariants(self, n_islands, size, links, fanout, mult, seed):
        islands = tuple(IslandSpec(size, ()) for _ in range(n_islands))
        net = NetworkSpec(islands, tuple(noise_for(i) for i in range(n_islands)))
        out = build_ring(net, min(links, size), min(fanout, size), mult, seed=seed)
        out.validate()
        for link in out.links:
            assert link.src_island != link.dst_island
            assert 1 <= len(link.targets) <= size
            assert link.multiplicity == mult
