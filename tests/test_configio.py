import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeislands.cli import main
from spikeislands.configio import (
    ConfigSyntaxError,
    builtin_names,
    load_builtin,
    parse_config,
    parse_document,
    serialize_config,
)
from spikeislands.noise import NoiseSpec
from spikeislands.topology import (
    InterIslandLink,
    IslandSpec,
    NetworkSpec,
    TopologyError,
    inhibitory_ratio,
    random_crossbar,
)

MINIMAL = """
island 0
  neurons 2
  noise white density=2e-10
  edge 0 -> 1 exc
end
"""


class TestParse:
    def test_minimal_config(self):
        net = parse_config(MINIMAL)
        assert len(net.islands) == 1
        assert net.islands[0].n_neurons == 2
        assert net.islands[0].crossbar == ((0, 1, "exc"),)
        assert inhibitory_ratio(net) == [0.0]

    def test_default_presets_and_stream(self):
        net = parse_config(MINIMAL)
        assert net.islands[0].neuron_preset == "fast-mode"
        assert net.islands[0].synapse_preset == "fast-dpi"
        assert net.noise[0].stream_id == 0

    def test_rms_form(self):
        net = parse_config(
            "island 0\n  neurons 1\n  noise white rms=1.5e-6 band=10:5e6\nend\n"
        )
        assert net.noise[0].density * np.sqrt(5e6 - 10) == pytest.approx(1.5e-6, rel=1e-9)

    def test_sim_hints(self):
        _, hints = parse_document("sim duration=240e-6 dt=1e-8 seed=7\n" + MINIMAL)
        assert hints == {"duration": 240e-6, "dt": 1e-8, "seed": 7}

    def test_links_and_ring(self):
        text = (
            "island 0\n  neurons 4\n  noise white density=1e-10\nend\n"
            "island 1\n  neurons 4\n  noise white density=1e-10\nend\n"
            "link 0.1 -> 1.[0,2] multiplicity=3\n"
        )
        net = parse_config(text)
        assert net.links == (
            InterIslandLink(src_island=0, dst_island=1, src_neuron=1, targets=(0, 2), multiplicity=3),
        )
        ringed = parse_config(text + "ring links=1 fanout=2 multiplicity=2 seed=9\n")
        assert len(ringed.links) == 1 + 2  # explicit + one per ring edge

    def test_syntax_error_reports_line_and_col(self):
        with pytest.raises(ConfigSyntaxError) as err:
            parse_config("island 0\n  neurons two\nend\n")
        assert err.value.line == 2
        assert "line 2" in str(err.value)

        with pytest.raises(ConfigSyntaxError) as err:
            parse_config("frobnicate 1\n")
        assert err.value.line == 1 and err.value.col == 1

    def test_out_of_range_neuron_names_edge_path(self):
        text = "island 0\n  neurons 16\n  noise white density=1e-10\n  edge 0 -> 16 exc\nend\n"
        with pytest.raises(TopologyError) as err:
            parse_config(text)
        assert "island[0].edge[0]" in str(err.value)

    def test_dangling_link_named(self):
        text = (
            "island 0\n  neurons 4\n  noise white density=1e-10\nend\n"
            "island 1\n  neurons 4\n  noise white density=1e-10\nend\n"
            "link 0.1 -> 1.[7]\n"
        )
        with pytest.raises(TopologyError) as err:
            parse_config(text)
        assert "link[0]" in str(err.value)

    def test_missing_noise_rejected(self):
        with pytest.raises(TopologyError) as err:
            parse_config("island 0\n  neurons 2\nend\n")
        assert "island[0].noise" in str(err.value)

    def test_duplicate_noise_rejected(self):
        text = "island 0\n  neurons 2\n  noise white density=1e-10\n  noise white density=2e-10\nend\n"
        with pytest.raises(TopologyError):
            parse_config(text)

    def test_unterminated_island(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("island 0\n  neurons 2\n")

    def test_islands_must_be_in_order(self):
        with pytest.raises(TopologyError):
            parse_config("island 1\n  neurons 2\n  noise white density=1e-10\nend\n")


LINKED = (
    "island 0\n  neurons 4\n  noise white density=1e-10\nend\n"
    "island 1\n  neurons 4\n  noise white density=1e-10\nend\n"
)


@pytest.mark.parametrize(
    "text,line",
    [
        ("island 0\n  neurons 2\n  noise\nend\n", 3),
        ("island 0\n  neurons 2\n  noise white density=-1e-10\nend\n", 3),
        ("island 0\n  neurons 2\n  noise white density=1e-10 stream=1.5\nend\n", 3),
        ("island 0\n  neurons 2\n  noise white density=1e-10 seed=0.9\nend\n", 3),
        (LINKED + "link 0.1 -> 1.[0,2] multiplicity=2.7\n", 9),
        ("sim seed=3.9\n" + MINIMAL, 1),
        ("base fig9Z\n", 1),
        ("# a comment\nsim seed=1\nbase fig5A_nobond\n", 3),
        ("base fig6G\n", 1),  # fig6G has a base of its own
    ],
)
def test_config_error_names_its_line(text, line, tmp_path, capsys):
    with pytest.raises(ConfigSyntaxError) as err:
        parse_document(text)
    assert err.value.line == line
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    assert main(["validate-config", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}, ")


ISLAND_HEAD = "island 0\n  neurons 4\n  noise white density=1e-10\n"


class TestCrossbar:
    def test_crossbar_is_the_random_crossbar_of_the_final_neuron_count(self):
        net = parse_config("island 0\n  crossbar edges=20 inh=3 seed=5\n  neurons 6\n  noise white density=1e-10\nend\n")
        assert net.islands[0].n_neurons == 6
        assert net.islands[0].crossbar == random_crossbar(6, 20, 3, 5)

    def test_crossbar_serializes_as_edge_lines(self):
        net = parse_config(ISLAND_HEAD + "  crossbar edges=5 inh=1 seed=3\nend\n")
        text = serialize_config(net)
        assert "crossbar" not in text and text.count("  edge ") == 5
        assert parse_config(text) == net

    @pytest.mark.parametrize(
        "body,line",
        [
            ("  crossbar edges=5 inh=1\n", 4),  # missing key
            ("  crossbar edges=5 inh=1 seed=3 self=1\n", 4),  # unknown key
            ("  crossbar edges=5.0 inh=1 seed=3\n", 4),  # non-integer value
            ("  crossbar edges=5 inh=one seed=3\n", 4),
            ("  crossbar edges=17 inh=0 seed=3\n", 4),  # more edges than 4 x 4 slots
            ("  crossbar edges=-1 inh=0 seed=3\n", 4),
            ("  crossbar edges=3 inh=4 seed=3\n", 4),  # more inhibitory than edges
            ("  crossbar edges=3 inh=-1 seed=3\n", 4),
            ("  crossbar edges=10 inh=0 seed=3\n  neurons 3\n", 4),  # sized by the later neurons line
            ("  crossbar edges=5 inh=1 seed=3\n  crossbar edges=5 inh=1 seed=4\n", 5),
            ("  edge 0 -> 1 exc\n  crossbar edges=5 inh=1 seed=3\n", 5),
            ("  crossbar edges=5 inh=1 seed=3\n  edge 0 -> 1 exc\n", 5),
        ],
    )
    def test_bad_crossbar_names_its_line(self, body, line):
        with pytest.raises(ConfigSyntaxError) as err:
            parse_config(ISLAND_HEAD + body + "end\n")
        assert err.value.line == line

    def test_ring_values_are_integers(self):
        two = ISLAND_HEAD + "end\n" + ISLAND_HEAD.replace("island 0", "island 1")
        with pytest.raises(ConfigSyntaxError) as err:
            parse_config(two + "end\nring links=1.5\n")
        assert err.value.line == 9

    def test_ring_lines_merge(self):
        # a network has one ring: a later ring line sets only the keys it
        # names, and the ring is built once, after the explicit links
        text = load_builtin("fig5B_ring8") + "link 0.0 -> 1.[3] multiplicity=2\n"
        merged = parse_config(text + "ring fanout=2\n")
        assert merged == parse_config(load_builtin("fig5A_nobond") + "link 0.0 -> 1.[3] multiplicity=2\n"
                                      "ring links=8 fanout=2 multiplicity=1 seed=101\n")
        assert merged.links[0] == InterIslandLink(0, 1, 0, (3,), 2) and len(merged.links) == 1 + 4 * 8
        assert parse_config(load_builtin("fig5A_nobond") + "ring seed=7\n") == parse_config(load_builtin("fig5A_nobond"))
        with pytest.raises(ConfigSyntaxError) as err:
            parse_config(text + "ring links=17\nring seed=3\n")
        assert err.value.line == len(text.splitlines()) + 2

    @pytest.mark.parametrize("ring", ["ring links=17 fanout=1 multiplicity=1 seed=103",  # > 16 neurons
                                      "ring links=0 fanout=1 multiplicity=0 seed=103"])
    def test_ring_that_build_ring_rejects_names_its_line(self, ring):
        text = load_builtin("fig6E").replace("ring links=0 fanout=1 multiplicity=1 seed=103", ring)
        with pytest.raises(ConfigSyntaxError) as err:
            parse_config(text)
        assert err.value.line == text.splitlines().index(ring) + 1


class TestRoundTrip:
    def test_round_trip_minimal(self):
        net = parse_config(MINIMAL)
        assert parse_config(serialize_config(net)) == net

    def test_round_trip_with_links(self):
        islands = tuple(IslandSpec(8, ((0, 1, "exc"), (2, 3, "inh"))) for _ in range(2))
        noise = tuple(NoiseSpec("pink", 3e-10, (100.0, 1e5), seed=4, stream_id=i) for i in range(2))
        links = (InterIslandLink(0, 1, 5, (0, 4, 7), multiplicity=2),)
        net = NetworkSpec(islands, noise, links)
        net.validate()
        assert parse_config(serialize_config(net)) == net

    @settings(max_examples=25, deadline=None)
    @given(
        n_islands=st.integers(1, 3),
        size=st.integers(2, 8),
        n_edges=st.integers(0, 10),
        seed=st.integers(0, 2**31),
        kind=st.sampled_from(["white", "pink"]),
    )
    def test_round_trip_random(self, n_islands, size, n_edges, seed, kind):
        n_edges = min(n_edges, size * size)
        islands = tuple(
            IslandSpec(size, random_crossbar(size, n_edges, min(1, n_edges), seed=seed + k))
            for k in range(n_islands)
        )
        noise = tuple(
            NoiseSpec(kind, 2.5e-10, (10.0, 5e5), seed=seed % 1000, stream_id=i)
            for i in range(n_islands)
        )
        net = NetworkSpec(islands, noise)
        net.validate()
        assert parse_config(serialize_config(net)) == net


class TestBuiltins:
    def test_all_names_present(self):
        names = builtin_names()
        for expected in (
            "fig3_single_neuron",
            "fig4B_islands",
            "fig5A_nobond",
            "fig5B_ring8",
            "fig6E",
            "fig6F",
            "fig6G",
            "fig6H",
        ):
            assert expected in names

    def test_all_builtins_parse_and_validate(self):
        for name in builtin_names():
            net, hints = parse_document(load_builtin(name))
            net.validate()
            assert "duration" in hints

    def test_fig4b_eight_percent_inhibitory(self):
        net = parse_config(load_builtin("fig4B_islands"))
        assert len(net.islands) == 4
        assert all(isl.n_neurons == 16 for isl in net.islands)
        for ratio in inhibitory_ratio(net):
            assert ratio == pytest.approx(0.08)

    def test_fig5b_has_ring8(self):
        net = parse_config(load_builtin("fig5B_ring8"))
        assert len(net.links) == 32
        assert all(len(l.targets) == 1 and l.multiplicity == 1 for l in net.links)

    def test_fig6_cases(self):
        assert parse_config(load_builtin("fig6E")).links == ()
        f = parse_config(load_builtin("fig6F")).links
        assert len(f) == 4 and all(len(l.targets) == 15 and l.multiplicity == 1 for l in f)
        g = parse_config(load_builtin("fig6G")).links
        assert len(g) == 12 and all(len(l.targets) == 8 and l.multiplicity == 3 for l in g)
        h = parse_config(load_builtin("fig6H")).links
        assert len(h) == 12 and all(len(l.targets) == 15 and l.multiplicity == 3 for l in h)

    def test_unknown_builtin(self):
        with pytest.raises(FileNotFoundError):
            load_builtin("fig9Z")
