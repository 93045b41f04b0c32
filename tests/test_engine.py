from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spikeislands
from spikeislands.analysis import EventSeries, bin_events
from spikeislands.configio import load_builtin, parse_document
from spikeislands.engine import (
    DETECT_THRESHOLD_V,
    SimConfig,
    _Drive,
    _effective_noise,
    _NeuronBlock,
    _ScalarNeuron,
    _SynapseStates,
    _Traces,
    SimulationError,
    derive_seed,
    run,
    run_single_neuron,
)
from spikeislands.io import spikes_to_csv
from spikeislands.neuron import NeuronState, advance, neuron_step, stability_dt_max
from spikeislands.noise import NOISE_CHUNK, NoiseSpec, density_for_rms, generate
from spikeislands.presets import neuron_preset, synapse_preset
from spikeislands.synapse import dpi_decay, dpi_flow, presynaptic_pulse, time_constant
from spikeislands.topology import InterIslandLink, IslandSpec, NetworkSpec

P = neuron_preset("fast-mode")
SP = synapse_preset("fast-dpi")
DT = 1e-8


def single_island(n=4, crossbar=(), kind="white", density=2e-10):
    return NetworkSpec(
        islands=(IslandSpec(n, tuple(crossbar)),),
        noise=(NoiseSpec(kind, density, (10.0, 5e6), seed=0, stream_id=0),),
    )


def two_islands_with_link(multiplicity=1, dst_preset="fast-mode"):
    return NetworkSpec(
        islands=(IslandSpec(2, ()), IslandSpec(2, (), neuron_preset=dst_preset)),
        noise=(
            NoiseSpec("white", 2e-10, (10.0, 5e6), seed=0, stream_id=0),
            NoiseSpec("white", 1e-30, (10.0, 5e6), seed=0, stream_id=1),
        ),
        links=(InterIslandLink(0, 1, 0, (0,), multiplicity=multiplicity),),
    )


def observer_kick(multiplicity, baseline=False):
    """Membrane lift of a raised-threshold observer neuron from the first
    presynaptic spike alone, sampled just before the second spike or 2 us
    later; with ``baseline`` the level before the spike is subtracted."""
    import spikeislands.presets as presets_mod

    presets_mod.NEURON_PRESETS["_observer"] = replace(P, v_th=2.2, v_gate_th=2.1)
    try:
        rec = run(two_islands_with_link(multiplicity, "_observer"),
                  SimConfig(duration=4e-5, dt=DT, master_seed=2, record_traces=[2], trace_decimation=1))
    finally:
        del presets_mod.NEURON_PRESETS["_observer"]
    src = rec.times[0]
    assert len(src) >= 1
    t, by_id = rec.traces
    t_stop = src[1] if len(src) > 1 else src[0] + 2e-6
    t_stop = min(t_stop, src[0] + 2e-6)
    v = by_id[2]
    before = v[np.searchsorted(t, src[0]) - 1] if baseline else 0.0
    return v[np.searchsorted(t, t_stop) - 1] - before


def general_steps(monkeypatch):
    """Make every later run take the Python path with no idle step, so
    that every step is a general step: the reference of the quiet
    stretches on both paths."""
    from spikeislands import _kernel

    monkeypatch.setattr(_kernel, "load", lambda: None)
    monkeypatch.setattr(_SynapseStates, "idle_at_floor", lambda self, k: False)


def poison_stream(monkeypatch, at, island=0):
    """Make sample ``at`` of the noise stream each run opens for ``island``
    NaN, wherever the run's reads split the stream."""
    import spikeislands.engine as engine_mod

    real_init = engine_mod._Drive.__init__

    def init(self, specs, sim):
        real_init(self, specs, sim)
        stream = self.streams[island]
        real_read, start = stream.read, [0]

        def read(n):
            out = real_read(n)
            if start[0] <= at < start[0] + n:
                out[at - start[0]] = float("nan")
            start[0] += n
            return out

        stream.read = read

    monkeypatch.setattr(engine_mod._Drive, "__init__", init)


class TestSimConfig:
    def test_duration_floor(self):
        with pytest.raises(ValueError):
            SimConfig(duration=5e-8, dt=1e-8)

    @pytest.mark.parametrize("kw", [dict(duration=np.inf), dict(duration=1e-5, noise_dt=np.inf)])
    def test_non_finite_rejected(self, kw):
        with pytest.raises(ValueError):
            SimConfig(**kw)

    @pytest.mark.parametrize("name, value", [("trace_decimation", 2.5), ("trace_decimation", True),
                                             ("trace_decimation", "10"), ("master_seed", 1.5),
                                             ("master_seed", False), ("master_seed", None)])
    def test_integer_fields_reject_other_values(self, name, value):
        # a non-integer (bool included) fails here, naming its field, not
        # later in _Traces or derive_seed
        with pytest.raises(ValueError, match=name):
            SimConfig(duration=1e-5, **{name: value})

    def test_integer_fields_take_numpy_integers(self):
        sim = SimConfig(duration=1e-5, master_seed=np.int64(3), trace_decimation=np.int32(2))
        assert (sim.master_seed, sim.trace_decimation) == (3, 2)

    def test_noise_dt_multiple(self):
        with pytest.raises(ValueError):
            SimConfig(duration=1e-5, dt=1e-8, noise_dt=1.5e-8)
        assert SimConfig(duration=1e-5, dt=1e-8, noise_dt=3e-8).hold == 3

    def test_runs_reject_a_step_above_the_stability_bound(self):
        # both run paths and run_single_neuron check dt as neuron_step does
        dt = 1.5 * stability_dt_max(P)
        sim = SimConfig(duration=20 * dt, dt=dt)
        for n in (1, 2):
            with pytest.raises(ValueError, match="exceeds stability bound"):
                run(single_island(n, []), sim)
        with pytest.raises(ValueError, match="exceeds stability bound"):
            run_single_neuron(NoiseSpec("white", 2e-10, (10.0, 1e6)), P, sim)


class TestDeterminismAndSeeds:
    def test_identical_runs_byte_identical(self):
        net = single_island(4, [(0, 1, "exc"), (1, 2, "exc")])
        sim = SimConfig(duration=5e-5, dt=DT, master_seed=11)
        a, b = run(net, sim), run(net, sim)
        assert spikes_to_csv(a) == spikes_to_csv(b)

    def test_master_seed_changes_output(self):
        net = single_island(4, [(0, 1, "exc")], density=3e-10)
        a = run(net, SimConfig(duration=1e-4, dt=DT, master_seed=0))
        b = run(net, SimConfig(duration=1e-4, dt=DT, master_seed=1))
        bins_a = np.concatenate([bin_events(EventSeries(i, t), 1e-6, 1e-4) for i, t in enumerate(a.times)])
        bins_b = np.concatenate([bin_events(EventSeries(i, t), 1e-6, 1e-4) for i, t in enumerate(b.times)])
        assert np.sum(bins_a != bins_b) > 0  # Hamming distance of binned trains

    def test_derive_seed_stable(self):
        assert derive_seed(42, 1) == derive_seed(42, 1)
        assert derive_seed(42, 1) != derive_seed(42, 2)
        assert derive_seed(42) != derive_seed(43)


class TestZeroDriveAndBlowup:
    def test_zero_noise_no_spikes(self):
        net = single_island(4, [(0, 1, "exc"), (1, 2, "exc")], density=1e-30)
        rec = run(net, SimConfig(duration=1e-4, dt=DT, master_seed=0))
        assert rec.total_spikes() == 0

    def test_blowup_reports_neuron_and_time(self, engine_path, monkeypatch):
        # inject a NaN noise sample and check the abort names the neuron
        # and the time of the first non-finite state, on the compiled and
        # the Python neuron layer
        poison_stream(monkeypatch, 5)
        net = single_island(3, [])
        with pytest.raises(SimulationError) as err:
            run(net, SimConfig(duration=1e-5, dt=DT, master_seed=0))
        assert err.value.neuron in (0, 1, 2)
        assert err.value.island == 0 and err.value.step == 5
        assert err.value.t == pytest.approx(6 * DT)
        assert err.value.phase == "noise"
        assert "neuron" in str(err.value)
        assert "island 0" in str(err.value) and "step 5" in str(err.value)
        assert "phase: noise" in str(err.value)

    def test_blowup_names_the_island_of_the_neuron(self, engine_path, monkeypatch):
        # a NaN in the second island's noise alone names a neuron of that
        # island, and the island
        poison_stream(monkeypatch, 7, island=1)
        net = NetworkSpec(
            islands=(IslandSpec(2, ()), IslandSpec(3, ())),
            noise=(NoiseSpec("white", 2e-10, (10.0, 5e6), seed=0, stream_id=0),
                   NoiseSpec("white", 2e-10, (10.0, 5e6), seed=0, stream_id=1)),
        )
        with pytest.raises(SimulationError) as err:
            run(net, SimConfig(duration=1e-5, dt=DT, master_seed=0))
        assert (err.value.neuron, err.value.island, err.value.step, err.value.phase) == (2, 1, 7, "noise")
        assert "neuron 2 (island 1) after step 7" in str(err.value)

    @pytest.mark.parametrize("at", [500, NOISE_CHUNK + 500])
    def test_blowup_in_the_single_neuron_loop_reports_its_step(self, at, engine_path, monkeypatch):
        # the single neuron, compiled as a one-neuron network or in the
        # Python loop, reports the first non-finite step, in the first noise
        # block or a later one, as the network path does
        poison_stream(monkeypatch, at)
        net, _ = parse_document(load_builtin("fig3_single_neuron"))
        sim = SimConfig(duration=(at + 1500) * DT, dt=DT, master_seed=0)
        with pytest.raises(SimulationError) as err:
            run(net, sim)
        assert err.value.neuron == 0 and err.value.t == pytest.approx((at + 1) * DT)
        assert (err.value.island, err.value.step, err.value.phase) == (0, at, "noise")
        noise = NoiseSpec("white", 2e-10, (10.0, 5e6))
        with pytest.raises(SimulationError) as single_err:
            run_single_neuron(noise, P, sim)
        assert single_err.value.t == pytest.approx((at + 1) * DT)
        assert (single_err.value.neuron, single_err.value.island, single_err.value.step) == (0, 0, at)
        assert single_err.value.phase == "noise"
        assert f"step {at}," in str(single_err.value)

    def test_nan_inside_a_quiet_stretch_names_neuron_and_time(self, engine_path, monkeypatch):
        # a NaN noise sample in the middle of a quiet stretch of a network
        # with synapses is handed to the general step of the run, which
        # reports the neuron and time the general steps of the Python path
        # alone report
        handoffs = []
        real_run = engine_path.run

        def spy(self, k):
            try:
                return real_run(self, k)
            except SimulationError as err:
                handoffs.append((k, err.step))
                raise

        poison_stream(monkeypatch, 500)
        monkeypatch.setattr(engine_path, "run", spy)
        crossbar = [(0, 1, "exc"), (1, 2, "exc"), (2, 3, "inh"), (3, 0, "exc")]
        net = NetworkSpec(
            islands=(IslandSpec(4, tuple(crossbar)), IslandSpec(4, tuple(crossbar))),
            noise=(NoiseSpec("white", 2e-10, (10.0, 5e6), seed=0, stream_id=0),
                   NoiseSpec("white", 2e-10, (10.0, 5e6), seed=0, stream_id=1)),
        )
        sim = SimConfig(duration=1e-5, dt=DT, master_seed=0)
        with pytest.raises(SimulationError) as quiet_err:
            run(net, sim)
        assert any(k < 500 == end for k, end in handoffs)  # met the NaN inside a run

        general_steps(monkeypatch)
        with pytest.raises(SimulationError) as general_err:
            run(net, sim)
        fields = ("neuron", "island", "step", "t", "phase")
        assert [getattr(quiet_err.value, f) for f in fields] == [getattr(general_err.value, f) for f in fields]
        assert quiet_err.value.neuron == 0 and quiet_err.value.t == pytest.approx(501 * DT)
        assert (quiet_err.value.island, quiet_err.value.step, quiet_err.value.phase) == (0, 500, "noise")

    def test_non_finite_synaptic_current_names_the_synapse_step(self, engine_path, monkeypatch):
        # with finite noise, a synaptic current that is not finite is the
        # phase at fault: at step 300, where a noise block ends (150
        # samples, each held for 2 steps), the state of neuron 4's output
        # (output 4, whose one synapse is onto neuron 5) is made NaN
        import spikeislands.engine as engine_mod

        real_run = engine_path.run

        def poisoned(self, k):
            if k == 300:
                synapses = self.synapses
                synapses.i[4], synapses.tab_q[:, 4] = float("nan"), float("nan")
                if isinstance(synapses, _SynapseStates):
                    synapses.at_floor = False
                else:
                    synapses.s.at_floor = False
            return real_run(self, k)

        monkeypatch.setattr(engine_path, "run", poisoned)
        monkeypatch.setattr(engine_mod, "NOISE_CHUNK", 150)
        crossbar = [(0, 1, "exc"), (1, 2, "exc"), (2, 3, "inh"), (3, 0, "exc")]
        net = NetworkSpec(
            islands=(IslandSpec(4, tuple(crossbar)), IslandSpec(4, tuple(crossbar))),
            noise=(NoiseSpec("white", 2e-10, (10.0, 5e6), seed=0, stream_id=0),
                   NoiseSpec("white", 2e-10, (10.0, 5e6), seed=0, stream_id=1)),
        )
        with pytest.raises(SimulationError) as err:
            run(net, SimConfig(duration=1e-5, dt=DT, master_seed=0, noise_dt=2 * DT))
        assert (err.value.neuron, err.value.island, err.value.step) == (5, 1, 300)
        assert err.value.phase == "synapse step" and "phase: synapse step" in str(err.value)


class TestSharedNoiseSemantics:
    def test_empty_crossbar_identical_traces(self):
        net = single_island(4, [])
        sim = SimConfig(duration=2e-5, dt=DT, master_seed=5, record_traces="all", trace_decimation=1)
        rec = run(net, sim)
        t, by_id = rec.traces
        ref = by_id[0]
        for i in (1, 2, 3):
            assert np.array_equal(by_id[i], ref)

    def test_distinct_islands_get_distinct_noise(self):
        net = NetworkSpec(
            islands=(IslandSpec(1, ()), IslandSpec(1, ())),
            noise=(
                NoiseSpec("white", 2e-10, (10.0, 5e6), seed=0, stream_id=0),
                NoiseSpec("white", 2e-10, (10.0, 5e6), seed=0, stream_id=1),
            ),
        )
        sim = SimConfig(duration=2e-5, dt=DT, master_seed=5, record_traces="all", trace_decimation=1)
        rec = run(net, sim)
        _, by_id = rec.traces
        assert not np.array_equal(by_id[0], by_id[1])


class TestEngineMatchesLibrary:
    def test_neuron_update_equals_neuron_step(self):
        # one step of the engine's neuron block reproduces neuron.advance bit
        # for bit, state, spikes and onsets, for every neuron of a block of
        # two presets: in each step some neurons are quiet and the others
        # sit near v_th, near v_gate_th or just below the 1 V detection
        # level, or anywhere, flipping switches
        rng = np.random.default_rng(0)
        params = [P, replace(P, v_th=1.2, v_gate_th=0.75)] * 10  # v_th below and above 1 V
        block = _NeuronBlock(params, DT)
        seen = dict(quiet=0, busy=0, switched=0, spikes=0)
        for _ in range(60):
            states = []
            for i, p in enumerate(params):
                v_m, v_n = rng.uniform(p.v_clamp_lo, 0.6), rng.uniform(0.0, p.v_gate_th)
                i_in = rng.normal(0.0, 1e-6)
                kind = (i // 2) % 5
                if kind == 1:
                    v_m = p.v_th + rng.uniform(-0.02, 0.02)
                elif kind == 2:
                    v_n = p.v_gate_th + rng.uniform(-0.01, 0.01)
                elif kind == 3:
                    v_m, i_in = DETECT_THRESHOLD_V - rng.uniform(0.0, 0.03), rng.uniform(0.0, 4e-6)
                elif kind == 4:
                    v_m, v_n, i_in = rng.uniform(-0.1, 2.6), rng.uniform(0.0, 1.5), rng.normal(0.0, 2e-6)
                states.append((float(v_m), float(v_n), float(i_in)))
            v_m, v_n, i_in = (np.array(col) for col in zip(*states))
            expected = [advance(*s, DT, p) for s, p in zip(states, params)]
            got_m, got_n, spiking, onsets = block.step(v_m, v_n, i_in)
            assert got_m.tobytes() == np.array([e[0] for e in expected]).tobytes()
            assert got_n.tobytes() == np.array([e[1] for e in expected]).tobytes()
            assert spiking.tolist() == [i for i, e in enumerate(expected) if e[2] is not None]
            assert onsets.tobytes() == np.array([e[2] for e in expected if e[2] is not None]).tobytes()
            for (m, n, i), (m_end, n_end, _), p in zip(states, expected, params):
                quiet = m <= p.v_th and n <= p.v_gate_th and m + i * (DT / p.c_m) < min(p.v_th, 1.0)
                seen["quiet" if quiet else "busy"] += 1
                seen["switched"] += (m > p.v_th) != (m_end > p.v_th) or (n > p.v_gate_th) != (n_end > p.v_gate_th)
            seen["spikes"] += spiking.size
        assert min(seen.values()) > 100, seen

    def test_scalar_and_vector_paths_agree(self):
        # one neuron without synapses (a one-neuron network when compiled,
        # else the single-neuron loop) and a network produce the same spikes
        # for the same drive: compare it against a 2-neuron island with
        # identical shared noise and no synapses (clone rows)
        noise = NoiseSpec("white", density_for_rms(1.5e-6, (10.0, 5e7)), (10.0, 5e7), seed=3)
        sim = SimConfig(duration=1e-4, dt=DT, master_seed=9)
        scalar_rec = run(
            NetworkSpec(islands=(IslandSpec(1, ()),), noise=(noise,)), sim
        )
        vector_rec = run(
            NetworkSpec(islands=(IslandSpec(2, ()),), noise=(noise,)), sim
        )
        assert np.array_equal(scalar_rec.times[0], vector_rec.times[0])
        assert np.array_equal(scalar_rec.times[0], vector_rec.times[1])
        assert scalar_rec.meta["n_synapses"] == 0

    def test_scalar_loop_spikes_do_not_depend_on_the_trace(self):
        # untraced and traced, the single neuron gives the same spikes and
        # stats
        net, _ = parse_document(load_builtin("fig3_single_neuron"))
        sim = SimConfig(duration=5e-4, dt=DT, master_seed=2)
        plain = run(net, sim)
        traced = run(net, SimConfig(duration=5e-4, dt=DT, master_seed=2, record_traces="all"))
        assert len(plain.times[0]) > 5
        assert plain.times[0].tobytes() == traced.times[0].tobytes()
        assert plain.stats == traced.stats

    @pytest.mark.parametrize("selector,keys", [(None, None), ([], None), ([0], [0]), ([0, 0], [0]),
                                               ("all", "all"), ([5], ValueError), ("bogus", ValueError),
                                               ([1.7], ValueError), ([True], ValueError),
                                               ([0.2, 0.9], ValueError)])
    def test_single_neuron_network_selects_traces_as_any_network(self, selector, keys):
        # one neuron without synapses takes its traces through the
        # selector of every other network: an unknown id or name
        # and an id that is not an integer (a float or a bool) are rejected,
        # and an empty selector records none
        single, _ = parse_document(load_builtin("fig3_single_neuron"))
        for net in (single, single_island(2, [])):
            sim = SimConfig(duration=1e-6, dt=DT, record_traces=selector, trace_decimation=5)
            if keys is ValueError:
                with pytest.raises(ValueError):
                    run(net, sim)
                continue
            rec = run(net, sim)
            if keys is None:
                assert rec.traces is None
                continue
            t, v = rec.traces
            assert list(v) == (list(range(net.n_neurons_total)) if keys == "all" else keys)
            assert np.array_equal(t, np.arange(21) * 5 * DT)
            full = run(net, replace(sim, record_traces="all")).traces[1]
            assert all(trace.tobytes() == full[nid].tobytes() and trace.shape == t.shape
                       for nid, trace in v.items())

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.3, 1.999), st.floats(0.2, 0.95), st.floats(0.5, 2.0), st.floats(1e-7, 1e-6),
           st.floats(0.5e-6, 3e-6), st.floats(0.0, 4e-6), st.integers(0, 2**32 - 1))
    @example(1.2, 0.625, 1.0, 500e-9, 1.5e-6, 3e-6, 0)  # v_th above the detection level
    @example(1.0, 0.5, 1.0, 500e-9, 1.5e-6, 3e-6, 1)  # v_th at the detection level
    def test_scalar_neuron_reports_the_spikes_of_the_neuron_block(self, v_th, gate, c_scale, tau_n,
                                                                  mean, rms, seed):
        # the single-neuron loop, traced or not, reports the spike steps and
        # ends in the state of the vectorized neuron update, for any
        # threshold, v_th at or above the 1 V detection level included; it
        # calls neuron.advance in exactly the steps the block does, so a step
        # in which no switch flips never reaches it
        import spikeislands.engine as engine_mod

        params = replace(P, v_th=v_th, v_gate_th=gate * v_th, c_m=c_scale * P.c_m, tau_n=tau_n)
        drive = (mean + rms * np.random.default_rng(seed).standard_normal(3000)).tolist()
        step, calls = [0], []  # the step being taken; the step of each advance call

        def counted(*args):
            calls.append(step[0])
            return advance(*args)

        def feed():
            for k, i_in in enumerate(drive, 1):
                step[0] = k
                yield i_in

        block = _NeuronBlock([params], DT)
        v_m, v_n = np.array([params.v_rest]), np.zeros(1)
        expected = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_mod, "advance", counted)
            for i_in in feed():
                v_m, v_n, spiking, _ = block.step(v_m, v_n, np.array([i_in]))
                if spiking.size:
                    expected.append(step[0])
            block_calls = calls[:]
            for traces in (None, _Traces([0], len(drive), 1, DT, np.array([params.v_rest]))):
                calls.clear()
                scalar = _ScalarNeuron(params, DT, traces)
                end = scalar.take(feed(), 0, params.v_rest, 0.0)
                assert scalar.spikes == expected
                assert end == (v_m[0], v_n[0])
                assert calls == block_calls

    @pytest.mark.parametrize("level", [1.0, 1.7])
    def test_busy_step_at_or_above_the_fixed_point_falls_back_to_dpi_flow(self, level, monkeypatch):
        # the rising branch alone serves outputs below their fixed point
        # a = i_pulse - i_tau; a pulse that starts on an output at (level 1)
        # or above it is solved by dpi_flow, once, at its onset, and the
        # busy step after it gives dpi_flow's bits without solving again
        import spikeislands.engine as engine_mod

        flows = []
        real_flow = engine_mod.dpi_flow

        def spy(*args):
            flows.append(args)
            return real_flow(*args)

        def synapses(i_out):
            syn = _SynapseStates([(0, SP), (1, SP)], 2, DT, np.array([1, 0]),
                                 np.array([1.0, 1.0]), np.array([0, 1]))
            syn.i = np.array(i_out)
            syn.at_floor = False
            return syn

        monkeypatch.setattr(engine_mod, "dpi_flow", spy)
        a = SP.i_pulse - SP.i_tau
        tau = time_constant(SP)
        k, theta = 100, np.array([0.0, 0.7 * DT])  # output 0 is at its level at the onset
        syn = synapses([level * a, 2.0 * SP.i_floor])
        i_onset, _ = dpi_decay(syn.i, theta, tau, SP.i_floor)
        syn.step(k)  # no pulse in flight: both outputs decay over the step
        syn.start_pulses(k, np.array([0, 1]), theta)
        assert len(flows) == 1

        def flow(h):
            return real_flow(i_onset, SP.i_pulse, h, SP.i_tau, tau, SP.i_floor)

        assert syn.i.tobytes() == flow(DT - theta)[0].tobytes()
        current = syn.step(k + 1)
        assert len(flows) == 1
        i_end, q_end = flow(2 * DT - theta)
        assert syn.i.tobytes() == i_end.tobytes()
        assert current.tobytes() == ((q_end - flow(DT - theta)[1]) / DT)[::-1].tobytes()
        syn = synapses([0.5 * a, 2.0 * SP.i_floor])
        syn.step(k)
        syn.start_pulses(k, np.array([0, 1]), theta)
        assert len(flows) == 1  # below the fixed point: the rising branch

    def test_synapse_block_equals_dpi_step_substepped(self):
        # single link, quiet destination: the engine's destination membrane
        # equals the library model built step by step.  The source neuron's
        # exact spike onsets come from neuron.advance on the regenerated
        # island-0 noise; the synapse follows dpi_flow driven by
        # presynaptic_pulse, split at every pulse edge.  The membrane takes
        # the synapse's mean current over each step from pulses that began
        # before the step; a pulse that begins inside a step acts on the
        # synapse from its onset and on the membrane from the next step.
        net = two_islands_with_link()
        sim = SimConfig(duration=4e-5, dt=DT, master_seed=2, record_traces=[2], trace_decimation=1)
        rec = run(net, sim)
        n_steps = sim.n_steps

        def island_noise(island):
            density = (2e-10, 1e-30)[island]  # as declared in two_islands_with_link
            spec = NoiseSpec("white", density, (10.0, 5e6),
                             seed=derive_seed(sim.master_seed, 0), stream_id=derive_seed(island, island))
            return generate(spec, n_steps, DT)

        onsets, stamps = [], []  # (step, offset into the step), grid stamps
        v_m, v_n = P.v_rest, 0.0
        for k, i_in in enumerate(island_noise(0)):
            v_m, v_n, onset = advance(v_m, v_n, float(i_in), DT, P)
            if onset is not None:
                onsets.append((k, onset))
                stamps.append(k + 1)
        assert len(onsets) >= 1
        assert np.array_equal(np.array(stamps, dtype=np.int64) * DT, rec.times[0])

        tau = time_constant(SP)

        def synapse_over_step(i_out, k, with_new):
            """dpi_flow over step k, split at the pulse edges that fall in it
            (offsets from the start of the step), each piece driven as
            presynaptic_pulse gives it."""
            t = k * DT
            pulses = [j * DT + th for j, th in onsets if j < k or (with_new and j == k)]
            edges = {0.0, DT}
            for j, th in onsets:
                if j < k:
                    end = (j * DT + th + SP.pulse_width) - t
                    if 0.0 < end < DT:
                        edges.add(end)
                elif j == k and with_new:
                    edges.update(e for e in (th, th + SP.pulse_width) if e < DT)
            edges = sorted(edges)
            charge = 0.0
            for a, b in zip(edges, edges[1:]):
                drive = presynaptic_pulse(pulses, SP, t + 0.5 * (a + b))
                i_out, q = dpi_flow(i_out, drive, b - a, SP.i_tau, tau, SP.i_floor)
                charge += float(q)
            return float(i_out), charge

        onset_steps = {j for j, _ in onsets}
        i_syn = SP.i_floor
        v = NeuronState(v_m=0.0, v_n=0.0)
        trace = [v.v_m]
        for k, i_noise in enumerate(island_noise(1)):
            i_end, charge = synapse_over_step(i_syn, k, with_new=False)
            if k in onset_steps:
                i_end, _ = synapse_over_step(i_syn, k, with_new=True)
            i_syn = i_end
            v = neuron_step(v, P, i_noise + charge / DT, DT)
            trace.append(v.v_m)

        _, by_id = rec.traces
        engine_trace = by_id[2]
        ref = np.asarray(trace)
        assert len(engine_trace) == len(ref)
        assert ref.max() > 0.3  # the pulses reached the destination membrane
        assert np.allclose(engine_trace, ref, rtol=0, atol=1e-12)

    def test_multiplicity_scales_kick(self):
        kicks = {mult: observer_kick(mult) for mult in (1, 3)}
        # single kick is a clear but sub-threshold response; the tripled
        # synapse carries three times the charge and crosses threshold alone
        assert 0.3 < kicks[1] < P.v_th
        assert kicks[3] == pytest.approx(3 * kicks[1], rel=0.01)
        assert kicks[3] > DETECT_THRESHOLD_V

    def test_single_kick_matches_fine_euler_reference(self):
        # the membrane lift from one presynaptic pulse equals the charge of
        # an independent forward-Euler DPI integration at 3000 sub-steps
        # per 10 ns step (trapezoidal charge), divided by c_m, within 0.1%.
        # The Euler reference's own error there is about -0.03%; the earlier
        # 34-sub-step scheme was 2% low.
        tau = time_constant(SP)
        h = DT / 3000
        i, charge = SP.i_floor, 0.0
        for j in range(int(round(2e-6 / h))):
            drive = SP.i_pulse if j * h < SP.pulse_width else 0.0
            i_next = max(i + h * ((-i + drive * (i / (SP.i_tau + i))) / tau), SP.i_floor)
            charge += 0.5 * (i + i_next) * h
            i = i_next
        reference = charge / P.c_m
        kick = observer_kick(1, baseline=True)
        assert abs(kick - reference) / reference < 1e-3, (kick, reference)

    def test_triple_kick_fires_quiet_target_immediately(self):
        rec3 = run(two_islands_with_link(3), SimConfig(duration=4e-5, dt=DT, master_seed=2))
        src, dst = rec3.times[0], rec3.times[2]
        assert len(src) >= 1 and len(dst) >= 1
        assert dst[0] - src[0] < 5e-7  # relays within half a microsecond


def chained_synapses(onsets, n_steps):
    """Per step, the end state and the charge over the step of two fast-dpi
    outputs driven by neurons 0 and 1 with spike onsets ``{(step, neuron):
    offset}``, by a step-by-step ``dpi_flow`` chain split at the pulse
    edges.  A step's charge leaves out a pulse that starts in it; its end
    state does not."""
    tau = time_constant(SP)
    i = [SP.i_floor, SP.i_floor]
    states, charges = [], []
    for k in range(n_steps):
        ends, q = [0.0, 0.0], [0.0, 0.0]
        for o in (0, 1):
            def over_step(with_new):
                # pulse edges as offsets from the start of step k
                pulses = [(th - (k - j) * DT, th + SP.pulse_width - (k - j) * DT)
                          for (j, n), th in onsets.items() if n == o and (j < k or (with_new and j == k))]
                edges = sorted({0.0, DT} | {e for p in pulses for e in p if 0.0 < e < DT})
                x, charge = i[o], 0.0
                for a, b in zip(edges, edges[1:]):
                    on = any(s <= 0.5 * (a + b) < e for s, e in pulses)
                    x, dq = dpi_flow(x, SP.i_pulse if on else 0.0, b - a, SP.i_tau, tau, SP.i_floor)
                    x, charge = float(x), charge + float(dq)
                return x, charge

            q[o] = over_step(False)[1]
            ends[o] = over_step(True)[0]
        i = ends
        states.append(ends)
        charges.append(q)
    return np.array(states), np.array(charges)


# Onset offsets into a step: 0, just under dt, and any in between.
offsets = st.one_of(st.just(0.0), st.just(float(np.nextafter(DT, 0.0))), st.floats(0.0, DT, exclude_max=True))


class TestPulseTables:
    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 40), st.integers(0, 1)), offsets, max_size=8))
    @example({(3, 0): 0.3 * DT, (8, 0): 0.0, (9, 1): float(np.nextafter(DT, 0.0))})  # onset in flight
    @example({(0, 0): 0.0, (15, 0): 0.0, (16, 0): 0.5 * DT})  # pulse ends on the grid, then restarts
    @example({(2, 1): float(np.nextafter(DT, 0.0)), (17, 1): float(np.nextafter(DT, 0.0))})
    def test_tables_follow_the_chained_flow(self, onsets):
        # the states and per-step charges of outputs whose pulses are solved
        # once at their onset agree with a step-by-step dpi_flow chain split
        # at the pulse edges within rtol 1e-12 (they differ only in
        # rounding); a step solves nothing
        n_steps = 60
        syn = _SynapseStates([(0, SP), (1, SP)], 2, DT, np.array([1, 0]), np.array([1.0, 1.0]),
                             np.array([0, 1]))
        states, charges = [], []
        for k in range(n_steps):
            solves = syn.rising_solves
            charges.append(syn.step(k)[::-1] * DT)
            assert syn.rising_solves == solves
            spiking = [n for n in (0, 1) if (k, n) in onsets]
            if spiking:
                syn.start_pulses(k, np.array(spiking), np.array([onsets[k, n] for n in spiking]))
            states.append(syn.i.copy())
        ref_states, ref_charges = chained_synapses(onsets, n_steps)
        np.testing.assert_allclose(np.array(states), ref_states, rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.array(charges), ref_charges, rtol=1e-12, atol=0)


class TestQuietStretches:
    @pytest.mark.parametrize("name,sim_kw", [
        ("fig6F", dict(master_seed=2, record_traces="all", trace_decimation=7)),
        ("fig6H", dict(master_seed=0, record_traces=[0, 17, 40])),
        ("fig5A_nobond", dict(master_seed=1, dt=DT / 2, noise_dt=DT)),
        ("no_synapses", dict(master_seed=3, record_traces="all", trace_decimation=3)),
        ("mixed_presets", dict(master_seed=2, duration=4e-5, record_traces="all", trace_decimation=1)),
    ])
    def test_quiet_path_is_bit_identical_to_general_steps(self, name, sim_kw, engine_path, monkeypatch):
        import spikeislands.presets as presets_mod

        # Every shipped config has synapses and one neuron preset; a network
        # without synapses has an empty synapse block, and one whose neurons
        # differ in v_th stops its quiet stretches at the lowest.
        if name == "no_synapses":
            net = single_island(5, [], density=4e-10)
        elif name == "mixed_presets":
            monkeypatch.setitem(presets_mod.NEURON_PRESETS, "_observer", replace(P, v_th=2.2, v_gate_th=2.1))
            net = two_islands_with_link(1, "_observer")
        else:
            net, _ = parse_document(load_builtin(name))
        sim = SimConfig(**{"duration": 3e-5, "dt": DT, **sim_kw})
        fast = run(net, sim)
        general_steps(monkeypatch)
        slow = run(net, sim)
        assert fast.stats["quiet_steps"] > 0 and slow.stats["quiet_steps"] == 0
        assert spikes_to_csv(fast) == spikes_to_csv(slow)
        assert fast.stats["pulse_steps"] == slow.stats["pulse_steps"]
        if sim.record_traces is not None:
            assert np.array_equal(fast.traces[0], slow.traces[0])
            for nid, v in slow.traces[1].items():
                assert v.tobytes() == fast.traces[1][nid].tobytes()

    def test_stats_pin_quiet_steps(self):
        # steps at which no switch is on, no pulse is in flight and every
        # synapse sits at its floor, taken as quiet stretches; seed 1, 120 us
        expected = {"fig6E": 10752, "fig6F": 9979, "fig6G": 2970, "fig6H": 9350}
        for name, quiet in expected.items():
            net, _ = parse_document(load_builtin(name))
            sim = SimConfig(duration=1.2e-4, dt=DT, master_seed=1)
            rec = run(net, sim)
            stats = rec.stats
            assert stats["steps"] == sim.n_steps
            assert stats["quiet_steps"] == quiet, name
            assert 0 < stats["pulse_steps"] <= sim.n_steps - quiet
            assert sum(stats["spikes_per_island"]) == rec.total_spikes()
            assert stats["spikes_per_island"] == [
                sum(len(t) for t, isl in zip(rec.times, rec.island_of) if isl == i) for i in range(4)
            ]
            assert not set(stats) & set(rec.meta)

    def test_stats_without_synapses(self, engine_path):
        # the single neuron counts the quiet steps it takes, compiled as a
        # one-neuron network or in the Python single-neuron loop
        rec = run(single_island(3, []), SimConfig(duration=2e-5, dt=DT, master_seed=4))
        assert rec.stats["steps"] == 2000 and rec.stats["pulse_steps"] == 0
        assert rec.stats["quiet_steps"] > 0
        single = run_single_neuron(NoiseSpec("white", 2e-10, (10.0, 5e6)), P,
                                   SimConfig(duration=2e-5, dt=DT, master_seed=4))
        assert single.stats == {"steps": 2000, "quiet_steps": 1953, "pulse_steps": 0, "rising_solves": 0,
                                "spikes_per_island": [len(single.times[0])]}


class TestSingleNeuron:
    def test_white_noise_fires_irregularly(self):
        spec = NoiseSpec.from_rms("white", 1.5e-6, band=(10.0, 5e7), seed=0)
        rec = run_single_neuron(spec, P, SimConfig(duration=2e-3, dt=DT, master_seed=1))
        t = rec.times[0]
        assert len(t) > 20
        isis = np.diff(t)
        assert isis.std() / isis.mean() > 0.2  # irregular, not tonic
        assert rec.traces is not None

    def test_pink_noise_fires(self):
        spec = NoiseSpec.from_rms("pink", 1.5e-6, band=(10.0, 5e6), seed=0)
        rec = run_single_neuron(spec, P, SimConfig(duration=2e-3, dt=DT, master_seed=1))
        assert len(rec.times[0]) > 5

    def test_tiny_noise_no_spikes_50ms(self):
        # a drive far below the threshold-crossing scale produces no spikes
        # in 50 ms.  The membrane is a pure integrator, so the 50 ms
        # crossing scale is set by diffusion: sigma_v(T) = d*sqrt(T/2)/c_m.
        # At 0.3% of the calibrated 1.5 uA drive, sigma_v(50 ms) ~ 0.19 V,
        # more than 4 sigma below the 0.8 V threshold (at 1% it is only
        # ~1.3 sigma, which does occasionally cross).  10 seeds, checked at
        # a 2.5x coarser grid for speed (the diffusion rate is
        # grid-independent).
        dt = 2.5e-8
        spec = NoiseSpec.from_rms("white", 0.003 * 1.5e-6, band=(10.0, 0.5 / dt), seed=0)
        for seed in range(10):
            rec = run_single_neuron(
                spec, P, SimConfig(duration=50e-3, dt=dt, master_seed=seed)
            )
            assert len(rec.times[0]) == 0

    def test_spike_record_invariants(self):
        spec = NoiseSpec.from_rms("white", 1.5e-6, band=(10.0, 5e7), seed=0)
        rec = run_single_neuron(spec, P, SimConfig(duration=1e-3, dt=DT, master_seed=3))
        t = rec.times[0]
        assert (np.diff(t) > 0).all()
        assert t.min() >= 0 and t.max() <= rec.duration
        assert rec.meta["master_seed"] == 3

    def test_meta_is_pinned(self):
        # config_hash is the sha256 of the sorted JSON of the noise's kind,
        # density and band; noise_dt is the held grid when one is given.
        spec = NoiseSpec("pink", 3e-10, band=(100.0, 1e6), seed=4, stream_id=2)
        rec = run_single_neuron(spec, P, SimConfig(duration=2e-6, dt=DT, master_seed=5, noise_dt=2e-8))
        assert rec.meta == {
            "tool": "spikeislands",
            "version": spikeislands.__version__,
            "config_hash": "cda2a469fa92d7e7120cf7ed83d72a7fcb9c83009e3bb0b498bd5fe509cfb810",
            "master_seed": 5,
            "dt": 1e-08,
            "noise_dt": 2e-08,
            "duration": 2e-06,
            "n_neurons": 1,
            "n_synapses": 0,
        }


def assert_prefix(short, long):
    """The spikes and traces of ``short`` are those of ``long`` up to its
    end, bit for bit."""
    end = short.dt * int(round(short.duration / short.dt))
    for s, ls in zip(short.times, long.times, strict=True):
        assert ls[:len(s)].tobytes() == s.tobytes()
        assert (ls[len(s):] > end).all()
    (t_s, v_s), (t_l, v_l) = short.traces, long.traces
    assert t_l[:len(t_s)].tobytes() == t_s.tobytes()
    for nid, v in v_s.items():
        assert v_l[nid][:len(v)].tobytes() == v.tobytes()


class TestRunLength:
    # A run reads its noise forward and takes no statistic of the whole
    # series, so a shorter run at the same seed gives the first part of a
    # longer one's spikes and traces, also where the longer run reads on
    # into the next chunk of noise.
    @settings(max_examples=8, deadline=None)
    @given(st.integers(10, NOISE_CHUNK + 2000), st.integers(1, 4000), st.integers(0, 2**31))
    @example(NOISE_CHUNK - 3, 7, 1)
    def test_network_run_is_a_prefix_of_a_longer_run(self, n_short, n_more, seed):
        net, _ = parse_document(load_builtin("fig5A_nobond"))
        short, long = (run(net, SimConfig(duration=n * DT, dt=DT, master_seed=seed,
                                          record_traces=[0, 17, 40], trace_decimation=7))
                       for n in (n_short, n_short + n_more))
        assert_prefix(short, long)

    @pytest.mark.parametrize("kind,hold", [("white", 1), ("pink", 1), ("white", 3)])
    @settings(max_examples=10, deadline=None)
    @given(st.integers(10, 3 * NOISE_CHUNK), st.integers(1, 2 * NOISE_CHUNK), st.integers(0, 2**31))
    @example(NOISE_CHUNK - 3, 7, 1)
    @example(3 * NOISE_CHUNK - 1, 2, 2)
    def test_single_neuron_run_is_a_prefix_of_a_longer_run(self, kind, hold, n_short, n_more, seed):
        spec = NoiseSpec.from_rms(kind, 1.5e-6, band=(1e4, 5e6), seed=3, stream_id=1)
        short, long = (run_single_neuron(spec, P, SimConfig(duration=n * DT, dt=DT, master_seed=seed,
                                                            trace_decimation=7, noise_dt=hold * DT))
                       for n in (n_short, n_short + n_more))
        assert_prefix(short, long)

    def test_noise_blocks_that_end_inside_busy_stretches(self, engine_path, monkeypatch):
        # a network's run returns at the end of each noise block the drive
        # holds (97 samples, each held for 2 steps), in idle and in busy
        # stretches, and the runs after it give the spikes, stats and traces
        # of the run through one block
        import spikeislands.engine as engine_mod

        net, _ = parse_document(load_builtin("fig6G"))
        sim = SimConfig(duration=3e-5, dt=DT, master_seed=1, noise_dt=2 * DT, record_traces=[0, 17, 40],
                        trace_decimation=3)
        whole = run(net, sim)
        starts, real_run = [], engine_path.run
        monkeypatch.setattr(engine_path, "run",
                            lambda self, k: starts.append(self.synapses.idle_at_floor(k)) or real_run(self, k))
        monkeypatch.setattr(engine_mod, "NOISE_CHUNK", 97)
        split = run(net, sim)
        assert spikes_to_csv(split) == spikes_to_csv(whole) and split.stats == whole.stats
        assert split.traces[0].tobytes() == whole.traces[0].tobytes()
        assert {i: v.tobytes() for i, v in split.traces[1].items()} == {
            i: v.tobytes() for i, v in whole.traces[1].items()}
        assert len(starts) == 16 and not all(starts[1:]) and whole.stats["pulse_steps"] > 0


class TestDrive:
    @pytest.mark.parametrize("kind,hold", [("white", 1), ("pink", 1), ("white", 3), ("pink", 3)])
    def test_held_at_reads_each_stream_a_block_at_a_time(self, kind, hold):
        # walked step by step over more than two blocks, each island's
        # samples are its stream's series, each read by hold steps, and a
        # new block holds the next NOISE_CHUNK samples
        specs = [NoiseSpec.from_rms(kind, 1.5e-6, band=(1e4, 5e6), seed=seed, stream_id=i)
                 for i, seed in enumerate((3, 8))]
        n = 2 * NOISE_CHUNK + 5
        sim = SimConfig(duration=n * hold * DT, dt=DT, master_seed=11, noise_dt=hold * DT)
        drive = _Drive(specs, sim)
        read, firsts = np.empty((2, n * hold)), []
        for k in range(n * hold):
            held, first = drive.held_at(k)
            if first not in firsts:
                assert held.shape == (2, NOISE_CHUNK)
                firsts.append(first)
            read[:, k] = held[:, k // hold - first]
        assert firsts == [0, NOISE_CHUNK, 2 * NOISE_CHUNK]
        for i, spec in enumerate(specs):
            series = generate(_effective_noise(spec, sim.master_seed, i), n, hold * DT)
            assert read[i].tobytes() == series.repeat(hold).tobytes()


class TestRefinement:
    def test_network_spike_count_stable_under_dt_halving(self):
        net, hints = parse_document(load_builtin("fig5A_nobond"))
        coarse = run(net, SimConfig(duration=1e-4, dt=DT, master_seed=1, noise_dt=DT))
        fine = run(net, SimConfig(duration=1e-4, dt=DT / 2, master_seed=1, noise_dt=DT))
        n1, n2 = coarse.total_spikes(), fine.total_spikes()
        assert n1 > 50
        assert abs(n2 - n1) <= 0.02 * n1
