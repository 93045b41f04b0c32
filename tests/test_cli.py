import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

import spikeislands
from spikeislands.cli import main
from spikeislands.configio import load_builtin


def cli(*args, env=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "spikeislands", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def read_summary(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestValidateConfig:
    def test_valid_builtin(self):
        res = cli("validate-config", "--config", "fig5A_nobond")
        assert res.returncode == 0
        assert "ok:" in res.stdout

    def test_missing_config_exit_2(self):
        res = cli("validate-config", "--config", "/nonexistent/net.cfg")
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_bad_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("island 0\n  neurons 4\n  noise white density=1e-10\n  edge 0 -> 9 exc\nend\n")
        res = cli("validate-config", "--config", str(bad))
        assert res.returncode == 2
        assert "island[0].edge[0]" in res.stderr

    def test_ring_out_of_range_exit_2(self, tmp_path):
        bad = tmp_path / "ring17.cfg"
        text = load_builtin("fig6E").replace("ring links=0", "ring links=17")
        bad.write_text(text)
        res = cli("validate-config", "--config", str(bad))
        assert res.returncode == 2
        line = next(i for i, raw in enumerate(text.splitlines(), start=1) if raw.startswith("ring "))
        assert f"line {line}" in res.stderr and "links_per_pair 17" in res.stderr

    @pytest.mark.parametrize("noise", ["density=inf", "rms=inf", "density=1e-10 band=10:inf"])
    def test_non_finite_noise_exit_2(self, tmp_path, noise, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"island 0\n  neurons 2\n  noise white {noise}\nend\n")
        assert main(["validate-config", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: line 3, ")

    @pytest.mark.parametrize("field", ["neuron_preset", "synapse_preset"])
    def test_unknown_preset_exit_2(self, tmp_path, field, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"island 0\n  neurons 2\n  {field} bogus\n  noise white density=1e-10\nend\n")
        assert main(["validate-config", "--config", str(bad)]) == 2
        assert f"island[0].{field}: unknown preset 'bogus'" in capsys.readouterr().err

    def test_syntax_error_line_col(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("island 0\n  wat 4\nend\n")
        res = cli("validate-config", "--config", str(bad))
        assert res.returncode == 2
        assert "line 2" in res.stderr


class TestSimulate:
    def test_missing_config_exit_2(self, tmp_path):
        res = cli("simulate", "--config", "/nope.cfg", "--out", str(tmp_path / "o"))
        assert res.returncode == 2

    def test_artifacts_created(self, tmp_path):
        out = tmp_path / "run"
        res = cli("simulate", "--config", "fig5A_nobond", "--out", str(out),
                  "--duration", "5e-5", "--seed", "3")
        assert res.returncode == 0, res.stderr
        assert (out / "spikes.csv").is_file()
        assert (out / "meta.json").is_file()
        assert (out / "manifest.json").is_file()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["master_seed"] == 3
        head = (out / "spikes.csv").read_text().splitlines()[0]
        assert head == "neuron_id,t_seconds"

    def test_repeat_run_identical_spikes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            res = cli("simulate", "--config", "fig5A_nobond", "--out", str(out),
                      "--duration", "5e-5", "--seed", "7")
            assert res.returncode == 0, res.stderr
        assert (a / "spikes.csv").read_bytes() == (b / "spikes.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_meta_says_whether_the_compiled_layers_ran(self, tmp_path, monkeypatch):
        # meta.json records whether the compiled neuron and synapse layers
        # ran; the spikes and the manifest are the same on both paths
        from spikeislands import _kernel

        compiled = _kernel.load() is not None
        args = ["simulate", "--config", "fig6G", "--duration", "5e-6", "--seed", "2"]
        assert main([*args, "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(_kernel, "load", lambda: None)
        assert main([*args, "--out", str(tmp_path / "b")]) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        metas = [json.loads((out / "meta.json").read_text()) for out in (a, b)]
        assert [meta.pop("compiled") for meta in metas] == [compiled, False]
        for meta in metas:
            del meta["created_utc"]
        assert metas[0] == metas[1]
        assert (a / "spikes.csv").read_bytes() == (b / "spikes.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        assert "compiled" not in (a / "manifest.json").read_text()

    def test_meta_records_the_hosts_arithmetic(self, tmp_path, monkeypatch):
        # meta.json records numpy's active SIMD features and OPENBLAS_CORETYPE
        # when it is set; the manifest and its content_hash do not change
        # with them
        from numpy._core._multiarray_umath import __cpu_features__

        args = ["simulate", "--config", "fig3_single_neuron", "--duration", "2e-6", "--seed", "1"]
        monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
        assert main([*args, "--out", str(tmp_path / "a")]) == 0
        on = sorted(name for name, value in __cpu_features__.items() if value)
        monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
        monkeypatch.setitem(__cpu_features__, "ZZ_NOT_A_FEATURE", True)
        assert main([*args, "--out", str(tmp_path / "b")]) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        metas = [json.loads((out / "meta.json").read_text()) for out in (a, b)]
        assert metas[0]["cpu_features"] == on and "openblas_coretype" not in metas[0]
        assert metas[1]["cpu_features"] == [*on, "ZZ_NOT_A_FEATURE"] and metas[1]["openblas_coretype"] == "Haswell"
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        assert "Haswell" not in (a / "manifest.json").read_text() + (b / "manifest.json").read_text()

    @pytest.mark.parametrize("flags", [["--dt", "0"], ["--traces", "--trace-decimation", "0"],
                                       ["--duration", "1e-9"],
                                       ["--dt", "2e-7"],  # above the neuron's stability bound
                                       ["--dt", "2e-8"]])  # the 50 MHz noise band above Nyquist
    def test_bad_run_parameter_exit_2(self, tmp_path, flags, capsys):
        # a run parameter that SimConfig or the network rejects is a usage
        # error, not a runtime one
        out = tmp_path / "o"
        assert main(["simulate", "--config", "fig3_single_neuron", "--duration", "1e-5",
                     *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_manifest_hash_covers_every_data_flag(self, tmp_path, monkeypatch):
        # the simulate manifest's content_hash changes with every flag that
        # can change the data, traces included, and with the tool version
        import spikeislands.cli as cli_mod

        def simulate(tag, *flags):
            out = tmp_path / tag
            assert main(["simulate", "--config", "fig3_single_neuron", "--duration", "2e-6",
                         "--out", str(out), *flags]) == 0
            return json.loads((out / "manifest.json").read_text())

        base = simulate("base")
        assert simulate("again")["content_hash"] == base["content_hash"]
        variants = [
            simulate("duration", "--duration", "3e-6"),
            simulate("dt", "--dt", "5e-9"),
            simulate("seed", "--seed", "4"),
            simulate("traces", "--traces"),
            simulate("decimation", "--traces", "--trace-decimation", "1"),
        ]
        with monkeypatch.context() as patch:
            patch.setattr(cli_mod, "__version__", "0.1.0")
            variants.append(simulate("version"))
        hashes = [base["content_hash"]] + [m["content_hash"] for m in variants]
        assert len(set(hashes)) == len(hashes)

    def test_env_var_output_root(self, tmp_path):
        import os

        env = dict(os.environ, SPIKEISLANDS_OUT=str(tmp_path))
        res = cli("simulate", "--config", "fig3_single_neuron", "--out", "rooted",
                  "--duration", "2e-4", env=env)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "rooted" / "spikes.csv").is_file()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim") / "run"
    res = cli("simulate", "--config", "fig5B_ring8", "--out", str(out),
              "--duration", "1.2e-4", "--seed", "1")
    assert res.returncode == 0, res.stderr
    return out


class TestAnalyze:
    def test_matrix_square_with_labels(self, run_dir, tmp_path):
        out = tmp_path / "matrix.csv"
        res = cli("analyze", "--spikes", str(run_dir / "spikes.csv"), "--bin", "1e-6",
                  "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = [r for r in csv.reader(open(out)) if r]
        n = len(rows[0]) - 1
        assert len(rows) == n + 1
        labels = rows[0][1:]
        assert [r[0] for r in rows[1:]] == labels

    def test_isi_histogram_two_columns(self, run_dir, tmp_path):
        out = tmp_path / "isi.csv"
        res = cli("analyze", "--spikes", str(run_dir / "spikes.csv"), "--isi",
                  "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["bin_left_seconds", "count"]
        assert len(rows) > 1

    def test_iti_histogram(self, run_dir, tmp_path):
        out = tmp_path / "iti.csv"
        res = cli("analyze", "--spikes", str(run_dir / "spikes.csv"), "--iti",
                  "--hist-bin", "1e-5", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["bin_left_seconds", "count"]

    def test_empty_spike_file_warns_and_exits_zero(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("neuron_id,t_seconds\n")
        out = tmp_path / "matrix.csv"
        res = cli("analyze", "--spikes", str(empty), "--out", str(out))
        assert res.returncode == 0
        assert "warning" in res.stderr
        assert out.read_text() == ""

    def test_threshold_sweep_mode(self, tmp_path):
        out_run = tmp_path / "run"
        res = cli("simulate", "--config", "fig3_single_neuron", "--out", str(out_run),
                  "--duration", "2e-4", "--traces", "--trace-decimation", "1")
        assert res.returncode == 0, res.stderr
        out = tmp_path / "sweep.csv"
        res = cli("analyze", "--threshold-sweep", "0.25,1.0,2.0",
                  "--traces", str(out_run / "traces.csv"), "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["threshold_v", "count"]
        assert len(rows) == 4
        counts = {float(th): int(c) for th, c in rows[1:]}
        # full-rate traces reproduce the online spike count at the plateau
        n_spikes = sum(1 for line in open(out_run / "spikes.csv")) - 1
        assert counts[1.0] == counts[2.0] == n_spikes
        assert counts[0.25] >= counts[1.0]

    def test_external_event_csv_ingestion(self, tmp_path):
        # frame-sampled external series: same two-column format
        ext = tmp_path / "external.csv"
        rows = ["source_id,t_seconds"]
        for sid in (101, 202):
            rows += [f"{sid},{k * 0.2 + sid * 1e-3}" for k in range(20)]
        ext.write_text("\n".join(rows) + "\n")
        out = tmp_path / "m.csv"
        res = cli("analyze", "--spikes", str(ext), "--bin", "0.2", "--out", str(out))
        assert res.returncode == 0, res.stderr
        head = open(out).readline().strip().split(",")
        assert head[1:] == ["101", "202"]


class TestSweep:
    def test_unknown_axis_exit_2(self, tmp_path):
        res = cli("sweep", "--config", "fig3_single_neuron", "--axis", "flux",
                  "--values", "1,2", "--out", str(tmp_path / "s"))
        assert res.returncode == 2

    @pytest.mark.parametrize("axis,values", [("links", "1,17"), ("multiplicity", "0"), ("links", "1,1.5")])
    def test_bad_value_exit_2_before_any_run(self, tmp_path, axis, values):
        out = tmp_path / "s"
        res = cli("sweep", "--config", "fig6E", "--axis", axis, "--values", values,
                  "--duration", "2e-6", "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert not out.exists()

    def test_bad_dt_exit_2_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["sweep", "--config", "fig3_single_neuron", "--axis", "noise-density",
                     "--values", "4e-10", "--duration", "1e-5", "--dt", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: dt must be positive\n"
        assert not out.exists()

    def test_empty_values_exit_2(self, tmp_path):
        res = cli("sweep", "--config", "fig3_single_neuron", "--axis", "noise-density",
                  "--values", "", "--out", str(tmp_path / "s"))
        assert res.returncode == 2

    def test_density_sweep_decreasing_isi(self, tmp_path):
        out = tmp_path / "dens"
        res = cli("sweep", "--config", "fig3_single_neuron", "--axis", "noise-density",
                  "--values", "350e-12,433e-12,516e-12,600e-12",
                  "--duration", "2e-3", "--out", str(out), "--seed", "5")
        assert res.returncode == 0, res.stderr
        rows = read_summary(out / "summary.csv")
        assert len(rows) == 4
        isis = [float(r["mean_isi_seconds"]) for r in rows]
        assert all(a > b for a, b in zip(isis, isis[1:]))
        for r in rows:
            sub = out / f"noise-density={float(r['value']):g}"
            assert (sub / "spikes.csv").is_file()

    def test_links_sweep_raises_cross_island_rho(self, tmp_path):
        out = tmp_path / "links"
        res = cli("sweep", "--config", "fig5B_ring8", "--axis", "links",
                  "--values", "0,8", "--out", str(out), "--seed", "2")
        assert res.returncode == 0, res.stderr
        rows = read_summary(out / "summary.csv")
        rho = {float(r["value"]): float(r["mean_cross_island_rho"]) for r in rows}
        assert rho[8.0] > rho[0.0]

    def test_ring_sweep_varies_the_configs_own_ring(self, tmp_path):
        # fig6G's ring is links=3 fanout=8 multiplicity=3, so its multiplicity=3
        # sweep runs fig6G itself
        assert main(["sweep", "--config", "fig6G", "--axis", "multiplicity", "--values", "3",
                     "--duration", "2e-6", "--out", str(tmp_path / "s")]) == 0
        assert main(["simulate", "--config", "fig6G", "--duration", "2e-6", "--out", str(tmp_path / "sim")]) == 0
        swept = json.loads((tmp_path / "s" / "multiplicity=3" / "meta.json").read_text())
        simulated = json.loads((tmp_path / "sim" / "meta.json").read_text())
        assert swept["n_synapses"] == simulated["n_synapses"] == 421
        assert swept["config_hash"] == simulated["config_hash"]

    def test_ring_sweep_keeps_explicit_links(self, tmp_path):
        link = "link 0.0 -> 1.[3] multiplicity=2\n"
        ringed = tmp_path / "ringed.cfg"
        ringed.write_text(load_builtin("fig5B_ring8") + link)
        plain = tmp_path / "plain.cfg"
        plain.write_text(load_builtin("fig5A_nobond") + link)
        assert main(["sweep", "--config", str(ringed), "--axis", "links", "--values", "0",
                     "--duration", "2e-6", "--out", str(tmp_path / "s")]) == 0
        assert main(["simulate", "--config", str(plain), "--duration", "2e-6", "--out", str(tmp_path / "sim")]) == 0
        swept = json.loads((tmp_path / "s" / "links=0" / "meta.json").read_text())
        simulated = json.loads((tmp_path / "sim" / "meta.json").read_text())
        assert swept["config_hash"] == simulated["config_hash"]
        assert swept["n_synapses"] == simulated["n_synapses"] > 0

    def test_jobs_do_not_change_artifacts(self, tmp_path):
        outs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"j{jobs}"
            res = cli("sweep", "--config", "fig3_single_neuron", "--axis", "noise-density",
                      "--values", "400e-12,600e-12", "--duration", "1e-3",
                      "--out", str(out), "--jobs", jobs, "--seed", "9")
            assert res.returncode == 0, res.stderr
            outs[jobs] = out
        for sub in ("noise-density=4e-10", "noise-density=6e-10"):
            a = (outs["1"] / sub / "spikes.csv").read_bytes()
            b = (outs["2"] / sub / "spikes.csv").read_bytes()
            assert a == b
        assert (outs["1"] / "summary.csv").read_bytes() == (outs["2"] / "summary.csv").read_bytes()

    @pytest.mark.parametrize("jobs,values,pool", [("8", "1e-10,2e-10", 2), ("2", "1e-10,2e-10,3e-10", 2),
                                                  ("8", "1e-10", None), ("1", "1e-10,2e-10", None)])
    def test_pool_has_no_more_workers_than_runs(self, tmp_path, monkeypatch, jobs, values, pool):
        # --jobs caps the workers at the number of runs; a single worker's
        # run is taken in this process
        import multiprocessing

        sizes = []

        class Pool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", Pool)
        assert main(["sweep", "--config", "fig3_single_neuron", "--axis", "noise-density", "--values", values,
                     "--duration", "1e-5", "--out", str(tmp_path / "s"), "--jobs", jobs]) == 0
        assert sizes == ([] if pool is None else [pool])

    def test_manifest_hash_covers_every_data_flag(self, tmp_path, monkeypatch):
        # the sweep manifest's content_hash changes with every flag that can
        # change the data and with the tool version, whose bump marks a change
        # of the data the same inputs give, and not with --jobs; without
        # --seed the config's seed hint is the base seed
        import spikeislands.cli as cli_mod

        config = tmp_path / "ring.cfg"
        config.write_text(load_builtin("fig5B_ring8") + "sim seed=3\n")
        other_ring = tmp_path / "other_ring.cfg"
        other_ring.write_text(config.read_text().replace("seed=101", "seed=7"))

        def sweep(tag, axis, *flags, config=config):
            out = tmp_path / tag
            assert main(["sweep", "--config", str(config), "--axis", axis, "--values", "1,2",
                         "--duration", "2e-6", "--out", str(out), *flags]) == 0
            return json.loads((out / "manifest.json").read_text())

        base = sweep("base", "fanout")
        assert (base["master_seed"], base["duration"], base["dt"]) == (3, 2e-6, 1e-8)
        assert sweep("jobs", "fanout", "--jobs", "2")["content_hash"] == base["content_hash"]
        variants = {
            "duration": sweep("duration", "fanout", "--duration", "3e-6"),
            "dt": sweep("dt", "fanout", "--dt", "5e-9"),
            "seed": sweep("seed", "fanout", "--seed", "4"),
            "ring": sweep("ring", "fanout", config=other_ring),
            "axis": sweep("axis", "links"),
        }
        with monkeypatch.context() as patch:
            patch.setattr(cli_mod, "__version__", "0.1.0")
            variants["version"] = sweep("version", "fanout")
        assert variants["version"]["version"] == "0.1.0"
        hashes = [base["content_hash"]] + [m["content_hash"] for m in variants.values()]
        assert len(set(hashes)) == len(hashes)


def exit_code(argv) -> int:
    """``main(argv)``'s exit code, also when argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


SPIKES = "neuron_id,t_seconds\n0,1e-6\n0,3e-6\n"
BAD_ARGV = [
    ["analyze"],  # neither --spikes nor --threshold-sweep
    ["analyze", "--spikes", "{spikes}", "--bin", "0"],
    ["analyze", "--spikes", "{spikes}", "--isi", "--hist-bin", "-1"],
    ["analyze", "--spikes", "{spikes}", "--iti", "--gap-factor", "0.5"],
    ["analyze", "--spikes", "{spikes}", "--isi", "--iti"],
    ["analyze", "--threshold-sweep", "1,abc", "--traces", "{spikes}"],
    ["analyze", "--threshold-sweep", "2,1", "--traces", "{spikes}"],  # not ascending
    ["sweep", "--config", "fig3_single_neuron", "--axis", "noise-density", "--values", "1e-10,abc"],
    ["sweep", "--config", "fig3_single_neuron", "--axis", "noise-density", "--values", "1e-10", "--jobs", "0"],
    # values whose output directories coincide
    ["sweep", "--config", "fig3_single_neuron", "--axis", "noise-density", "--values", "2e-10,2e-10"],
    ["sweep", "--config", "fig3_single_neuron", "--axis", "noise-density", "--values", "3.5e-10,3.500001e-10"],
    # a config without a ring line has a ring with no links: nothing to vary
    ["sweep", "--config", "fig5A_nobond", "--axis", "fanout", "--values", "1,2"],
    ["sweep", "--config", "fig5A_nobond", "--axis", "multiplicity", "--values", "2"],
    ["simulate", "--config", "fig5A_nobond", "--duration", "inf"],
]
# malformed input files
BAD_INPUT = {
    "too-few-fields": (["analyze", "--spikes", "{spikes}"], "neuron_id,t_seconds\n0\n"),
    "id-not-an-integer": (["analyze", "--spikes", "{spikes}"], "neuron_id,t_seconds\nx,1\n"),
    "time-not-a-number": (["analyze", "--spikes", "{spikes}"], "neuron_id,t_seconds\n0,abc\n"),
    "time-not-finite": (["analyze", "--spikes", "{spikes}"], "neuron_id,t_seconds\n0,inf\n"),
    "time-twice": (["analyze", "--spikes", "{spikes}"], "neuron_id,t_seconds\n0,1e-6\n0,1e-6\n"),
    "trace-not-a-number": (["analyze", "--threshold-sweep", "1,2", "--traces", "{spikes}"], "t_seconds,v_0\n0,abc\n"),
}


@pytest.mark.parametrize(
    "argv, spikes_text",
    [pytest.param(argv, SPIKES, id=f"argv{i}") for i, argv in enumerate(BAD_ARGV)]
    + [pytest.param(*case, id=name) for name, case in BAD_INPUT.items()],
)
def test_bad_parameter_exit_2_before_writing(tmp_path, argv, spikes_text):
    spikes = tmp_path / "spikes.csv"
    spikes.write_text(spikes_text)
    out = tmp_path / "o" / "x"
    argv = [a.format(spikes=spikes) for a in argv] + ["--duration", "2e-6"] * (argv[0] == "sweep")
    assert exit_code(argv + ["--out", str(out)]) == 2
    assert not out.parent.exists()


def test_package_version_matches_pyproject():
    # a manifest's content_hash covers __version__ alone, so a release that
    # changes the data bumps both together
    tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["version"] == spikeislands.__version__


class TestNoiseCheck:
    def test_psd_csv_written(self, tmp_path):
        out = tmp_path / "psd.csv"
        res = cli("noise-check", "--kind", "pink", "--density", "2e-10",
                  "--band", "100:5e5", "--dt", "1e-6", "--n", "16384",
                  "--seeds", "5", "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["f_hz", "psd_a2_per_hz"]
        assert len(rows) > 100

    def test_defaults_fit_the_default_dt(self, tmp_path):
        out = tmp_path / "psd.csv"
        assert main(["noise-check", "--density", "2e-10", "--out", str(out)]) == 0
        rows = list(csv.reader(open(out)))
        assert float(rows[-1][0]) <= 0.5 / 1e-6

    @pytest.mark.parametrize("flags", [
        ["--density", "2e-10", "--band", "10:abc"], ["--density", "2e-10", "--band", "10"],
        ["--density", "2e-10", "--band", "5e5:10"],
        ["--density", "2e-10", "--band", "10:5e6"],  # above Nyquist at the default dt
        ["--density", "-1"], ["--rms", "-1"], ["--density", "2e-10", "--dt", "0"],
        ["--density", "2e-10", "--seeds", "0"], ["--density", "2e-10", "--segments", "0"],
        ["--density", "2e-10", "--n", "63"],
        [], ["--density", "2e-10", "--rms", "1e-6"],  # neither level, both levels
    ])
    def test_bad_parameter_exit_2_before_writing(self, tmp_path, flags, capsys):
        out = tmp_path / "psd" / "psd.csv"
        assert main(["noise-check", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.parent.exists()
