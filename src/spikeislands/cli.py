"""Command-line entry point tying configs, runs, sweeps and analysis together.

Subcommands: simulate, analyze, sweep, noise-check, validate-config.
Exit codes: 0 ok, 1 runtime failure, 2 usage or config error.

``--config`` accepts either a file path or the name of a shipped experiment
config (see ``spikeislands.configio.builtin_names``).  Relative ``--out``
paths are resolved against the SPIKEISLANDS_OUT environment variable when it
is set, else against the working directory.  Every simulate/sweep run writes
a ``manifest.json`` covering the exact inputs (config text hash, seed, tool
version); re-running an unchanged manifest reproduces the data artifacts
byte for byte (wall-clock timestamps appear only in ``meta.json``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from . import __version__
from .analysis import (
    DEFAULT_BIN_S,
    DEFAULT_GAP_FACTOR,
    bin_events,
    block_means,
    histogram,
    isi,
    iti,
    pearson_matrix,
    record_matrix,
    threshold_sweep,
    trains,
)
from .configio import ConfigSyntaxError, builtin_names, load_builtin, parse_document
from .engine import SimConfig, SimulationError, check_sim, derive_seed, run
from .io import (
    read_events_csv,
    read_traces_csv,
    write_histogram_csv,
    write_matrix_csv,
    write_psd_csv,
    write_spikes_csv,
    write_traces_csv,
)
from .noise import NoiseSpec, check_grid, density_for_rms, generate, psd_estimate
from .presets import neuron_preset
from .topology import TopologyError

SWEEP_AXES = ("noise-density", "links", "fanout", "multiplicity")


class CliError(Exception):
    """Usage or config error; maps to exit code 2."""


def _out_root() -> Path:
    root = os.environ.get("SPIKEISLANDS_OUT")
    return Path(root) if root else Path.cwd()


def _resolve_out(path_str: str) -> Path:
    p = Path(path_str)
    return p if p.is_absolute() else _out_root() / p


def _above(kind, bound):
    """An argparse type: a ``kind`` (int or float) number above ``bound``."""

    def parse(text: str):
        value = kind(text)
        if not value > bound:
            raise argparse.ArgumentTypeError(f"must be above {bound}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid float value"
    return parse


def _numbers(text: str) -> list[float]:
    """An argparse type: a non-empty comma-separated list of numbers."""
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def _load_config(spec_arg: str) -> tuple[str, str]:
    """Return (config_text, source_label) for a path or built-in name."""
    p = Path(spec_arg)
    if p.is_file():
        return p.read_text(encoding="utf-8"), str(p)
    if spec_arg in builtin_names():
        return load_builtin(spec_arg), f"builtin:{spec_arg}"
    raise CliError(
        f"config {spec_arg!r} is neither a file nor a built-in name {builtin_names()}"
    )


def _sim_from_args(args, hints: dict, network) -> SimConfig:
    """The run parameters, checked against ``network`` (``engine.check_sim``)."""
    duration = args.duration if args.duration is not None else hints.get("duration")
    if duration is None:
        raise CliError("no duration: pass --duration or add a 'sim duration=...' line to the config")
    dt = args.dt if args.dt is not None else hints.get("dt", 1e-8)
    seed = args.seed if args.seed is not None else hints.get("seed", 0)
    traces = "all" if getattr(args, "traces", False) else None
    decim = getattr(args, "trace_decimation", 10)
    try:
        sim = SimConfig(duration=duration, dt=dt, master_seed=seed, record_traces=traces, trace_decimation=decim)
        check_sim([neuron_preset(isl.neuron_preset) for isl in network.islands], network.noise, sim)
        return sim
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _write_manifest(out_dir: Path, config_text: str, source: str, sim: SimConfig, extra: dict | None = None) -> None:
    # the content hash covers everything that determines the data artifacts:
    # config text, seed, run parameters, and the tool version
    stamp = json.dumps(
        {
            "config": config_text,
            "seed": sim.master_seed,
            "duration": sim.duration,
            "dt": sim.dt,
            "version": __version__,
            "extra": extra or {},
        },
        sort_keys=True,
    )
    manifest = {
        "tool": "spikeislands",
        "version": __version__,
        "config_source": source,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "content_hash": hashlib.sha256(stamp.encode()).hexdigest(),
        "master_seed": sim.master_seed,
        "duration": sim.duration,
        "dt": sim.dt,
        "steps": ["simulate"] + (["analyze"] if extra and extra.get("analyze") else []),
    }
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_run(out_dir: Path, record, write_traces: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_spikes_csv(record, out_dir / "spikes.csv")
    if write_traces and record.traces is not None:
        write_traces_csv(record.traces, out_dir / "traces.csv")
    meta = dict(record.meta)
    meta["created_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    from . import _kernel  # loaded by the run, which asked the same cached load()

    # Whether the compiled code ran (it does where it passed its check);
    # the spikes are the same either way.
    meta["compiled"] = _kernel.load() is not None
    # What the host's arithmetic ran on: numpy's active SIMD features, and
    # OpenBLAS's core type when it is set (the pink noise's bits follow it).
    meta["cpu_features"] = sorted(name for name, on in __cpu_features__.items() if on)
    if "OPENBLAS_CORETYPE" in os.environ:
        meta["openblas_coretype"] = os.environ["OPENBLAS_CORETYPE"]
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def cmd_simulate(args) -> int:
    config_text, source = _load_config(args.config)
    network, hints = parse_document(config_text)
    sim = _sim_from_args(args, hints, network)
    record = run(network, sim)
    out_dir = _resolve_out(args.out)
    _write_run(out_dir, record, write_traces=bool(args.traces))
    # hashed only when traces are on, so an untraced run's content_hash does not move
    extra = {"trace_decimation": sim.trace_decimation} if args.traces else None
    _write_manifest(out_dir, config_text, source, sim, extra=extra)
    print(f"wrote {out_dir / 'spikes.csv'} ({record.total_spikes()} spikes)")
    return 0


def cmd_validate_config(args) -> int:
    config_text, source = _load_config(args.config)
    network, hints = parse_document(config_text)
    n_edges = sum(len(isl.crossbar) for isl in network.islands)
    print(
        f"ok: {source}: {len(network.islands)} islands, "
        f"{network.n_neurons_total} neurons, {n_edges} crossbar edges, "
        f"{len(network.links)} inter-island links"
        + (f", sim hints {hints}" if hints else "")
    )
    return 0


def _read_input(read, path: str):
    """``read(path)``; a missing or malformed file is a CliError."""
    if not Path(path).is_file():
        raise CliError(f"input file not found: {path}")
    try:
        return read(path)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def cmd_analyze(args) -> int:
    if args.threshold_sweep is not None and not args.traces:
        raise CliError("--threshold-sweep needs --traces traces.csv")
    if args.threshold_sweep is None and args.spikes is None:
        raise CliError("pass --spikes, or --threshold-sweep with --traces")
    if args.threshold_sweep is not None and np.any(np.diff(args.threshold_sweep) <= 0.0):
        raise CliError(f"--threshold-sweep must be ascending, got {args.threshold_sweep}")
    if args.threshold_sweep is not None:
        t, by_id = _read_input(read_traces_csv, args.traces)
    else:
        events = _read_input(read_events_csv, args.spikes)
    out_path = _resolve_out(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)

    if args.threshold_sweep is not None:
        thresholds = args.threshold_sweep
        if len(t) < 2:
            print("warning: empty traces file; writing empty output", file=sys.stderr)
            out_path.write_text("threshold_v,count\n")
            return 0
        dt = float(t[1] - t[0])
        totals = np.zeros(len(thresholds), dtype=int)
        for v in by_id.values():
            for i, (_, count) in enumerate(threshold_sweep(v, dt, thresholds)):
                totals[i] += count
        lines = ["threshold_v,count"] + [f"{th:g},{c}" for th, c in zip(thresholds, totals)]
        out_path.write_text("\n".join(lines) + "\n")
        print(f"wrote {out_path}")
        return 0

    if not events or all(len(e) == 0 for e in events):
        print("warning: no events in spike file; writing empty output", file=sys.stderr)
        out_path.write_text("")
        return 0

    if args.isi or args.iti:
        pooled = np.concatenate([isi(e) if args.isi else iti(trains(e, gap_factor=args.gap_factor))
                                 for e in events])
        if pooled.size == 0:
            print("warning: no intervals; writing empty output", file=sys.stderr)
            out_path.write_text("bin_left_seconds,count\n")
            return 0
        edges, counts = histogram(pooled, args.hist_bin)
        write_histogram_csv(edges, counts, out_path)
        print(f"wrote {out_path} ({pooled.size} intervals)")
        return 0

    t_end = max(e.times[-1] for e in events if len(e)) + args.bin
    binned = [bin_events(e, args.bin, t_end) for e in events]
    matrix = pearson_matrix(binned, labels=[e.source_id for e in events], bin_width=args.bin)
    write_matrix_csv(matrix, out_path)
    print(f"wrote {out_path} ({matrix.n}x{matrix.n})")
    return 0


def _sweep_network(network, config_text: str, axis: str, value: float):
    """The network of one sweep value: ``network`` with every noise source at
    ``value``, or the config with its ``ring`` line's ``axis`` key set to ``value``."""
    if axis == "noise-density":
        return replace(network, noise=tuple(replace(ns, density=value) for ns in network.noise))
    if not value.is_integer():
        raise ValueError(f"expected an integer {axis} value")
    return parse_document(f"{config_text}\nring {axis}={int(value)}\n")[0]


def _sweep_one(job) -> dict:
    """One sweep run; module-level so it pickles for multiprocessing."""
    network, value, run_index, base_sim, out_dir = job
    sim = replace(base_sim, master_seed=derive_seed(base_sim.master_seed, run_index))
    record = run(network, sim)
    _write_run(Path(out_dir), record, write_traces=False)

    isis = np.concatenate([np.diff(t) for t in record.times if len(t) >= 2] or [np.empty(0)])
    _, cross = block_means(record_matrix(record), record.island_of)
    return {
        "value": value,
        "total_spikes": record.total_spikes(),
        "mean_isi_seconds": float(np.mean(isis)) if isis.size else float("nan"),
        "mean_cross_island_rho": cross,
    }


def cmd_sweep(args) -> int:
    values = args.values
    names = [f"{args.axis}={v:g}" for v in values]
    if len(set(names)) < len(names):
        raise CliError(f"sweep values {names} share an output directory")
    config_text, source = _load_config(args.config)
    network, hints = parse_document(config_text)
    # Every swept network is built before any run starts, so a bad value writes nothing.
    networks = []
    for name, v in zip(names, values):
        try:
            networks.append(_sweep_network(network, config_text, args.axis, v))
        except ValueError as exc:
            raise CliError(f"{name}: {exc}") from None
    # a ring with no links is the same network at every fanout and multiplicity
    if args.axis in ("fanout", "multiplicity") and networks[0] == _sweep_network(network, config_text, "links", 0.0):
        raise CliError(f"the config's ring has no links, so a {args.axis} sweep varies nothing")
    # Run i uses master seed derive_seed(sim.master_seed, i).
    sim = _sim_from_args(args, hints, network)

    out_dir = _resolve_out(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(net, v, i, sim, str(out_dir / name)) for i, (net, v, name) in enumerate(zip(networks, values, names))]
    n_workers = min(args.jobs, len(jobs))
    if n_workers > 1:
        with multiprocessing.Pool(n_workers) as pool:
            rows = pool.map(_sweep_one, jobs)
    else:
        rows = [_sweep_one(j) for j in jobs]

    lines = ["value,total_spikes,mean_isi_seconds,mean_cross_island_rho"]
    for r in rows:
        rho = "" if np.isnan(r["mean_cross_island_rho"]) else f"{r['mean_cross_island_rho']:.6g}"
        mi = "" if np.isnan(r["mean_isi_seconds"]) else f"{r['mean_isi_seconds']:.9g}"
        lines.append(f"{r['value']:g},{r['total_spikes']},{mi},{rho}")
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")

    extra = {"sweep_axis": args.axis, "sweep_values": values, "analyze": True}
    _write_manifest(out_dir, config_text, source, sim, extra=extra)
    print(f"wrote {out_dir / 'summary.csv'} ({len(values)} runs)")
    return 0


def cmd_noise_check(args) -> int:
    # Every parameter is checked before the first series is drawn.
    try:
        lo, hi = (float(x) for x in args.band.split(":"))
    except ValueError:
        raise CliError(f"--band must be lo:hi in Hz, got {args.band!r}") from None
    band = (lo, hi)
    if (args.rms is None) == (args.density is None):
        raise CliError("pass one of --density and --rms")
    if args.seeds < 1:
        raise CliError("--seeds must be >= 1")
    if args.segments < 1 or args.n < 8 * args.segments:
        raise CliError("--segments must be >= 1 and --n at least 8 samples per segment")
    try:
        density = density_for_rms(args.rms, band) if args.rms is not None else args.density
        specs = [NoiseSpec(kind=args.kind, density=density, band=band, seed=args.seed, stream_id=k)
                 for k in range(args.seeds)]
        check_grid(band, args.dt)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    acc = None
    freqs = None
    for spec in specs:
        series = generate(spec, args.n, args.dt)
        freqs, psd = psd_estimate(series, args.dt, args.segments)
        acc = psd if acc is None else acc + psd
    acc /= args.seeds
    out_path = _resolve_out(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_psd_csv(freqs, acc, out_path)
    print(f"wrote {out_path} ({args.seeds}-seed averaged periodogram)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikeislands",
        description="Simulate noise-activated spiking-neuron islands and analyze firing correlations.",
    )
    parser.add_argument("--version", action="version", version=f"spikeislands {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a network config, write spikes/meta/manifest")
    p.add_argument("--config", required=True, help="config path or built-in name")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    p.add_argument("--duration", type=float, default=None, help="seconds (overrides config)")
    p.add_argument("--dt", type=float, default=None, help="time step, seconds (overrides config)")
    p.add_argument("--traces", action="store_true", help="record decimated membrane traces")
    p.add_argument("--trace-decimation", type=int, default=10,
                   help="trace sample stride (use 1 for full-rate traces, e.g. for threshold sweeps)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="statistics over a spikes.csv (or traces.csv)")
    p.add_argument("--spikes", help="spike CSV (neuron_id,t_seconds)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--bin", type=_above(float, 0), default=DEFAULT_BIN_S,
                   help="bin width for the correlation matrix, s")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--isi", action="store_true", help="emit pooled ISI histogram instead of a matrix")
    mode.add_argument("--iti", action="store_true", help="emit pooled ITI histogram instead of a matrix")
    mode.add_argument("--threshold-sweep", type=_numbers, default=None,
                      help="comma list of thresholds (V); needs --traces (record them full-rate: "
                           "simulate --traces --trace-decimation 1)")
    p.add_argument("--gap-factor", type=_above(float, 1), default=DEFAULT_GAP_FACTOR,
                   help="train split factor for --iti")
    p.add_argument("--hist-bin", type=_above(float, 0), default=1e-6, help="histogram bin width, s")
    p.add_argument("--traces", default=None, help="traces CSV for --threshold-sweep")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="one run per value along an axis, with summary.csv")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES,
                   help="noise-density sets every noise source's density; a ring axis sets that key "
                        "of the config's ring line")
    p.add_argument("--values", required=True, type=_numbers, help="comma-separated values")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--jobs", type=_above(int, 0), default=1, help="concurrent runs")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("noise-check", help="emit averaged-periodogram PSD CSV for a noise source")
    p.add_argument("--kind", choices=("white", "pink"), default="white")
    p.add_argument("--density", type=float, default=None, help="A/sqrt(Hz)")
    p.add_argument("--rms", type=float, default=None, help="in-band rms, A")
    p.add_argument("--band", default="10:5e5", help="lo:hi in Hz, hi at most the Nyquist frequency 1/(2 dt)")
    p.add_argument("--dt", type=float, default=1e-6, help="sample interval, s")
    p.add_argument("--n", type=int, default=1 << 16, help="samples per seed")
    p.add_argument("--seeds", type=int, default=20, help="periodograms to average")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--segments", type=int, default=8, help="Welch segments")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_noise_check)

    p = sub.add_parser("validate-config", help="parse and validate a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_validate_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ConfigSyntaxError, TopologyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, ValueError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
