"""End-to-end timings of checkouts of spikeislands, taken in alternation.

    python bench/run_bench.py --checkout parent=../parent --checkout change=. \\
        --rounds 5 --out BENCH_n.json

Measures each ``--checkout LABEL=PATH`` (default: ``change=`` the checkout
this script sits in), importing the package from its ``src/`` in a fresh
interpreter for every measurement, and writes the results under
``runs.<label>`` of ``--out``, keeping the other labels already there.
Each run names what it measured: ``repo_commit`` (null for a copy without
``.git``) and ``src_sha256``, the digest of its ``src/`` (``_src_sha256``):

- ``host``: Python, numpy, the CPU features numpy dispatches to, the BLAS
  build, ``OPENBLAS_CORETYPE`` if it is set, ``kernel``: whether the
  compiled neuron updates loaded, the compiler command that built them,
  whether this process built them, the wall seconds of ``load()`` in a
  fresh process, which builds them if need be and checks them, and of the
  separate check of the compiled busy steps that older versions run at the
  first network with synapses (``busy_check_s``; null in a version without
  it) (a version without compiled updates reports ``compiled: false``),
  ``network_layer``: whether a network's neuron layer runs compiled, and
  ``synapse_layer``: whether its synapse layer does;
- ``configs``: for each shipped config at master seed 1 (120 us, and 20 ms
  for ``fig3_single_neuron``), the CPU seconds of one run per round, their
  median and the median's us/step, with the run's ``stats`` counters and
  spike count.  Each run is the second of its process, after a 1 us run has
  made the one-off costs (caches, the compiled code's loading).  Under
  ``phases``, each round also runs the config once more, in a process of
  its own, with wrappers that time the engine's phases (``PHASES``) in wall
  seconds, and records their seconds and calls per round and their medians;
- ``advance``: CPU us per ``neuron.advance`` call, best of 5, over the calls
  that runs of fig3 and fig6G make on the Python path (recorded, then
  replayed);
- ``tier1``: the wall time of the checkout's Tier-1 suite
  (``python -m pytest -q``) and its summary line.

Within a round every config runs once in each checkout, the checkouts in
turn, and the order of the checkouts is reversed from one round to the
next, so that the host's drift falls on both alike.  ``order`` records the
sequence of the runs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve()
DEFAULT_DURATION = 120e-6
DURATIONS = {"fig3_single_neuron": 20e-3}
MASTER_SEED = 1
ADVANCE_CONFIGS = ("fig3_single_neuron", "fig6G")
# The methods each phase of a network run is timed at, as
# ``module.Class.method`` of spikeislands; a method the run does not call
# counts no calls.  ``run`` is the neuron layer's ``run``: compiled, it takes
# every step, one call per noise block, and so times the whole network run
# (its quiet stretches, general steps, synapse steps, pulse starts and the
# noise it draws), and the other phases, which time the Python layers, see
# no call; on the Python path they time the neuron layer's general step
# (the noise gather and the finiteness test included), the synapse step
# and the pulse starts.
PHASES = {
    "neuron_block": ["engine._NeuronLayer.step"],
    "run": ["engine._NeuronLayer.run", "_kernel.NeuronLayer.run"],
    "synapse_step": ["engine._SynapseStates.step"],
    "start_pulses": ["engine._SynapseStates.start_pulses"],
}


# ------------------------------------------------- measured in a fresh process


def host_info() -> dict:
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_features__

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        info["blas"] = None
    try:
        from spikeislands import _kernel
    except ImportError:
        info["kernel"] = {"compiled": False, "command": None}
    else:
        t0 = time.perf_counter()
        kernel = _kernel.load()
        load_s = time.perf_counter() - t0
        busy_check_s = None
        if hasattr(type(kernel), "busy_loop_matches"):
            t0 = time.perf_counter()
            kernel.busy_loop_matches
            busy_check_s = round(time.perf_counter() - t0, 5)
        info["kernel"] = {"compiled": kernel is not None,
                          "command": None if kernel is None else " ".join(kernel.command),
                          "built": None if kernel is None else kernel.built, "load_s": round(load_s, 5),
                          "busy_check_s": busy_check_s}
        info["network_layer"] = {"compiled": hasattr(kernel, "neuron_layer")}
        info["synapse_layer"] = {"compiled": kernel is not None and hasattr(_kernel, "SynapseLayer")}
    return info


def _load(name: str, duration: float | None = None):
    from spikeislands.configio import load_builtin, parse_document
    from spikeislands.engine import SimConfig

    network, hints = parse_document(load_builtin(name))
    duration = duration or DURATIONS.get(name, DEFAULT_DURATION)
    return network, SimConfig(duration=duration, dt=hints.get("dt", 1e-8), master_seed=MASTER_SEED)


def time_config(name: str) -> dict:
    from spikeislands.engine import run

    run(*_load(name, 1e-6))
    network, sim = _load(name)
    t0 = time.process_time()
    record = run(network, sim)
    cpu = time.process_time() - t0
    return {"duration_s": sim.duration, "steps": sim.n_steps, "cpu_s": cpu,
            "stats": record.stats, "spikes": record.total_spikes()}


def time_phases(name: str) -> dict:
    """Wall seconds and calls of each phase (PHASES) over a run of ``name``,
    after a 1 us run."""
    from spikeislands.engine import run

    totals = {phase: [0.0, 0] for phase in PHASES}

    def timed(real, acc):
        def wrapper(*args):
            t0 = time.perf_counter()
            try:
                return real(*args)
            finally:
                acc[0] += time.perf_counter() - t0
                acc[1] += 1
        return wrapper

    for phase, paths in PHASES.items():
        for path in paths:
            module, cls, attr = path.split(".")
            owner = getattr(importlib.import_module(f"spikeislands.{module}"), cls)
            setattr(owner, attr, timed(getattr(owner, attr), totals[phase]))
    run(*_load(name, 1e-6))
    for acc in totals.values():
        acc[:] = [0.0, 0]
    run(*_load(name))
    return {phase: {"s": round(s, 4), "calls": calls} for phase, (s, calls) in totals.items()}


def time_advance(repeats: int = 5) -> dict:
    """Records the arguments of every ``advance`` call of the runs of
    ADVANCE_CONFIGS on the Python path, then replays them, timed."""
    from spikeislands import engine

    try:
        from spikeislands import _kernel
    except ImportError:
        pass
    else:
        _kernel.load = lambda: None  # the compiled code calls no Python advance
    advance = engine.advance
    calls = []

    def record(*args):
        calls.append(args)
        return advance(*args)

    engine.advance = record
    try:
        for name in ADVANCE_CONFIGS:
            engine.run(*_load(name))
    finally:
        engine.advance = advance
    best = float("inf")
    for _ in range(repeats):
        t0 = time.process_time()
        for args in calls:
            advance(*args)
        best = min(best, time.process_time() - t0)
    return {"configs": list(ADVANCE_CONFIGS), "calls": len(calls),
            "us_per_call": round(best / len(calls) * 1e6, 3)}


def measure(what: str) -> dict:
    """One measurement in this process: ``host``, ``advance``, ``names``,
    ``config:<name>`` or ``phases:<name>``."""
    if what == "host":
        return host_info()
    if what == "advance":
        return time_advance()
    if what == "names":
        from spikeislands.configio import builtin_names

        return {"names": list(builtin_names())}
    if what.startswith("phases:"):
        return time_phases(what.removeprefix("phases:"))
    return time_config(what.removeprefix("config:"))


# ----------------------------------------------------------------- the driver


def in_fresh_process(repo: Path, what: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    proc = subprocess.run([sys.executable, str(HERE), "--measure", what], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def time_tier1(repo: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=repo, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 1), "summary": lines[-1] if lines else "", "exit": proc.returncode}


def _src_sha256(repo: Path) -> str:
    """sha256 of the checkout's program: every ``.py``, ``.cfg`` and ``.c``
    file under ``src/``, each as its relative path, a NUL and its bytes, in
    path order (``perfbench/run.py``'s ``src_sha256`` takes the same form
    over the ``.py`` and ``.cfg`` files only)."""
    src, digest = repo / "src", hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg", ".c"):
            digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit(repo: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=repo,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def _version(repo: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    return subprocess.run([sys.executable, "-c", "import spikeislands; print(spikeislands.__version__)"],
                          env=env, capture_output=True, text=True, check=True).stdout.strip()


def _checkout(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not (sep and label and path):
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH, got {text!r}")
    return label, Path(path).resolve()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", type=_checkout, action="append", metavar="LABEL=PATH",
                    help="a checkout to measure under runs.LABEL (repeat; default: change=this checkout)")
    ap.add_argument("--rounds", type=int, default=3, help="runs of each config in each checkout (default 3)")
    ap.add_argument("--out", type=Path, help="json file to merge the results into")
    ap.add_argument("--measure", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if args.out is None:
        ap.error("--out is required")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    checkouts = dict(args.checkout or [("change", HERE.parent.parent)])

    results = {label: {"repo_commit": _commit(repo), "src_sha256": _src_sha256(repo), "version": _version(repo),
                       "taken": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                       "host": in_fresh_process(repo, "host"), "master_seed": MASTER_SEED,
                       "rounds": args.rounds, "configs": {}}
               for label, repo in checkouts.items()}
    names = in_fresh_process(next(iter(checkouts.values())), "names")["names"]
    labels, order = list(checkouts), []
    for r in range(args.rounds):
        turn = labels if r % 2 == 0 else labels[::-1]
        for name in names:
            for label in turn:
                res = in_fresh_process(checkouts[label], f"config:{name}")
                entry = results[label]["configs"].setdefault(name, {
                    "duration_s": res["duration_s"], "steps": res["steps"], "cpu_s": [],
                    "stats": res["stats"], "spikes": res["spikes"]})
                entry["cpu_s"].append(round(res["cpu_s"], 4))
                if res["stats"] != entry["stats"]:
                    raise SystemExit(f"{label} {name}: stats differ between rounds")
                for phase, timing in in_fresh_process(checkouts[label], f"phases:{name}").items():
                    per_round = entry.setdefault("phases", {}).setdefault(phase, {"s": [], "calls": timing["calls"]})
                    per_round["s"].append(timing["s"])
                order.append(f"{label}:{name}")
                print(f"# round {r + 1} {label} {name}: {res['cpu_s']:.4f} s", file=sys.stderr)
    for label in labels:
        for entry in results[label]["configs"].values():
            entry["median_cpu_s"] = round(statistics.median(entry["cpu_s"]), 4)
            entry["us_per_step"] = round(entry["median_cpu_s"] / entry["steps"] * 1e6, 3)
            for timing in entry["phases"].values():
                timing["median_s"] = round(statistics.median(timing["s"]), 4)
    for label in labels:
        results[label]["advance"] = in_fresh_process(checkouts[label], "advance")
    for label in labels:
        results[label]["tier1"] = time_tier1(checkouts[label])

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("runs", {}).update(results)
    data["order"] = order
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {args.out} [runs.{', runs.'.join(labels)}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
