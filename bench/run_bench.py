"""End-to-end timings of one checkout of spikeislands, merged into a BENCH json.

    python bench/run_bench.py --label change --out BENCH_n.json
    python bench/run_bench.py --label parent --repo ../parent --out BENCH_n.json

Measures the checkout at ``--repo`` (default: the one this script sits in),
importing the package from its ``src/``, and writes the result under
``runs.<label>`` of ``--out``, keeping the other labels already there:

- ``host``: Python, numpy, the CPU features numpy dispatches to, the BLAS
  build and ``OPENBLAS_CORETYPE`` if it is set;
- ``configs``: for each shipped config at master seed 1 (120 us, and 20 ms
  for ``fig3_single_neuron``), CPU seconds and us/step, best of 3 in this
  process, with the run's ``stats`` counters and spike count;
- ``advance``: CPU us per ``neuron.advance`` call, best of 5, over the calls
  that runs of fig3 and fig6G make (recorded, then replayed);
- ``tier1``: the wall time of the checkout's Tier-1 suite
  (``python -m pytest -q``) and its summary line.

The host's speed drifts, so compare two checkouts only with runs taken in
alternation on one host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_DURATION = 120e-6
DURATIONS = {"fig3_single_neuron": 20e-3}
MASTER_SEED = 1
ADVANCE_CONFIGS = ("fig3_single_neuron", "fig6G")


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
    return info


def _load(name: str):
    from spikeislands.configio import load_builtin, parse_document
    from spikeislands.engine import SimConfig

    network, hints = parse_document(load_builtin(name))
    duration = DURATIONS.get(name, DEFAULT_DURATION)
    return network, SimConfig(duration=duration, dt=hints.get("dt", 1e-8), master_seed=MASTER_SEED)


def time_configs(repeats: int = 3) -> dict:
    from spikeislands.configio import builtin_names
    from spikeislands.engine import run

    out = {}
    for name in builtin_names():
        network, sim = _load(name)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.process_time()
            record = run(network, sim)
            best = min(best, time.process_time() - t0)
        out[name] = {
            "duration_s": sim.duration,
            "steps": sim.n_steps,
            "cpu_s": round(best, 4),
            "us_per_step": round(best / sim.n_steps * 1e6, 3),
            "stats": record.stats,
            "spikes": record.total_spikes(),
        }
        print(f"# {name}: {out[name]['us_per_step']} us/step", file=sys.stderr)
    return out


def time_advance(repeats: int = 5) -> dict:
    """Records the arguments of every ``advance`` call of the runs of
    ADVANCE_CONFIGS, then replays them, timed."""
    from spikeislands import engine

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


def time_tier1(repo: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=repo, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 1), "summary": lines[-1] if lines else "", "exit": proc.returncode}


def _commit(repo: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=repo,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this checkout's results, e.g. parent or change")
    ap.add_argument("--repo", type=Path, default=here, help="checkout to measure (default: this one)")
    ap.add_argument("--out", type=Path, required=True, help="json file to merge the results into")
    args = ap.parse_args(argv)

    repo = args.repo.resolve()
    sys.path.insert(0, str(repo / "src"))
    import spikeislands

    result = {
        "repo_commit": _commit(repo),
        "version": spikeislands.__version__,
        "taken": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_info(),
        "master_seed": MASTER_SEED,
        "configs": time_configs(),
        "advance": time_advance(),
        "tier1": time_tier1(repo),
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("runs", {})[args.label] = result
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {args.out} [runs.{args.label}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
