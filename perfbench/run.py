#!/usr/bin/env python3
"""spikeislands benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see README.md for why each was chosen): ring_seeds and
single_neuron_sweep.  The program is imported from ``src/`` of the checkout
this file sits in; without that source tree the benchmark exits with code 2.

One run repeats passes over inputs made from ``--seed`` for about
``--seconds`` seconds; a spikes CSV made again from the same seed must match
the first byte for byte (a run in which no pass repeats a seed repeats its
first simulation).  An untraced ``ring_seeds`` pass takes new master seeds
each time; a traced run repeats the first pass's inputs.  With
``--trace 0`` every pass is untraced, a set-up probe in a fresh interpreter
runs before each pass, and the run reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the run reports the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Spans, per-pass details and spike-file digests are written to
``.perfbench_work/<workload>/report-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "configio.parse_s": "s",
    "topology.n_synapses": "count",
    "topology.n_links": "count",
    "noise.generate_s": "s",
    "noise.samples": "count",
    "engine.run_s": "s",
    "engine.steps": "count",
    "engine.spikes": "count",
    "engine.us_per_step": "us",
    "engine.self_s": "s",
    "synapse.updates": "count",
    "synapse.active_step_frac": "fraction",
    "neuron.updates": "count",
    "analysis.s": "s",
    "analysis.bins": "count",
    "io.write_s": "s",
    "io.read_s": "s",
    "io.bytes": "bytes",
    "cli.s": "s",
    "cli.runs": "count",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spikeislands" / "__init__.py").is_file():
        print(f"error: no spikeislands source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spikeislands

    if Path(spikeislands.__file__).resolve().parent != SRC / "spikeislands":
        print(f"error: imported spikeislands from {spikeislands.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    probe = None if args.trace else setup_probe(workload, work)
    tracer = Tracer(enabled=False, spill_dir=work / "spans")
    passes, setup = run_passes(workload, tracer, work, args, probe)
    if args.trace:
        metrics, per_config = layer_report(passes, tracer.spans)
    else:
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        # The mean over every pass of the run, not the median: on a shared
        # host the speed can change twofold within tens of seconds, and a
        # median of the two or three long passes a ring_seeds run holds keeps
        # the time of only one or two of them.
        metrics = {
            "wall_s": statistics.fmean(p["wall"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        per_config = {}

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    host = provenance(args)
    report = {"host": host, "workload": workload.name, "setup_s": setup, "passes": passes,
              "per_config": per_config, "metrics": metrics, "spans": tracer.spans}
    (work / f"report-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")

    failed = sum(1 for p in passes if p["failures"])
    print(f"# host: {json.dumps(host, sort_keys=True)}")
    for p in passes:
        kind = "traced" if p["traced"] else "untraced"
        print(f"# pass {p['id']} ({kind}): {p['wall']:.3f} s, {len(p['failures'])} failed checks")
        for msg in p["failures"]:
            print(f"#   FAILED: {msg}")
    for label, digest in sorted({k: v for p in passes for k, v in p["digests"].items()}.items()):
        print(f"# sha256 {label}: {digest}")
    for cfg, row in sorted(per_config.items()):
        print(f"# engine.us_per_step[{cfg}]: {row['us_per_step']:.2f} us over {row['steps']} steps")
    print(f"# error_rate: {failed / len(passes):.4f} ({failed} of {len(passes)} passes failed a check)")
    for name, value in metrics.items():
        print(f"# {name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }), flush=True)
    return 0


def setup_probe(workload, work: Path):
    """A callable that times one fresh interpreter from its start until it has
    imported the package and parsed and validated the workload's configs."""
    cfg_dir = work / "setup"
    cfg_dir.mkdir()
    paths = []
    for label, text in workload.config_texts().items():
        path = cfg_dir / f"{label}.cfg"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *paths]

    def probe() -> float:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        return t1 - t0

    return probe


def run_passes(workload, tracer, work: Path, args, probe=None) -> tuple[list[dict], list[float]]:
    """Repeat passes until the next one would end after ``args.seconds``.

    With a set-up ``probe``, one probe runs before each pass, so the probes
    sample the host over the whole run like the passes do, and at least
    SETUP_PROBES run in all.  Returns the passes and the probe times.
    """
    passes: list[dict] = []
    setup: list[float] = []
    digests: dict[str, str] = {}  # spikes CSV label -> sha256 of its first making
    min_passes = 2 if args.trace else 1  # a traced run needs one pass of each kind
    start = time.perf_counter()
    while True:
        if probe:
            setup.append(probe())
        pid = len(passes)
        tracer.enabled = bool(args.trace) and pid % 2 == 1
        tracer.pass_id = pid
        # A traced run keeps pass 0's inputs, so its counts can be compared.
        res, wall = attempt(workload, tracer, work / f"pass{pid}", 0 if args.trace else pid)
        tracer.enabled = False
        check_repeats(res, digests)
        passes.append({"id": pid, "traced": bool(args.trace) and pid % 2 == 1, "wall": wall,
                       "failures": res.failures, "digests": res.digests})
        elapsed = time.perf_counter() - start
        next_cost = statistics.median(p["wall"] for p in passes)
        if probe:
            next_cost += statistics.median(setup) * max(1, SETUP_PROBES - len(setup))
        if len(passes) >= min_passes and elapsed + next_cost > args.seconds:
            break
    while probe and len(setup) < SETUP_PROBES:
        setup.append(probe())
    if len(digests) == sum(len(p["digests"]) for p in passes):
        # No pass repeated a seed: repeat the first simulation.
        res, _ = attempt(workload, tracer, work / "repeat", 0, first_only=True)
        check_repeats(res, digests)
        passes[0]["failures"].extend(res.failures)
    return passes, setup


def check_repeats(res, digests: dict) -> None:
    """Fail ``res`` where a spikes CSV differs from an earlier one of the same
    label (config and seed); remember the labels not seen before."""
    for label, digest in res.digests.items():
        if digests.setdefault(label, digest) != digest:
            res.failures.append(f"{label}: spikes CSV differs from an earlier run at the same seed")


def attempt(workload, tracer, out: Path, inputs: int, first_only: bool = False):
    """One timed pass in a fresh directory: (result, seconds).

    An exception fails the pass, not the run.
    """
    from workloads import PassResult

    out.mkdir()
    t0 = time.perf_counter()
    try:
        res = tracer.call("pass", workload.run_pass, tracer, out, inputs, first_only=first_only)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        res = PassResult(failures=[f"{type(exc).__name__}: {exc}"])
    wall = time.perf_counter() - t0
    shutil.rmtree(out)
    return res, wall


def layer_report(passes: list[dict], spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of the traced passes, and engine time per config.

    Times are medians over traced passes; counts must repeat exactly, and a
    traced pass whose counts differ from the first traced pass fails.
    """
    from spans import covered

    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        mine = [s for s in spans if s["pass"] == p["id"]]
        per_pass.append(layer_metrics(mine))
    counts = [{k: v for k, v in m.items() if LAYER_UNITS[k] in ("count", "bytes", "fraction")}
              for m in per_pass]
    for p, c in zip(traced[1:], counts[1:]):
        if c != counts[0]:
            p["failures"].append(f"work counts differ from the first traced pass: {c} != {counts[0]}")

    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    untraced = [p["wall"] for p in passes if not p["traced"]]
    metrics["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - statistics.median(untraced)
    uncovered = []
    for p in traced:
        top = next(s for s in spans if s["pass"] == p["id"] and s["name"] == "pass")
        children = [s for s in spans if s["parent"] == top["id"]]
        uncovered.append((top["end"] - top["start"]) - covered(top, children))
    metrics["trace.uncovered_s"] = statistics.median(uncovered)

    by_id = {s["id"]: s for s in spans}
    per_config = defaultdict(lambda: {"run_s": 0.0, "steps": 0})
    first = [s for s in spans if s["pass"] == traced[0]["id"] and s["name"] == "engine.run"
             and not s.get("error")]
    for s in first:
        cfg = s.get("config") or _ancestor(s, by_id, "cli.main").get("config", "?")
        per_config[cfg]["run_s"] += s["end"] - s["start"]
        per_config[cfg]["steps"] += s["steps"]
    for row in per_config.values():
        row["us_per_step"] = row["run_s"] / row["steps"] * 1e6 if row["steps"] else 0.0
    return {k: metrics[k] for k in LAYER_UNITS}, dict(per_config)


def layer_metrics(spans: list[dict]) -> dict:
    """Sum each layer's span time and work counts over one traced pass."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def busy(*names):
        return sum(s["end"] - s["start"] for n in names for s in by_name[n])

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    runs = [s for s in by_name["engine.run"] if not s.get("error")]
    steps = total("engine.run", "steps")
    synaptic_steps = sum(s["steps"] for s in runs if s["synapses"])
    analysis = [n for n in by_name if n.startswith("analysis.")]
    by_id = {s["id"]: s for s in spans}
    run_s, gen_s = busy("engine.run"), busy("noise.generate")
    return {
        "configio.parse_s": busy("configio.parse_document"),
        "topology.n_synapses": total("engine.run", "synapses"),
        "topology.n_links": total("engine.run", "links"),
        "noise.generate_s": gen_s,
        "noise.samples": total("noise.generate", "samples"),
        "engine.run_s": run_s,
        "engine.steps": steps,
        "engine.spikes": total("engine.run", "spikes"),
        "engine.us_per_step": run_s / steps * 1e6 if steps else 0.0,
        "engine.self_s": run_s - gen_s,
        "synapse.updates": sum(s["synapses"] * s["steps"] for s in runs),
        "synapse.active_step_frac": (total("engine.run", "active_steps") / synaptic_steps
                                     if synaptic_steps else 0.0),
        "neuron.updates": sum(s["neurons"] * s["steps"] for s in runs),
        "analysis.s": busy(*analysis),
        "analysis.bins": sum(total(n, "bins") for n in analysis),
        "io.write_s": busy("io.write_spikes_csv"),
        "io.read_s": busy("io.read_events_csv"),
        "io.bytes": total("io.write_spikes_csv", "bytes"),
        "cli.s": busy("cli.main"),
        "cli.runs": sum(1 for s in runs if _ancestor(s, by_id, "cli.main")),
    }


def _ancestor(span: dict, by_id: dict, name: str) -> dict:
    while span.get("parent") in by_id:
        span = by_id[span["parent"]]
        if span["name"] == name:
            return span
    return {}


def provenance(args) -> dict:
    """Host, toolchain and code identity for the report."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
