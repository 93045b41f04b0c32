"""The demos compile and import only names that exist; the quick ones run."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spikeislands

DEMO_DIR = Path(__file__).parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
SRC = Path(spikeislands.__file__).resolve().parents[1]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    source = path.read_text(encoding="utf-8")
    compile(source, str(path), "exec")
    tree = ast.parse(source, str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spikeislands":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{path.name}:{node.lineno}: {node.module} has no {missing}"


def test_every_demo_is_checked():
    assert len(DEMOS) >= 6


# The demos that run in about a second; each writes only these files.
QUICK = {
    "05_synapse_calibration.py": [],
    "06_external_events.py": ["out/06_external_events/matrix.csv", "out/06_external_events/recording.csv"],
}


@pytest.mark.parametrize("name", sorted(QUICK))
def test_quick_demo_runs(tmp_path, name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, str(DEMO_DIR / name)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert written == QUICK[name]
    assert all((tmp_path / f).stat().st_size > 0 for f in written)
