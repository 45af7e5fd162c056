"""Cold start: what a fresh ``repro`` process loads before it does work.

Every entry point (the library, the CLI, the serve daemon, engine
workers) imports ``repro.experiments.runner``, and through it most of the
package.  scipy is loaded by one function only, the set-associativity
correction (``repro.statstack.setassoc``), which imports it on first
call: at module level it cost every process about 1.4 s of CPU and
67 MB before its first cell.  This test pins that in a fresh
interpreter, so a module-level scipy import anywhere under ``repro``
fails it, naming the module that pulled scipy in.

``import repro.api`` on its own loads neither numpy nor
``repro.cachesim`` (119 modules instead of 252), so a process that only
builds specs or requests stays cheap; a second fresh-interpreter test
pins that, and a third pins that ``repro cache stats`` loads no numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Imports every module under ``repro``, then plans and simulates one
#: small cell; prints which scipy modules were loaded at each step.
CHILD = """
import importlib, json, pkgutil, sys

import numpy as np


def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


import repro

first_importer = "repro" if scipy_loaded() else None
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
    if first_importer is None and scipy_loaded():
        first_importer = info.name

import repro.api as api

api.configure(jobs=1, use_cache=False)
spec = api.ExperimentSpec("libquantum", "amd-phenom-ii", "swnt", scale=0.02)
api.run(spec)
api.advise(
    api.AdvisorRequest(workload=spec.workload, machine=spec.machine, config=spec.config, scale=0.02)
)
after_work = scipy_loaded()

from repro.config import CacheConfig
from repro.sampling import collect_reuse_samples
from repro.statstack import StatStackModel, set_associative_miss_ratio
from repro.trace import MemoryTrace
from repro.trace.synthesis import strided_pattern

trace = MemoryTrace.loads(
    np.zeros(2_000, np.int64), strided_pattern(0, 2_000, 64, wrap_bytes=100 * 64)
)
model = StatStackModel(collect_reuse_samples(trace, np.arange(trace.n_demand), 64))
set_associative_miss_ratio(model, CacheConfig("L1", 64 * 64, ways=2))
print(json.dumps({
    "first_importer": first_importer,
    "after_work": after_work,
    "stats_after_call": "scipy.stats" in sys.modules,
}))
"""


def run_child(code: str, cwd: Path):
    """Run ``code`` in a fresh interpreter; the JSON of its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    child = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    return json.loads(child.stdout.splitlines()[-1])


def test_no_scipy_until_the_set_associativity_correction_runs(tmp_path):
    report = run_child(CHILD, tmp_path)
    assert report["first_importer"] is None, (
        f"importing {report['first_importer']} loads scipy"
    )
    assert report["after_work"] == [], "planning or simulating one cell loads scipy"
    assert report["stats_after_call"], "set_associative_miss_ratio did not load scipy.stats"


def test_importing_the_api_loads_no_numpy(tmp_path):
    # ``repro.api`` resolves ``SimOptions`` and the engine types lazily;
    # ``repro.cachesim`` (and with it numpy) loads only when one of them,
    # or a facade function, is used.
    loaded = run_child(
        "import json, sys\n"
        "import repro.api\n"
        "print(json.dumps([m for m in ('numpy', 'repro.cachesim') if m in sys.modules]))",
        tmp_path,
    )
    assert loaded == []


def test_cache_stats_loads_no_numpy(tmp_path):
    # ``repro cache stats`` only sizes the on-disk store; the payload
    # codecs (and numpy with them) load when an entry is keyed or decoded.
    cache_dir = tmp_path / "cache"
    loaded = run_child(
        "import contextlib, io, json, sys\n"
        "from repro import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['cache', 'stats', '--cache-dir', {str(cache_dir)!r}])\n"
        "print(json.dumps([code, 'numpy' in sys.modules]))",
        tmp_path,
    )
    assert loaded == [0, False]
