"""Cold start: what a fresh ``repro`` process loads before it does work.

Every entry point (the library, the CLI, the serve daemon, engine
workers) imports ``repro.experiments.runner``, and through it most of the
package.  numpy is the package's only runtime dependency, and the first
test pins that in a fresh interpreter: of the modules loaded from
``import repro`` on, through importing every module under ``repro`` and
planning and simulating one cell, none belongs to an installed
distribution other than numpy and repro itself.  A module that imports
another third-party package fails it, naming the first ``repro`` module
whose import pulled that package in.  Stdlib modules, and modules that
no installed distribution owns (the ``_cython_*`` modules numpy creates
at run time), do not count; site hooks that load before ``repro`` (such
as ``_distutils_hack``) are not in the set.

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
#: small cell; prints the installed distributions that own a module
#: loaded since ``import repro``, and the first ``repro`` module whose
#: import loaded one other than numpy and repro.
CHILD = """
import importlib, importlib.metadata, json, pkgutil, sys

owners_of = importlib.metadata.packages_distributions()
before = set(sys.modules)


def owners():
    tops = {name.partition(".")[0] for name in set(sys.modules) - before}
    return {dist for top in tops for dist in owners_of.get(top, ())}


import repro

first_importer = "repro" if owners() - {"numpy", "repro"} else None
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
    if first_importer is None and owners() - {"numpy", "repro"}:
        first_importer = info.name

import repro.api as api

api.configure(jobs=1, use_cache=False)
spec = api.ExperimentSpec("libquantum", "amd-phenom-ii", "swnt", scale=0.02)
api.run(spec)
api.advise(
    api.AdvisorRequest(workload=spec.workload, machine=spec.machine, config=spec.config, scale=0.02)
)
print(json.dumps({"owners": sorted(owners()), "first_importer": first_importer}))
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


def test_planning_and_simulating_load_only_numpy_and_repro(tmp_path):
    report = run_child(CHILD, tmp_path)
    # repro owns its modules only where its metadata is on the path (an
    # install, or the egg-info under src/); numpy must be found either way.
    assert set(report["owners"]) - {"repro"} == {"numpy"}, (
        f"loaded modules of {report['owners']}; "
        f"the first third-party import came with {report['first_importer']}"
    )


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
