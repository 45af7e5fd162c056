"""Record the expected result digests of every benchmark operation.

Runs one pass of each workload on the ``reference`` backend, the oracle,
and writes ``expected/seed<N>.json``: per workload, the sha256 of every
result document and the trace events one pass consumes.  The traced
recomposition runs too and must reproduce the same digests.

    python3 benchmarks/perf/make_expected.py [--seed N ...] [--scale-factor F] [--out-dir DIR]

Seeds 0, 1 and 2 cover every input set; ``run.py`` checks seed ``N``
against ``seed<N % 3>.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro import api  # noqa: E402
from repro.experiments import runner  # noqa: E402

import suite  # noqa: E402
from tracing import Recomposer, Tracer  # noqa: E402

FORMAT = "repro-perfbench-expected-v1"


def expected_for(seed: int, scale_factor: float) -> dict:
    workloads = {}
    for workload in suite.WORKLOADS:
        ops = suite.ops_for(workload, seed, scale_factor)
        runner.clear_memo()
        digests: dict[str, str] = {}
        for op in ops:
            digests.update(suite.digests(op, suite.execute(op)))
        runner.clear_memo()
        recomposer = Recomposer(Tracer())
        recomposed: dict[str, str] = {}
        for op in ops:
            recomposed.update(suite.digests(op, recomposer.run(op)))
        if recomposed != digests:
            raise SystemExit(f"{workload}: the traced recomposition differs from the api path")
        workloads[workload] = {
            "scale": suite.SCALES[workload] * scale_factor,
            "events": recomposer.events(workload),
            "digests": digests,
        }
        print(f"seed {seed} {workload}: {len(digests)} digests", flush=True)
    return {
        "format": FORMAT,
        "backend": "reference",
        "seed": seed,
        "scale_factor": scale_factor,
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", help="repeatable; default 0 1 2")
    parser.add_argument("--scale-factor", type=float, default=1.0)
    parser.add_argument("--out-dir", type=Path, default=HERE / "expected")
    args = parser.parse_args(argv)
    api.configure(jobs=1, use_cache=False, sim_options=api.SimOptions(backend="reference"))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for seed in args.seed or (0, 1, 2):
        doc = expected_for(seed, args.scale_factor)
        path = args.out_dir / f"seed{seed}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
