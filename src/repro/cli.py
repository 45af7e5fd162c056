"""Command-line interface.

``repro`` exposes the library's main flows without writing Python:

* ``repro workloads`` — list the benchmark models;
* ``repro optimize <workload>`` — run the analysis pipeline, print the
  prefetch plan and (optionally) the rewritten assembly;
* ``repro simulate <workload>`` — simulate one or more prefetching
  configurations and report speedup/traffic;
* ``repro mrc <workload>`` — print StatStack miss-ratio curves;
* ``repro experiment <name>`` — regenerate one of the paper's tables or
  figures (``table1``, ``fig3`` … ``fig12``, ``statstack``,
  ``combined``);
* ``repro run`` — run an arbitrary workload×config grid under a durable
  run journal (crash-safe; see ``docs/engine.md``).  ``--resume RUN_ID``
  replays the journal of an interrupted run and re-dispatches only the
  missing cells; ``--list`` enumerates known runs.  SIGINT/SIGTERM drain
  in-flight work, flush the journal, and exit with code 75
  (``EX_TEMPFAIL``) so wrappers can auto-resume;
* ``repro cache verify|gc|stats`` — audit the result cache's integrity
  footers (corrupt entries are quarantined, never trusted), reclaim
  quarantine/temp debris and enforce ``--cache-quota``, or print size
  accounting;
* ``repro validate`` — run the model-vs-simulation conformance harness
  (oracle differential suite, metamorphic invariants, codec/rewriter
  fuzzing, mutation self-test); ``--quick`` (default) or ``--full``,
  ``--json-out FILE`` for the machine-readable report.  Exit 0 iff every
  engine passed.  See ``docs/testing.md``;
* ``repro serve`` — run the multi-tenant prefetch-advisor daemon:
  advisor requests arrive as newline-delimited JSON over a TCP or unix
  socket (``repro-advisor-v1``) and are answered with plans/statistics
  byte-identical to the one-shot path.  See ``docs/serving.md``.

The engine/cache/obs flag family is defined once in
:mod:`repro.cli_options` (:class:`~repro.cli_options.EngineCLIOptions`)
and shared by every engine-bearing subcommand, including ``serve``.

``simulate`` and ``experiment`` accept ``--jobs N`` (parallel worker
processes), ``--cache-dir PATH`` and ``--no-cache``: cells of the
evaluation grid are fanned out over a process pool and persisted to a
content-addressed on-disk cache (default ``./.repro-cache`` or
``$REPRO_CACHE_DIR``), so regenerating a figure a second time performs
zero re-simulations.  A per-run cell/cache summary is printed to stderr.

Simulation backend: ``--sim-backend fast`` switches ``simulate`` and
``experiment`` to the array-native cache simulators (bit-identical to
the default ``reference`` backend, several times faster; see
``docs/performance.md``).

Fault tolerance: ``--retries N`` retries failing cells, ``--cell-timeout
SECONDS`` bounds each dispatched cell group, and ``--best-effort`` keeps
a run alive past permanent cell failures — surviving cells are rendered,
a per-cell failure table goes to stderr, and the exit code is non-zero
(3).  The default ``--strict`` aborts with the same table and exit 2.

Observability: every subcommand accepts ``--trace-out FILE`` (Chrome
``trace_event`` JSON — load it in ``chrome://tracing`` or
https://ui.perfetto.dev) and ``--metrics-out FILE`` (flat JSON counter /
gauge / histogram dump); either flag enables :mod:`repro.obs` for the
whole run, including engine worker processes.  ``--deterministic-trace``
switches the tracer to a virtual clock so trace files are byte-stable.
See ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import CONFIGS
from repro.cli_options import EngineCLIOptions, cli_parent, parse_size
from repro.config import MACHINES, get_machine
from repro.errors import ReproError, RunInterrupted

__all__ = ["main", "build_parser", "EXIT_INTERRUPTED"]

#: Exit code of a journaled run stopped by SIGINT/SIGTERM after a
#: graceful drain (EX_TEMPFAIL).  The run is resumable: wrappers that
#: see this code can re-invoke ``repro run --resume <run-id>``.
EXIT_INTERRUPTED = 75

#: Backwards-compatible alias; the definition moved to repro.cli_options.
_parse_size = parse_size


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resource-efficient software prefetching (ICPP'14 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The engine/cache/obs flag families are declared once in
    # repro.cli_options and materialised here as argparse parents.
    obs_parent = cli_parent(("obs",))
    engine_parent = cli_parent(("engine", "obs"))

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--machine",
            default="amd-phenom-ii",
            choices=sorted(MACHINES),
            help="target machine model",
        )
        p.add_argument("--scale", type=float, default=0.3, help="trip-count multiplier")
        p.add_argument("--input", dest="input_set", default="ref", help="input set")

    p_wl = sub.add_parser(
        "workloads", help="list available benchmark models", parents=[obs_parent]
    )

    p_opt = sub.add_parser(
        "optimize",
        help="analyse a workload and print its prefetch plan",
        parents=[obs_parent],
    )
    p_opt.add_argument("workload")
    add_common(p_opt)
    p_opt.add_argument("--emit-asm", action="store_true", help="print rewritten assembly")
    p_opt.add_argument("--no-bypass", action="store_true", help="disable PREFETCHNTA")

    p_sim = sub.add_parser(
        "simulate",
        help="simulate prefetching configurations",
        parents=[engine_parent],
    )
    p_sim.add_argument("workload")
    add_common(p_sim)
    p_sim.add_argument(
        "--configs",
        default="baseline,hw,swnt",
        help=f"comma-separated configs ({','.join(CONFIGS)})",
    )

    p_chr = sub.add_parser(
        "characterize",
        help="summarise a workload's memory behaviour",
        parents=[obs_parent],
    )
    p_chr.add_argument("workload")
    add_common(p_chr)

    p_mrc = sub.add_parser(
        "mrc", help="print StatStack miss-ratio curves", parents=[obs_parent]
    )
    p_mrc.add_argument("workload")
    add_common(p_mrc)
    p_mrc.add_argument("--loads", type=int, default=3, help="hottest loads to include")

    p_exp = sub.add_parser(
        "experiment",
        help="regenerate a paper table/figure",
        parents=[engine_parent],
    )
    p_exp.add_argument(
        "name",
        choices=[
            "table1", "statstack", "fig3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "combined",
        ],
    )
    add_common(p_exp)
    p_exp.add_argument(
        "--mixes", type=int, default=40, help="mix count for fig7/fig9/fig10/fig11"
    )
    p_exp.add_argument(
        "--coordinator-policy",
        default=None,
        metavar="FILE",
        help="RL coordinator policy artifact for the hwrl rows "
        "(default: the bundled repro-coordinator-policy-v1)",
    )

    p_train = sub.add_parser(
        "train-coordinator",
        help="train and freeze a multicore prefetch-coordinator RL policy",
        parents=[obs_parent],
    )
    p_train.add_argument("--seed", type=int, default=0, help="training RNG seed")
    p_train.add_argument(
        "--episodes", type=int, default=800, help="synthetic training mixes"
    )
    p_train.add_argument("--alpha", type=float, default=0.2, help="Q learning rate")
    p_train.add_argument("--gamma", type=float, default=0.5, help="discount factor")
    p_train.add_argument(
        "--machine",
        default="amd-phenom-ii",
        choices=sorted(MACHINES),
        help="machine model the training mixes run on",
    )
    p_train.add_argument(
        "--cores", type=int, default=4, help="apps per training mix"
    )
    p_train.add_argument(
        "--out",
        required=True,
        metavar="FILE",
        help="where to write the repro-coordinator-policy-v1 artifact",
    )

    p_run = sub.add_parser(
        "run",
        help="run a workload×config grid under a durable, resumable run journal",
        parents=[engine_parent],
    )
    p_run.add_argument(
        "--workloads",
        default="libquantum,mcf",
        help="comma-separated workloads (default libquantum,mcf)",
    )
    p_run.add_argument(
        "--configs",
        default="baseline,hw,swnt",
        help=f"comma-separated configs ({','.join(CONFIGS)})",
    )
    add_common(p_run)
    p_run.add_argument(
        "--run-id",
        default=None,
        metavar="ID",
        help="explicit run identifier (default: fresh timestamped id)",
    )
    p_run.add_argument(
        "--resume",
        default=None,
        metavar="RUN_ID",
        help="resume an interrupted run from its journal instead of starting fresh",
    )
    p_run.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help="run-journal root (default $REPRO_RUNS_DIR or ./.repro-runs)",
    )
    p_run.add_argument(
        "--list",
        dest="list_runs",
        action="store_true",
        help="list known journaled runs and exit",
    )
    p_run.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="write {run_id, results} with full serialised stats as JSON",
    )

    p_cache = sub.add_parser(
        "cache",
        help="inspect and maintain the on-disk result cache",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cv = cache_sub.add_parser(
        "verify",
        help="check every entry's integrity footer; quarantine corrupt ones",
        parents=[obs_parent],
    )
    p_cv.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="write the machine-readable verification report as JSON",
    )
    p_cg = cache_sub.add_parser(
        "gc",
        help="reclaim quarantine/temp debris and enforce the size quota",
        parents=[obs_parent],
    )
    p_cg.add_argument(
        "--older-than",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="age threshold for stale temp files (default 600)",
    )
    p_cg.add_argument(
        "--cache-quota",
        type=parse_size,
        default=None,
        metavar="SIZE",
        help="evict least-recently-used entries past this budget (e.g. 512M)",
    )
    p_cg.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help="also reap orphaned journal temp files under this run root",
    )
    p_cs = cache_sub.add_parser(
        "stats", help="print cache size accounting", parents=[obs_parent]
    )
    p_cs.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="write the size accounting as JSON",
    )
    for p_c in (p_cv, p_cg, p_cs):
        p_c.add_argument(
            "--cache-dir",
            default=None,
            help="result cache directory (default $REPRO_CACHE_DIR or ./.repro-cache)",
        )

    p_val = sub.add_parser(
        "validate",
        help="run the model-vs-simulation conformance harness",
        parents=[obs_parent],
    )
    mode = p_val.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick",
        dest="quick",
        action="store_true",
        default=True,
        help="small corpus traces, CI-sized run (default)",
    )
    mode.add_argument(
        "--full",
        dest="quick",
        action="store_false",
        help="4x longer corpus traces plus a sparse-sampling model pass",
    )
    p_val.add_argument(
        "--corpus-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the synthesized trace corpus (default 0)",
    )
    p_val.add_argument(
        "--fuzz-cases",
        type=int,
        default=25,
        metavar="N",
        help="fuzz cases per target (default 25)",
    )
    p_val.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="write the full machine-readable report as JSON",
    )
    p_val.add_argument(
        "--persist-repros",
        default=None,
        metavar="DIR",
        help="persist shrunk failing fuzz cases as replayable fixtures in DIR",
    )
    p_val.add_argument(
        "--skip-self-test",
        action="store_true",
        help="skip the mutation self-test (it re-runs small engine passes)",
    )

    p_srv = sub.add_parser(
        "serve",
        help="run the multi-tenant prefetch-advisor daemon (repro-advisor-v1)",
        parents=[engine_parent],
    )
    addr = p_srv.add_mutually_exclusive_group(required=True)
    addr.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port to listen on (0 picks a free port)",
    )
    addr.add_argument(
        "--unix-socket",
        default=None,
        metavar="PATH",
        help="unix-domain socket path to listen on",
    )
    p_srv.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address (default 127.0.0.1)",
    )
    p_srv.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        metavar="N",
        help="bounded intake queue size; requests past it are rejected "
        "with retry_after (default 64)",
    )
    p_srv.add_argument(
        "--batch-max",
        type=int,
        default=16,
        metavar="N",
        help="max requests resolved per dispatcher batch (default 16)",
    )
    p_srv.add_argument(
        "--batch-linger",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="how long the dispatcher lingers to coalesce a burst "
        "into one batch (default 0.005)",
    )
    p_srv.add_argument(
        "--drain-seconds",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="grace period for in-flight requests on SIGTERM (default 5)",
    )
    p_srv.add_argument(
        "--tenant-quota",
        type=parse_size,
        default=None,
        metavar="SIZE",
        help="per-tenant cache namespace budget (default: --cache-quota)",
    )
    return parser


def _configure_engine(args: argparse.Namespace):
    """Install the process-wide engine from the --jobs/--cache/--retries
    option family (one definition for every subcommand; see
    :mod:`repro.cli_options`)."""
    return EngineCLIOptions.from_args(args).install(progress=True)


def _engine_epilogue(engine) -> int:
    """Print the engine summary and, in best-effort mode, the per-cell
    failure table; non-zero when any cell was lost."""
    print(engine.summary(), file=sys.stderr)
    if engine.last_failures:
        print(engine.last_failures.format_table(), file=sys.stderr)
        return 3
    return 0


def _cmd_workloads() -> int:
    from repro.workloads import get_workload, list_workloads
    from repro.workloads.parallel import PARALLEL_BENCHMARKS

    print("single-core benchmark models:")
    for name in list_workloads():
        spec = get_workload(name)
        inputs = ",".join(spec.inputs)
        print(f"  {name:12s} [{inputs}]  {spec.description}")
    print("parallel benchmark models:")
    for spec in PARALLEL_BENCHMARKS:
        star = "*" if spec.high_bandwidth else " "
        print(f"  {spec.name:12s}{star} {spec.description}")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    # The profile and plan `repro simulate` runs: the runner's sampling
    # pass and its one reader of plan kinds.
    from repro.experiments import runner
    from repro.isa import emit, insert_prefetches

    profile = runner.profile_for(args.workload, args.input_set, args.scale)
    print(profile.sampling.describe())
    plan = runner.derive_plan(
        "sw" if args.no_bypass else "swnt",
        profile.sampling,
        get_machine(args.machine),
        profile.program,
    )
    print(plan.summary())
    if args.emit_asm:
        print()
        print(emit(insert_prefetches(profile.program, plan)))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.api import ExperimentSpec
    from repro.experiments.tables import render_table

    engine = _configure_engine(args)
    machine = get_machine(args.machine)
    configs = tuple(c.strip() for c in args.configs.split(",") if c.strip())
    if "baseline" not in configs:
        configs = ("baseline", *configs)
    results = engine.run_grid(
        (args.workload,),
        (args.machine,),
        configs,
        input_sets=(args.input_set,),
        scales=(args.scale,),
    )
    runs = {
        c: results.get(
            ExperimentSpec(args.workload, args.machine, c, args.input_set, args.scale)
        )
        for c in configs
    }
    base = runs["baseline"]
    if base is None:
        # Best-effort run lost the reference cell: nothing to normalise
        # against, so only the failure table is meaningful.
        print("error: baseline cell failed; no table to render", file=sys.stderr)
        return _engine_epilogue(engine) or 3
    rows = []
    for config, stats in runs.items():
        if stats is None:
            rows.append((config, "failed", "-", "-", "-"))
            continue
        rows.append(
            (
                config,
                f"{base.cycles / stats.cycles:.3f}x",
                f"{stats.l1.miss_ratio * 100:.1f}%",
                f"{stats.dram_bytes / max(1, base.dram_bytes):.2f}x",
                f"{stats.bandwidth_gbs(machine.freq_ghz):.2f}",
            )
        )
    print(
        render_table(
            ("config", "speedup", "L1 MR", "traffic", "GB/s"),
            rows,
            title=f"{args.workload} on {args.machine} (scale {args.scale})",
        )
    )
    return _engine_epilogue(engine)


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.isa import execute_program
    from repro.trace import characterize_trace
    from repro.workloads import build_program, workload_seed

    program = build_program(args.workload, args.input_set, args.scale)
    execution = execute_program(
        program, seed=workload_seed(args.workload, args.input_set)
    )
    character = characterize_trace(execution.trace)
    print(f"== {args.workload} ({args.input_set}, scale {args.scale}) ==")
    print(character.describe())
    return 0


def _cmd_mrc(args: argparse.Namespace) -> int:
    from repro.experiments import runner
    from repro.experiments.tables import render_table
    from repro.statstack import StatStackModel, default_size_grid

    machine = get_machine(args.machine)
    sampling = runner.profile_for(args.workload, args.input_set, args.scale).sampling
    model = StatStackModel(sampling.reuse, machine.line_bytes)
    hot = sorted(model.modelled_pcs(), key=model.pc_sample_weight, reverse=True)
    hot = hot[: args.loads]
    rows = []
    for size in default_size_grid().tolist():
        label = f"{size // 1024}k" if size < 1 << 20 else f"{size >> 20}M"
        rows.append(
            (
                label,
                f"{model.miss_ratio(size) * 100:5.1f}%",
                *(f"{model.pc_miss_ratio(pc, size) * 100:5.1f}%" for pc in hot),
            )
        )
    print(
        render_table(
            ("size", "app", *(f"pc{pc}" for pc in hot)),
            rows,
            title=f"StatStack miss-ratio curves — {args.workload}",
        )
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    engine = _configure_engine(args)
    try:
        _render_experiment(args)
    except KeyError as exc:
        if engine.last_failures:
            # A best-effort run lost cells this driver needs.
            print(
                f"error: incomplete grid after cell failures ({exc})",
                file=sys.stderr,
            )
            return _engine_epilogue(engine) or 3
        raise
    return _engine_epilogue(engine)


def _render_experiment(args: argparse.Namespace) -> None:
    name = args.name
    scale = args.scale
    if name == "table1":
        from repro.experiments.table1_coverage import render_table1, run_table1

        print(render_table1(run_table1(scale)))
    elif name == "statstack":
        from repro.experiments.statstack_validation import (
            render_validation,
            run_validation,
        )

        print(render_validation(run_validation(scale)))
    elif name == "fig3":
        from repro.experiments.fig3_mrc import render_fig3, run_fig3

        print(render_fig3(run_fig3(scale=scale)))
    elif name in ("fig4", "fig5", "fig6"):
        module = {
            "fig4": "fig4_speedup",
            "fig5": "fig5_traffic",
            "fig6": "fig6_bandwidth",
        }[name]
        import importlib

        mod = importlib.import_module(f"repro.experiments.{module}")
        run = getattr(mod, f"run_{name}")
        render = getattr(mod, f"render_{name}")
        print(render(run(args.machine, scale=scale)))
    elif name == "fig7":
        from repro.experiments.fig7_mixes import render_fig7, run_fig7

        print(render_fig7(run_fig7(args.machine, n_mixes=args.mixes, scale=scale)))
    elif name == "fig8":
        from repro.experiments.fig8_mix_detail import render_fig8, run_fig8

        print(render_fig8(run_fig8(scale=min(scale, 0.5))))
    elif name == "fig9":
        from repro.experiments.fig9_varying_inputs import render_fig9, run_fig9

        print(render_fig9(run_fig9(args.machine, n_mixes=args.mixes, scale=scale)))
    elif name in ("fig10", "fig11"):
        from repro.experiments.fig7_mixes import run_fig7
        from repro.multicore.coordinator import set_default_policy_path

        if getattr(args, "coordinator_policy", None):
            set_default_policy_path(args.coordinator_policy)
        result = run_fig7(
            args.machine,
            n_mixes=args.mixes,
            scale=scale,
            configs=("swnt", "hw", "hwcoord", "hwrl"),
        )
        if name == "fig10":
            from repro.experiments.fig10_fair_speedup import (
                fair_speedup_from,
                render_fig10,
            )

            print(render_fig10([fair_speedup_from(result, "orig")]))
        else:
            from repro.experiments.fig11_qos import qos_from, render_fig11

            print(render_fig11([qos_from(result, "orig")]))
    elif name == "fig12":
        from repro.experiments.fig12_parallel import render_fig12, run_fig12

        print(render_fig12(run_fig12(scale=min(scale, 0.5))))
    elif name == "combined":
        from repro.experiments.combined_prefetching import (
            render_combined,
            run_combined,
        )

        print(render_combined(run_combined(args.machine, scale=scale)))


def _cmd_train_coordinator(args: argparse.Namespace) -> int:
    from repro.multicore.coordinator import save_policy, train_coordinator

    def progress(done: int, total: int, states: int) -> None:
        print(f"episode {done}/{total}: {states} states", file=sys.stderr)

    policy = train_coordinator(
        seed=args.seed,
        episodes=args.episodes,
        alpha=args.alpha,
        gamma=args.gamma,
        machine_name=args.machine,
        cores=args.cores,
        progress=progress,
    )
    save_policy(policy, args.out)
    print(f"froze {len(policy.q)}-state policy (seed {args.seed}) to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    from repro import api
    from repro.core import serialization
    from repro.experiments.journal import list_runs
    from repro.experiments.tables import render_table

    if args.list_runs:
        runs = list_runs(args.runs_dir)
        if not runs:
            print("no journaled runs", file=sys.stderr)
        for run_id in runs:
            print(run_id)
        return 0
    engine = _configure_engine(args)
    if args.resume is not None:
        run_id, results = api.resume_run(
            args.resume, runs_dir=args.runs_dir, engine=engine
        )
    else:
        workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
        configs = [c.strip() for c in args.configs.split(",") if c.strip()]
        specs = [
            api.ExperimentSpec(w, args.machine, c, args.input_set, args.scale)
            for w in workloads
            for c in configs
        ]
        run_id, results = api.run_journaled(
            specs, run_id=args.run_id, runs_dir=args.runs_dir, engine=engine
        )
    ordered = sorted(results.items(), key=lambda kv: kv[0].label())
    rows = [
        (
            spec.label(),
            f"{stats.cycles}",
            f"{stats.l1.miss_ratio * 100:.2f}%",
            f"{stats.dram_bytes}",
        )
        for spec, stats in ordered
    ]
    print(
        render_table(
            ("cell", "cycles", "L1 MR", "DRAM bytes"),
            rows,
            title=f"run {run_id} ({len(results)} cells)",
        )
    )
    if args.json_out is not None:
        payload = {
            "run_id": run_id,
            "results": {
                spec.label(): serialization.stats_to_dict(stats)
                for spec, stats in ordered
            },
        }
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[run] results written to {args.json_out}", file=sys.stderr)
    return _engine_epilogue(engine)


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from repro.cache import ResultCache, default_cache_dir

    root = args.cache_dir if args.cache_dir is not None else default_cache_dir()
    cache = ResultCache(root, quota_bytes=getattr(args, "cache_quota", None))
    if args.cache_command == "verify":
        report = cache.verify()
        print(report.render())
        if args.json_out is not None:
            with open(args.json_out, "w") as handle:
                json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"[cache] report written to {args.json_out}", file=sys.stderr)
        return 0 if report.corrupt == 0 else 1
    if args.cache_command == "gc":
        summary = cache.gc(older_than=args.older_than, runs_dir=args.runs_dir)
        swept = ", ".join(f"{k}={v}" for k, v in sorted(cache.swept.items()))
        print(
            f"cache gc: {summary['quarantine_removed']} quarantined entries "
            f"removed, {summary['evicted']} evicted for quota, swept {swept}"
        )
        return 0
    if args.cache_command == "stats":
        stats = cache.entry_stats()
        for kind, info in sorted(stats["kinds"].items()):
            print(f"  {kind:10s} {info['entries']:6d} entries  {info['bytes']:12d} bytes")
        quota = stats["quota_bytes"]
        print(
            f"  total      {stats['total_bytes']} bytes, "
            f"{stats['quarantined']} quarantined"
            + (f", quota {quota} bytes" if quota is not None else "")
        )
        if args.json_out is not None:
            with open(args.json_out, "w") as handle:
                json.dump(stats, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"[cache] stats written to {args.json_out}", file=sys.stderr)
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command}")


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validate import DiffSettings, ValidationConfig, run_validation

    config = ValidationConfig(
        corpus_seed=args.corpus_seed,
        quick=args.quick,
        fuzz_cases=args.fuzz_cases,
        run_self_test=not args.skip_self_test,
        persist_repros=args.persist_repros,
    )
    # Full mode additionally builds the model from a sparse sample, the
    # way production profiling would, with the class's sampled_slack of
    # extra error headroom.
    diff_settings = (
        DiffSettings() if args.quick else DiffSettings(sampler_rates=(1.0, 0.1))
    )
    report = run_validation(config, diff_settings=diff_settings)
    print(report.render())
    if args.json_out is not None:
        report.save(args.json_out)
        print(f"[validate] report written to {args.json_out}", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.cachesim.options import set_default_options
    from repro.serve import ServeOptions, serve_forever

    opts = EngineCLIOptions.from_args(args)
    # No process-wide engine here — the daemon owns its engine pool —
    # but the sim backend default must land before workers fork.
    sim = opts.sim_options()
    if sim is not None:
        set_default_options(sim)
    tenant_quota = (
        args.tenant_quota if args.tenant_quota is not None else opts.cache_quota
    )
    options = ServeOptions(
        host=args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        queue_capacity=args.queue_capacity,
        batch_max=args.batch_max,
        batch_linger=args.batch_linger,
        jobs=opts.jobs,
        cache_dir=opts.cache_dir,
        use_cache=opts.use_cache,
        cache_quota=tenant_quota,
        retry=opts.retry_policy(),
        drain_seconds=args.drain_seconds,
    )
    return serve_forever(options)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "workloads":
        return _cmd_workloads()
    if args.command == "optimize":
        return _cmd_optimize(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "characterize":
        return _cmd_characterize(args)
    if args.command == "mrc":
        return _cmd_mrc(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "train-coordinator":
        return _cmd_train_coordinator(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    tracing = trace_out is not None or metrics_out is not None
    if tracing:
        from repro import obs

        obs.enable(deterministic=getattr(args, "deterministic_trace", False))
        obs.get_tracer().clear()
        obs.metrics().reset()
    try:
        return _dispatch(args)
    except RunInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        if exc.run_id:
            print(
                f"resume with: repro run --resume {exc.run_id}",
                file=sys.stderr,
            )
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        report = getattr(exc, "report", None)
        if report:
            print(report.format_table(), file=sys.stderr)
        return 2
    finally:
        # Exports are written even when the run errored — a partial
        # trace of a failed run is exactly what one wants to look at.
        if tracing:
            from repro import obs

            if trace_out is not None:
                obs.write_chrome_trace(trace_out)
                print(f"[obs] trace written to {trace_out}", file=sys.stderr)
            if metrics_out is not None:
                obs.write_metrics(metrics_out)
                print(f"[obs] metrics written to {metrics_out}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
