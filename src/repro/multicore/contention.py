"""Analytic shared-resource contention model for large mix sweeps.

Directly simulating 180 four-core mixes × several prefetch
configurations × two machines is hours of work even for a fast
trace-driven simulator; the paper itself measures wall-clock on real
hardware.  This module provides the fast path: a fixed-point model that
combines each application's *solo* profile into a contended execution
time.  Two mechanisms are modelled, matching the paper's analysis of
why inaccurate prefetching hurts neighbours:

**Shared-LLC partitioning.**  Under LRU, co-running applications occupy
LLC space in proportion to their *insertion rates* (fills per cycle that
actually enter the LLC — ``PREFETCHNTA`` fills bypass it and claim no
space).  Each app's DRAM traffic is then re-evaluated at its partition
size using its StatStack miss-ratio curve: less space ⇒ more misses ⇒
more traffic, and vice versa.  This is how hardware prefetching's LLC
pollution taxes neighbours, and how bypassing gives space back.

**Memory-controller queueing.**  Transfers from all cores share one
controller of rate ``μ`` lines/cycle.  With total offered rate ``λ``,
each transfer's effective service time grows by the M/M/1 factor
``1/(1-ρ)``; the extra wait and the extra misses' latency are added to
each app's solo execution time.  The fixed point of (occupancy ⇄ rates)
is reached within a few iterations.

The model is validated against the direct interleaved simulator in the
test suite and the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.multicore.coordinator import (
    Coordinator,
    CoreFeedback,
    note_decisions,
    throttle_factor,
)
from repro.statstack.mrc import MissRatioCurve

__all__ = ["AppProfile", "ContendedApp", "solve_mix"]

#: Ceiling of the controller utilisation the queueing model uses: the
#: M/M/1-style wait grows without bound as ``rho`` reaches 1.
_MAX_RHO = 0.98


@dataclass(frozen=True)
class AppProfile:
    """Solo-execution profile of one application under one prefetch config.

    Attributes
    ----------
    name:
        Workload name (reporting only).
    cycles_alone:
        Solo execution time in cycles (private LLC, private controller).
    dram_lines:
        Lines transferred off-chip solo (fills + writebacks).
    llc_insert_lines:
        The subset of fills that occupy LLC space (excludes NTA fills).
    mlp:
        Memory-level parallelism used for the app's extra-miss latency.
    exposure:
        Fraction of the app's off-chip lines whose latency the core
        actually waits for (demand LLC misses / all transfers).  A
        prefetched app's extra misses mostly cost *bandwidth*, not
        stall time — its prefetcher covers them — so contention-induced
        misses are charged latency only in this proportion.
    mrc:
        Application-level miss ratio curve (StatStack), used to scale
        misses with the LLC partition.
    mr_full_llc:
        Miss ratio at the full LLC size (the solo operating point).
    throttleable_lines:
        Speculative transfers a *hardware* prefetcher retires when it
        backs off under contention (solo HW traffic minus baseline
        traffic).  Zero for software configurations — inserted
        prefetches always execute, which is why the paper's scheme is
        stable where hardware prefetching is erratic.
    throttle_cycle_cost:
        Cycles the app loses if the prefetcher throttles fully (part of
        its solo prefetch benefit).
    """

    name: str
    cycles_alone: float
    dram_lines: int
    llc_insert_lines: int
    mlp: float
    mrc: MissRatioCurve
    mr_full_llc: float
    exposure: float = 1.0
    throttleable_lines: float = 0.0
    throttle_cycle_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.cycles_alone <= 0:
            raise SimulationError("cycles_alone must be positive")
        if self.dram_lines < 0 or self.llc_insert_lines < 0:
            raise SimulationError("line counts must be non-negative")
        if self.mlp < 1.0:
            raise SimulationError("mlp must be >= 1")
        if not 0.0 <= self.exposure <= 1.0:
            raise SimulationError("exposure must be in [0, 1]")
        if self.throttleable_lines < 0 or self.throttle_cycle_cost < 0:
            raise SimulationError("throttle parameters must be non-negative")


@dataclass(frozen=True)
class ContendedApp:
    """Per-application outcome of the contention model."""

    name: str
    cycles: float
    dram_lines: float
    llc_share_bytes: float

    @property
    def slowdown(self) -> float:
        """Filled in by :func:`solve_mix` relative to the solo profile."""
        return self._slowdown

    _slowdown: float = 1.0


def solve_mix(
    machine: MachineConfig,
    apps: list[AppProfile],
    iterations: int = 30,
    coordinator: Coordinator | None = None,
) -> list[ContendedApp]:
    """Fixed-point solve of LLC sharing + bandwidth queueing for one mix.

    With a ``coordinator``, each iteration plays one control epoch: the
    coordinator observes per-app bandwidth shares, speculative shares
    and MRC gradients and its tunings *replace* the static back-off
    curve — ``degree_scale`` sets the kept fraction of the speculative
    stream, ``nta_bypass`` removes the surviving speculative fills from
    the app's LLC insertion rate (they no longer claim shared space).

    Returns one :class:`ContendedApp` per input, in order.
    """
    if not apps:
        raise SimulationError("empty mix")
    if len(apps) > machine.cores:
        raise SimulationError("more apps than cores")

    line = machine.line_bytes
    mu = machine.bytes_per_cycle() / line  # controller rate, lines/cycle
    llc_bytes = float(machine.llc.size_bytes)
    n = len(apps)

    cycles = [a.cycles_alone for a in apps]
    transfers = [float(a.dram_lines) for a in apps]
    shares = [llc_bytes / n] * n
    insert_lines = [float(a.llc_insert_lines) for a in apps]

    for _ in range(iterations):
        # --- LLC partitioning by insertion rate -----------------------
        # Rates are evaluated at each app's *current* partition: less
        # space ⇒ more misses ⇒ a higher insertion rate ⇒ more space
        # next round, which is the fixed point being iterated.
        rates = []
        for app, ins, t_cyc, share in zip(apps, insert_lines, cycles, shares):
            scale = _miss_scale(app, share)
            rates.append(ins * max(scale, 1e-12) / t_cyc)
        total_rate = sum(rates)
        if total_rate > 0:
            shares = [llc_bytes * r / total_rate for r in rates]
        else:
            shares = [llc_bytes / n] * n

        # --- per-app traffic at its partition --------------------------
        new_transfers = []
        for app, share in zip(apps, shares):
            new_transfers.append(app.dram_lines * _miss_scale(app, share))

        # --- hardware prefetcher throttling ----------------------------
        # Commodity prefetchers back off when the controller is busy
        # (paper §I); retire a utilisation-dependent share of the
        # speculative transfers, paying back part of the solo benefit.
        # A coordinator overrides the static curve per core.
        lam = sum(t / c for t, c in zip(new_transfers, cycles))
        rho = min(lam / mu, _MAX_RHO)
        if coordinator is None:
            throttle = throttle_factor(rho)
            kept = [throttle] * n
            bypass = [False] * n
        else:
            feedback = _epoch_feedback(apps, new_transfers, cycles, shares, llc_bytes)
            tunings = coordinator.decide(feedback, rho)
            if len(tunings) != n:
                raise SimulationError(
                    f"coordinator returned {len(tunings)} tunings for {n} apps"
                )
            note_decisions(tunings)
            kept = [t.degree_scale for t in tunings]
            bypass = [t.nta_bypass for t in tunings]
        throttle_costs = []
        for i, app in enumerate(apps):
            retired = (1.0 - kept[i]) * app.throttleable_lines
            new_transfers[i] = max(0.0, new_transfers[i] - retired)
            throttle_costs.append((1.0 - kept[i]) * app.throttle_cycle_cost)
        if coordinator is not None:
            # Retired speculative fills never reach the LLC; surviving
            # ones skip it when retargeted to NTA.  Both shrink the
            # app's insertion rate next iteration.
            for i, app in enumerate(apps):
                removed = (1.0 - kept[i]) * app.throttleable_lines
                if bypass[i]:
                    removed += kept[i] * app.throttleable_lines
                insert_lines[i] = max(0.0, app.llc_insert_lines - removed)

        # --- bandwidth queueing ----------------------------------------
        # M/M/1 wait, capped by the *closed-system* population: the
        # queue can never hold more requests than the cores have
        # outstanding misses (sum of per-app MLP), which is what keeps
        # saturation finite in the direct simulator too.
        lam = sum(t / c for t, c in zip(new_transfers, cycles))
        rho = min(lam / mu, _MAX_RHO)
        population = sum(a.mlp for a in apps)
        mix_wait = min(rho / (1.0 - rho), population)

        new_cycles = []
        for app, t_new, t_cyc, thr_cost in zip(
            apps, new_transfers, cycles, throttle_costs
        ):
            # Each app's solo run already paid its *own* queueing; only
            # the additional wait caused by sharing the controller is
            # charged here.  The solo term is capped below the mix cap
            # so that (unphysical) profiles claiming more solo bandwidth
            # than the controller has still pay for sharing it.
            rho_own = min(t_new / t_cyc / mu, 0.9)
            own_wait = min(rho_own / (1.0 - rho_own), app.mlp)
            extra_wait = max(0.0, mix_wait - own_wait) / mu
            extra_lines = max(0.0, t_new - app.dram_lines)
            extra_miss_cost = extra_lines * (
                app.exposure * machine.dram_latency / app.mlp + 1.0 / mu
            )
            queue_cost = t_new * extra_wait
            new_cycles.append(
                app.cycles_alone + extra_miss_cost + queue_cost + thr_cost
            )

        # Damped update for stable convergence.
        cycles = [0.5 * c + 0.5 * nc for c, nc in zip(cycles, new_cycles)]
        transfers = new_transfers

    return [
        ContendedApp(
            name=app.name,
            cycles=c,
            dram_lines=t,
            llc_share_bytes=s,
            _slowdown=c / app.cycles_alone,
        )
        for app, c, t, s in zip(apps, cycles, transfers, shares)
    ]


def _epoch_feedback(
    apps: list[AppProfile],
    transfers: list[float],
    cycles: list[float],
    shares: list[float],
    llc_bytes: float,
) -> list[CoreFeedback]:
    """Per-app telemetry handed to a coordinator each iteration."""
    rates = [t / c for t, c in zip(transfers, cycles)]
    total_rate = sum(rates)
    feedback = []
    for app, rate, share in zip(apps, rates, shares):
        bw_share = rate / total_rate if total_rate > 0 else 1.0 / len(apps)
        spec = app.throttleable_lines / app.dram_lines if app.dram_lines else 0.0
        feedback.append(
            CoreFeedback(
                name=app.name,
                bw_share=bw_share,
                spec_share=min(1.0, spec),
                mrc_gradient=app.mrc.doubling_gain(share),
                llc_share=share / llc_bytes if llc_bytes else 0.0,
            )
        )
    return feedback


def _miss_scale(app: AppProfile, share_bytes: float) -> float:
    """Traffic multiplier when the app's LLC shrinks to ``share_bytes``.

    Misses that bypass the LLC anyway (NTA fills) are unaffected; only
    the LLC-inserted fraction scales with the miss-ratio curve.
    """
    if app.dram_lines == 0:
        return 1.0
    if app.mr_full_llc <= 0.0:
        # The app had no LLC misses solo; shrinking its share can only
        # add misses, read straight off the curve (normalised to the
        # smallest observed positive ratio to stay finite).
        mr_at_share = app.mrc.at(max(int(share_bytes), 1024))
        return 1.0 + mr_at_share * 4.0
    mr_at_share = app.mrc.at(max(int(share_bytes), 1024))
    ratio = mr_at_share / app.mr_full_llc
    # NTA fills never depended on LLC space.
    nta_frac = 1.0 - (app.llc_insert_lines / app.dram_lines)
    return nta_frac + (1.0 - nta_frac) * max(ratio, 1.0)
