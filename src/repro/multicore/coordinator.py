"""Coordinated per-core prefetch control under shared-resource contention.

Every hardware prefetcher model in this repo throttles itself from
*local* information only (its core's view of controller utilisation).
The paper's resource argument — prefetching decisions must answer for
the *shared* LLC space and bandwidth they consume — calls for a
coordination layer: once per control epoch, observe every core's
bandwidth share, speculative-traffic share and LLC marginal utility,
and retune each core's prefetcher (degree, NTA bypass)
through the :meth:`repro.hwpref.base.HardwarePrefetcher.apply_tuning`
hook.  Modeled on the coordinated RL prefetching architecture surveyed
in PAPERS.md.

Two policies ship behind one interface:

:class:`HeuristicCoordinator`
    Deterministic and dependency-free: start from the shared back-off
    curve, push bandwidth hogs harder, and retarget cores with flat
    miss-ratio curves (no marginal use for LLC space) to NTA-bypassing
    fills so their neighbours keep the cache.

:class:`RLCoordinator`
    A small tabular Q-learner over a discretised state (utilisation
    band × bandwidth share × relative MRC gradient × speculative
    share), trained offline on synthetic mixes by
    :func:`train_coordinator` (seeded, deterministic) and evaluated
    from a frozen, versioned policy artifact
    (``repro-coordinator-policy-v1``) so runs are bit-reproducible.

Both plug into the analytic mix model
(:func:`repro.multicore.contention.solve_mix`) and the direct
interleaved simulator
(:class:`repro.multicore.simulator.MulticoreSimulator`).
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from repro import obs
from repro.errors import SimulationError
from repro.hwpref.base import DEFAULT_TUNING, PrefetchTuning, throttle_factor

__all__ = [
    "ACTION_SCALES",
    "N_ACTIONS",
    "CoreFeedback",
    "Coordinator",
    "HeuristicCoordinator",
    "RLCoordinator",
    "CoordinatorPolicy",
    "action_tuning",
    "discretise_state",
    "train_coordinator",
    "load_policy",
    "save_policy",
    "default_policy_path",
    "throttle_factor",
]

#: Degree scales a coordinator action may select — the shared back-off
#: curve's range quantised to four steps.
ACTION_SCALES = (1.0, 0.75, 0.5, 0.25)

#: One action per (degree scale, NTA-bypass) combination.
N_ACTIONS = len(ACTION_SCALES) * 2


@dataclass(frozen=True)
class CoreFeedback:
    """One core's shared-resource telemetry for a control epoch.

    Attributes
    ----------
    name:
        Core/application name (reporting only).
    bw_share:
        The core's fraction of the mix's offered off-chip traffic
        (``1/n`` means an even split).
    spec_share:
        Speculative (prefetcher-attributable) fraction of the core's
        own traffic — how much of its bandwidth bill is discretionary.
    mrc_gradient:
        Fractional miss-ratio reduction if the core's LLC share
        doubled (``1 - mr(2s)/mr(s)``, in ``[0, 1]``): the marginal
        utility of its cache space.  Zero for streaming apps whose
        fills pollute the LLC without helping them; measuring the
        *relative* drop keeps low-miss-rate but cache-hungry apps
        distinguishable from genuinely flat ones.
    llc_share:
        Fraction of the shared LLC the core currently occupies.
    """

    name: str
    bw_share: float
    spec_share: float
    mrc_gradient: float
    llc_share: float


class Coordinator(ABC):
    """Decides per-core prefetch tunings once per control epoch."""

    name: str = "coord"

    @abstractmethod
    def decide(self, feedback: list[CoreFeedback], rho: float) -> list[PrefetchTuning]:
        """Return one tuning per core, in ``feedback`` order.

        ``rho`` is the shared memory controller's utilisation for the
        epoch.  Implementations must be deterministic functions of
        their inputs (and frozen policy state) — evaluation depends on
        bit-reproducibility.
        """


def _quantise_scale(value: float) -> int:
    """Index of the action scale closest to ``value``."""
    best = 0
    for i, scale in enumerate(ACTION_SCALES):
        if abs(scale - value) < abs(ACTION_SCALES[best] - value):
            best = i
    return best


def action_tuning(action: int) -> PrefetchTuning:
    """Decode a discrete action into a :class:`PrefetchTuning`."""
    if not 0 <= action < N_ACTIONS:
        raise SimulationError(f"action {action} out of range [0, {N_ACTIONS})")
    scale = ACTION_SCALES[action >> 1]
    bypass = bool(action & 1)
    if scale == 1.0 and not bypass:
        return DEFAULT_TUNING
    return PrefetchTuning(degree_scale=scale, nta_bypass=bypass)


def note_decisions(tunings: list[PrefetchTuning]) -> None:
    """Record one epoch's decisions in the ``coord.*`` counter family."""
    if not obs.enabled():
        return
    reg = obs.metrics()
    reg.counter("coord.epochs").inc()
    throttled = sum(1 for t in tunings if t.degree_scale < 1.0)
    bypassed = sum(1 for t in tunings if t.nta_bypass)
    if throttled:
        reg.counter("coord.throttled").inc(throttled)
    if bypassed:
        reg.counter("coord.bypassed").inc(bypassed)


class HeuristicCoordinator(Coordinator):
    """Bandwidth-share + MRC-marginal-utility throttling.

    Below 70 % controller utilisation every core runs untuned (the
    shared curve is flat there too).  Above it, each core starts from
    the exact static back-off factor, then a core consuming more than
    ``bw_heavy`` times its fair bandwidth share is hardened by a
    further ``harden`` factor (floored at the curve's own 0.25): it is
    the one whose speculative traffic the queue is paying for.  Cores
    whose MRC doubling-gain is at most ``flat_eps`` — flat curves, no
    marginal use for LLC space — are retargeted to NTA-bypassing
    fills, giving the shared cache back to their neighbours without
    giving up their own prefetch coverage.
    """

    name = "heuristic"

    def __init__(
        self,
        bw_heavy: float = 1.25,
        harden: float = 0.75,
        flat_eps: float = 0.05,
    ) -> None:
        if bw_heavy <= 0:
            raise SimulationError("bw_heavy must be positive")
        if not 0.0 < harden <= 1.0:
            raise SimulationError("harden must be in (0, 1]")
        if flat_eps < 0.0:
            raise SimulationError("flat_eps must be non-negative")
        self.bw_heavy = bw_heavy
        self.harden = harden
        self.flat_eps = flat_eps

    def decide(self, feedback: list[CoreFeedback], rho: float) -> list[PrefetchTuning]:
        n = len(feedback)
        if n == 0:
            return []
        if rho <= 0.70:
            return [DEFAULT_TUNING] * n
        base = throttle_factor(rho)
        tunings = []
        for f in feedback:
            kept = base
            if f.bw_share * n > self.bw_heavy:
                kept = max(0.25, kept * self.harden)
            bypass = max(0.0, f.mrc_gradient) <= self.flat_eps
            if kept >= 1.0 and not bypass:
                tunings.append(DEFAULT_TUNING)
            else:
                tunings.append(PrefetchTuning(degree_scale=kept, nta_bypass=bypass))
        return tunings


# ---------------------------------------------------------------------------
# RL policy
# ---------------------------------------------------------------------------

State = tuple[int, int, int, int]


def discretise_state(feedback: CoreFeedback, rho: float, n_cores: int) -> State:
    """Discretise one core's epoch telemetry into the tabular Q state.

    ``(utilisation band, bandwidth-weight band, MRC doubling-gain band,
    speculative-share band)`` — 4 × 3 × 3 × 3 = 108 states, 8 actions.
    The gain band splits flat curves (< 0.05) from moderately and
    strongly cache-sensitive ones.
    """
    if rho <= 0.70:
        r = 0
    elif rho <= 0.85:
        r = 1
    elif rho <= 0.95:
        r = 2
    else:
        r = 3
    weight = feedback.bw_share * n_cores
    b = 0 if weight < 0.75 else (1 if weight < 1.25 else 2)
    grad = max(0.0, feedback.mrc_gradient)
    g = 0 if grad < 0.05 else (1 if grad < 0.3 else 2)
    s = 0 if feedback.spec_share < 0.1 else (1 if feedback.spec_share < 0.3 else 2)
    return (r, b, g, s)


def _argmax(row: tuple[float, ...]) -> int:
    """First index of the maximum — deterministic tie-break."""
    best = 0
    for i in range(1, len(row)):
        if row[i] > row[best]:
            best = i
    return best


@dataclass(frozen=True)
class CoordinatorPolicy:
    """Frozen Q-table artifact produced by :func:`train_coordinator`.

    ``q`` maps a discretised state to its ``N_ACTIONS`` action values,
    rounded to six decimals at freeze time so the serialized artifact
    round-trips bit-identically.
    """

    seed: int
    episodes: int
    alpha: float
    gamma: float
    q: dict[State, tuple[float, ...]]

    def __post_init__(self) -> None:
        for state, row in self.q.items():
            if len(state) != 4 or len(row) != N_ACTIONS:
                raise SimulationError(f"malformed policy entry for state {state!r}")


#: The committed default policy artifact (``repro train-coordinator``
#: output at seed 0; see docs/multicore.md for the training recipe).
_BUNDLED_POLICY = Path(__file__).parent / "policies" / "default-v1.json"

_policy_override: Path | None = None


def default_policy_path() -> Path:
    """Path of the policy :meth:`RLCoordinator.default` evaluates."""
    return _policy_override if _policy_override is not None else _BUNDLED_POLICY


def set_default_policy_path(path: str | Path | None) -> None:
    """Override the bundled default policy (CLI ``--coordinator-policy``)."""
    global _policy_override
    _policy_override = Path(path) if path is not None else None
    _load_policy_cached.cache_clear()


def load_policy(path: str | Path) -> CoordinatorPolicy:
    """Load a ``repro-coordinator-policy-v1`` artifact."""
    from repro.core.serialization import coordinator_policy_from_dict

    return coordinator_policy_from_dict(json.loads(Path(path).read_text()))


def save_policy(policy: CoordinatorPolicy, path: str | Path) -> None:
    """Write a policy artifact in canonical (golden-fixture) form."""
    from repro.core.serialization import coordinator_policy_to_dict

    doc = coordinator_policy_to_dict(policy)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@lru_cache(maxsize=4)
def _load_policy_cached(path: str) -> CoordinatorPolicy:
    return load_policy(path)


class RLCoordinator(Coordinator):
    """Greedy evaluation of a frozen tabular Q policy.

    Deterministic: ties break toward the lowest action index, and
    states the offline training never visited fall back to the static
    back-off curve (quantised, no bypass) — the coordinator can only
    deviate from the uncoordinated baseline where it has evidence.
    """

    name = "rl"

    def __init__(self, policy: CoordinatorPolicy) -> None:
        self.policy = policy

    @classmethod
    def default(cls) -> "RLCoordinator":
        """The committed default policy (see :func:`default_policy_path`)."""
        return cls(_load_policy_cached(str(default_policy_path())))

    def decide(self, feedback: list[CoreFeedback], rho: float) -> list[PrefetchTuning]:
        n = len(feedback)
        if n == 0:
            return []
        if rho <= 0.70:
            return [DEFAULT_TUNING] * n
        static_action = _quantise_scale(throttle_factor(rho)) << 1
        tunings = []
        for f in feedback:
            state = discretise_state(f, rho, n)
            row = self.policy.q.get(state)
            action = static_action if row is None else _argmax(row)
            tunings.append(action_tuning(action))
        return tunings


# ---------------------------------------------------------------------------
# Offline training
# ---------------------------------------------------------------------------


class _Probe(Coordinator):
    """Records the last epoch's feedback; delegates tunings to a policy fn."""

    name = "probe"

    def __init__(self, fn) -> None:
        self.feedback: list[CoreFeedback] | None = None
        self.rho = 0.0
        self._fn = fn

    def decide(self, feedback: list[CoreFeedback], rho: float) -> list[PrefetchTuning]:
        self.feedback = feedback
        self.rho = rho
        return self._fn(feedback, rho)


def _static_tunings(feedback: list[CoreFeedback], rho: float) -> list[PrefetchTuning]:
    """Mimic the uncoordinated shared back-off curve through the hook."""
    factor = throttle_factor(rho)
    if factor >= 1.0:
        return [DEFAULT_TUNING] * len(feedback)
    return [PrefetchTuning(degree_scale=factor)] * len(feedback)


def _fair_speedup(contended) -> float:
    """n / sum of slowdowns — the reward the coordinator maximises."""
    return len(contended) / sum(c.slowdown for c in contended)


def _synthetic_profile(rng, machine, name: str):
    """One randomised solo profile for offline training mixes.

    Spans the regimes the coordinator must tell apart: cache-sensitive
    apps (decaying MRC), streaming apps (flat MRC), light and heavy
    bandwidth consumers, and prefetch-heavy vs prefetch-free traffic.
    """
    import numpy as np

    from repro.multicore.contention import AppProfile
    from repro.statstack.mrc import MissRatioCurve

    sizes = (64 * 1024 * 2 ** np.arange(9)).astype(np.int64)
    base_mr = float(rng.uniform(0.05, 0.7))
    if rng.uniform() < 0.3:
        ratios = np.full(len(sizes), base_mr)
    else:
        # Real MRCs flatten to a compulsory-miss floor; decaying to
        # (near) zero would give the partition model an unbounded
        # relative miss-scale dynamic range no hardware exhibits.
        decay = float(rng.uniform(0.3, 0.9))
        floor = base_mr * float(rng.uniform(0.05, 0.5))
        ratios = floor + (base_mr - floor) * decay ** np.arange(
            len(sizes), dtype=np.float64
        )
    mrc = MissRatioCurve(sizes, ratios)

    cycles = 1.0e6
    mu = machine.bytes_per_cycle() / machine.line_bytes
    # Per-app offered rate between 5% and 60% of the controller, so
    # four-app mixes sweep the whole utilisation range.
    dram_lines = int(rng.uniform(0.05, 0.6) * mu * cycles)
    llc_insert = int(dram_lines * rng.uniform(0.5, 1.0))
    throttleable = dram_lines * float(rng.uniform(0.0, 0.5))
    return AppProfile(
        name=name,
        cycles_alone=cycles,
        dram_lines=dram_lines,
        llc_insert_lines=llc_insert,
        mlp=float(rng.uniform(1.5, 6.0)),
        mrc=mrc,
        mr_full_llc=float(mrc.at(machine.llc.size_bytes)),
        exposure=float(rng.uniform(0.3, 1.0)),
        throttleable_lines=throttleable,
        throttle_cycle_cost=cycles * float(rng.uniform(0.0, 0.05)),
    )


def train_coordinator(
    seed: int = 0,
    episodes: int = 400,
    alpha: float = 0.2,
    gamma: float = 0.5,
    machine_name: str = "amd-phenom-ii",
    cores: int = 4,
    progress=None,
) -> CoordinatorPolicy:
    """Train a tabular Q policy on synthetic contended mixes.

    Each episode draws a fresh random mix, solves it once with the
    static back-off curve (recording the resulting per-core states and
    the baseline fair speedup), picks one ε-greedy action per core,
    solves the mix again under those fixed tunings, and updates the
    shared Q table with the fair-speedup *improvement* as reward.
    Entirely seeded — the same arguments always freeze the same policy.
    """
    import numpy as np

    from repro.config import get_machine
    from repro.multicore.contention import solve_mix

    if episodes <= 0:
        raise SimulationError("episodes must be positive")
    rng = np.random.default_rng(seed)
    machine = get_machine(machine_name)
    q: dict[State, list[float]] = {}

    with obs.span("coord.train", seed=seed, episodes=episodes):
        for episode in range(episodes):
            apps = [
                _synthetic_profile(rng, machine, f"syn{i}") for i in range(cores)
            ]
            epsilon = max(0.05, 1.0 - episode / max(1.0, 0.8 * episodes))

            static_probe = _Probe(_static_tunings)
            base = solve_mix(machine, apps, coordinator=static_probe)
            fs_static = _fair_speedup(base)
            if static_probe.feedback is None:
                continue
            n = len(static_probe.feedback)
            states = [
                discretise_state(f, static_probe.rho, n)
                for f in static_probe.feedback
            ]

            actions = []
            for state in states:
                row = q.get(state)
                if row is None or rng.uniform() < epsilon:
                    actions.append(int(rng.integers(N_ACTIONS)))
                else:
                    actions.append(_argmax(tuple(row)))
            fixed = [action_tuning(a) for a in actions]
            acting_probe = _Probe(lambda fb, rho, fixed=fixed: fixed)
            contended = solve_mix(machine, apps, coordinator=acting_probe)
            reward = _fair_speedup(contended) - fs_static

            next_feedback = acting_probe.feedback or static_probe.feedback
            next_rho = acting_probe.rho
            for state, action, nxt in zip(states, actions, next_feedback):
                next_state = discretise_state(nxt, next_rho, n)
                row = q.setdefault(state, [0.0] * N_ACTIONS)
                future = max(q[next_state]) if next_state in q else 0.0
                row[action] += alpha * (reward + gamma * future - row[action])
            if progress is not None and (episode + 1) % 50 == 0:
                progress(episode + 1, episodes, len(q))

    frozen = {
        state: tuple(round(v, 6) for v in row) for state, row in q.items()
    }
    return CoordinatorPolicy(
        seed=seed, episodes=episodes, alpha=alpha, gamma=gamma, q=frozen
    )
