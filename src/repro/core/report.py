"""Result dataclasses produced by the optimisation pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "DelinquentLoad",
    "StrideInfo",
    "PrefetchDecision",
    "OptimizationReport",
]


@dataclass(frozen=True)
class DelinquentLoad:
    """A load selected by MDDLI as worth prefetching (paper §V).

    Attributes
    ----------
    pc:
        Static instruction id.
    mr_l1, mr_l2, mr_llc:
        Modelled miss ratios at the machine's three cache sizes.
    sample_weight:
        Fraction of all reuse samples attributed to this PC — an
        estimate of its share of dynamic memory references.
    benefit_score:
        ``mr_l1 × latency − α``: expected cycles saved per execution; the
        quantity the cost/benefit test thresholds above zero.
    """

    pc: int
    mr_l1: float
    mr_l2: float
    mr_llc: float
    sample_weight: float
    benefit_score: float


@dataclass(frozen=True)
class StrideInfo:
    """Outcome of the stride analysis for one delinquent load (paper §VI)."""

    pc: int
    dominant_stride: int
    dominance: float
    median_recurrence: float
    n_samples: int

    @property
    def is_regular(self) -> bool:
        """True when a dominant stride group exists (dominance set by caller)."""
        return self.dominant_stride != 0

    @property
    def estimated_run_length(self) -> float:
        """Expected consecutive same-stride references (the loop's ``R``).

        Off-group samples mark the ends of strided runs, so a dominance
        of ``p`` implies runs of about ``p / (1 - p)`` iterations — how
        the analysis bounds the prefetch distance (``P ≤ R/2``) for
        short-lived strides such as cigar's chromosome rows.  Infinite
        for perfectly regular streams.
        """
        if self.dominance >= 1.0:
            return float("inf")
        return self.dominance / (1.0 - self.dominance)


@dataclass(frozen=True)
class PrefetchDecision:
    """One prefetch instruction to insert (paper §VI-C).

    ``prefetch[nta] distance(base)`` is placed right after load ``pc``;
    at trace level this means every execution of the load issues a
    prefetch of ``addr + distance_bytes``.

    An *indirect* decision (``indirect_ahead > 0``) covers an ``A[B[i]]``
    load instead: ``distance_bytes`` then runs ahead on the companion
    index load ``index_pc`` (prefetching ``B[i+ahead]``), ``stride`` is
    the index walk's stride, and the data load gets an
    ``IndirectPrefetch`` of ``A[B[i+ahead]]`` — the two-instruction
    rewrite of the paper's indirection discussion.
    """

    pc: int
    stride: int
    distance_bytes: int
    nta: bool
    indirect_ahead: int = 0
    index_pc: int | None = None

    def __post_init__(self) -> None:
        if self.distance_bytes == 0:
            raise ValueError("a prefetch with zero distance is useless")
        if self.indirect_ahead < 0:
            raise ValueError("indirect_ahead must be non-negative")
        if self.indirect_ahead > 0 and self.index_pc is None:
            raise ValueError("an indirect decision requires index_pc")
        if self.indirect_ahead == 0 and self.index_pc is not None:
            raise ValueError("index_pc requires indirect_ahead > 0")

    @property
    def kind(self) -> str:
        if self.indirect_ahead:
            return "prefetch-indirect"
        return "prefetchnta" if self.nta else "prefetch"


@dataclass
class OptimizationReport:
    """Full output of one analysis pass over one application profile.

    ``skipped`` maps PCs that were considered but rejected to a short
    reason string (``"cost-benefit"``, ``"irregular-stride"``,
    ``"zero-stride"``, ``"few-samples"``) — Table I's coverage gaps come
    straight from these buckets.
    """

    machine_name: str
    delinquent: list[DelinquentLoad] = field(default_factory=list)
    strides: dict[int, StrideInfo] = field(default_factory=dict)
    decisions: list[PrefetchDecision] = field(default_factory=list)
    nt_stores: list[int] = field(default_factory=list)
    skipped: dict[int, str] = field(default_factory=dict)
    latency_used: float = 0.0

    @property
    def prefetched_pcs(self) -> set[int]:
        return {d.pc for d in self.decisions}

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"machine: {self.machine_name}",
            f"delinquent loads (MDDLI): {len(self.delinquent)}",
            f"prefetches inserted: {len(self.decisions)} "
            f"({sum(d.nta for d in self.decisions)} non-temporal)",
        ]
        for d in self.decisions:
            lines.append(
                f"  pc {d.pc}: {d.kind} {d.distance_bytes:+d}(base) "
                f"stride {d.stride:+d}"
            )
        if self.nt_stores:
            lines.append(f"non-temporal stores: {sorted(self.nt_stores)}")
        if self.skipped:
            lines.append(f"skipped: {len(self.skipped)}")
            for pc, why in sorted(self.skipped.items()):
                lines.append(f"  pc {pc}: {why}")
        return "\n".join(lines)
