"""Configuration of a DataDroplets deployment."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.obs.overload import AdmissionConfig
from repro.redundancy.manager import RepairPolicy
from repro.softstate.coordinator import SoftStateConfig


@dataclass(frozen=True)
class IndexSpec:
    """A secondary attribute with ordered placement, scans and stats.

    Items are *additionally* replicated into value-ordered placement for
    each indexed attribute (the paper's "several contending
    organizations", §III-B2) — expect storage cost ~r per index.

    Attributes:
        attribute: record field (numeric).
        lo / hi: value bounds used before a distribution estimate exists
            and as the histogram domain.
        bins: histogram resolution.
    """

    attribute: str
    lo: float
    hi: float
    bins: int = 32

    def __post_init__(self) -> None:
        if self.hi <= self.lo:
            raise ConfigurationError(f"index {self.attribute}: need hi > lo")
        if self.bins <= 0:
            raise ConfigurationError(f"index {self.attribute}: bins must be positive")


@dataclass(frozen=True)
class DataDropletsConfig:
    """All tunables of the two-layer system.

    The defaults are sized for simulation experiments of a few hundred
    storage nodes; see DESIGN.md for how each knob maps to the paper.
    """

    seed: int = 42
    n_soft: int = 4
    n_storage: int = 64
    replication: int = 4

    # placement
    collocation: Optional[str] = None  # None | "prefix" | "field:<name>"
    indexes: Tuple[IndexSpec, ...] = ()

    # dissemination
    fanout_c: float = 2.0  # adaptive fanout = ceil(ln N_est) + c

    # network model
    latency_low: float = 0.005
    latency_high: float = 0.05
    loss_rate: float = 0.0

    # membership
    view_size: int = 16
    shuffle_size: int = 8
    membership_period: float = 1.0

    # estimation
    size_estimator_k: int = 64
    size_estimator_period: float = 1.0
    estimator_epoch: Optional[float] = 30.0
    pushsum_period: float = 1.0

    # ordered overlays
    tman_view: int = 8
    tman_period: float = 1.0

    # redundancy maintenance
    repair: RepairPolicy = field(default_factory=RepairPolicy)
    repair_period: float = 10.0  # same-range anti-entropy period
    # master switch for *active* redundancy repair (census still runs —
    # aggregates need it — but re-dissemination and same-range
    # reconciliation are disabled). Ablation knob for experiment E6.
    repair_enabled: bool = True
    # "static": the RepairPolicy above verbatim. "adaptive": session
    # lifetimes are estimated online from node lifecycle events and a
    # shared AdaptiveRepairPolicy derives per-range replica targets,
    # census cadence and grace from predicted survival over the recovery
    # window (claim C5; the E6 adaptive-vs-static ablation).
    redundancy_mode: str = "static"
    adaptive_r_min: int = 2
    adaptive_r_max: Optional[int] = None  # None: max(replication, 2*r_min)
    adaptive_loss_tolerance: float = 1e-2
    adaptive_recovery_window: Optional[float] = None  # None: grace + 2*period
    adaptive_min_deaths: int = 8  # completed sessions before the fit engages

    # storage
    memtable_capacity: Optional[int] = None
    # Periodic state audit (self-stabilisation): every storage node
    # recomputes its rolling bucket summaries and cached sieve state from
    # first principles and repairs whatever drifted — closing the
    # detection gap for corruption the digest exchange cannot see
    # (summaries poisoned to still agree per key; a desynced sieve
    # position). See docs/API.md "State corruption & self-stabilisation".
    audit_enabled: bool = True
    audit_period: float = 6.0

    # soft layer
    soft: SoftStateConfig = field(default_factory=SoftStateConfig)
    virtual_nodes: int = 16
    # "legacy": one shared ring whose aliveness the facade sets from
    # ground truth. "onehop": every soft node keeps a full routing table
    # fed by epidemically disseminated membership events
    # (repro.softstate.onehop) and misrouted ops are redirected to the
    # believed owner instead of erroring (probe-and-redirect).
    # Why "legacy" stays the default: with "onehop" as default,
    # `repro check --seeds 25 --quick --no-shrink` failed 10 of 25 seeds
    # (57 version_monotonicity and 2 no_lost_writes violations) and
    # `repro check --nemesis corruption --seeds 10 --quick --no-shrink`
    # failed 10 of 10 (65 version_monotonicity), e.g. item:0 acked at
    # v(1, coordinator 16) after v(2, coordinator 17). A soft node wrongly
    # suspected under loss hands its keys to a coordinator with no version
    # history, so the soft layer no longer orders writes (claim C10).
    # Fix that before flipping the default.
    routing_mode: str = "legacy"
    onehop_quarantine_window: float = 10.0

    # client
    client_timeout: float = 30.0  # virtual seconds per operation
    client_retries: int = 2  # re-sends after a timed-out request
    # Overload protection at the facade: None disables the gate entirely
    # (the pre-PR-10 behaviour); an AdmissionConfig installs a token-
    # bucket admission gate with per-tenant fair shedding and publishes
    # queue-depth / shed / saturation telemetry (repro.obs.overload).
    admission: Optional[AdmissionConfig] = None

    # observability — causal tracing (see docs/API.md "Tracing & metrics
    # export"). Off by default: the disabled tracer costs one attribute
    # load and a branch per network send.
    tracing: bool = False
    trace_sample_rate: float = 1.0  # fraction of client ops that open a trace
    trace_capacity: int = 200_000  # event ring-buffer size (oldest evicted)

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ConfigurationError("trace_sample_rate must be in [0, 1]")
        if self.trace_capacity <= 0:
            raise ConfigurationError("trace_capacity must be positive")
        if self.n_soft <= 0 or self.n_storage <= 0:
            raise ConfigurationError("n_soft and n_storage must be positive")
        if self.replication <= 0:
            raise ConfigurationError("replication must be positive")
        if self.collocation is not None:
            if self.collocation != "prefix" and not self.collocation.startswith("field:"):
                raise ConfigurationError(
                    "collocation must be None, 'prefix' or 'field:<name>'"
                )
        positive = {
            "membership_period": self.membership_period,
            "size_estimator_period": self.size_estimator_period,
            "pushsum_period": self.pushsum_period,
            "tman_period": self.tman_period,
            "repair_period": self.repair_period,
            "audit_period": self.audit_period,
            "client_timeout": self.client_timeout,
            "view_size": self.view_size,
            "shuffle_size": self.shuffle_size,
            "tman_view": self.tman_view,
            "virtual_nodes": self.virtual_nodes,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.estimator_epoch is not None and self.estimator_epoch <= 0:
            raise ConfigurationError("estimator_epoch must be positive when set")
        if self.shuffle_size > self.view_size:
            raise ConfigurationError("shuffle_size cannot exceed view_size")
        if self.size_estimator_k < 3:
            raise ConfigurationError("size_estimator_k must be >= 3")
        if self.client_retries < 0:
            raise ConfigurationError("client_retries must be >= 0")
        if self.routing_mode not in ("legacy", "onehop"):
            raise ConfigurationError(f"unknown routing_mode {self.routing_mode!r}")
        if self.redundancy_mode not in ("static", "adaptive"):
            raise ConfigurationError(f"unknown redundancy_mode {self.redundancy_mode!r}")
        if self.adaptive_r_min <= 0:
            raise ConfigurationError("adaptive_r_min must be positive")
        if self.adaptive_r_max is not None and self.adaptive_r_max < self.adaptive_r_min:
            raise ConfigurationError("adaptive_r_max must be >= adaptive_r_min")
        if not 0.0 < self.adaptive_loss_tolerance < 1.0:
            raise ConfigurationError("adaptive_loss_tolerance must be in (0, 1)")
        if self.adaptive_recovery_window is not None and self.adaptive_recovery_window <= 0:
            raise ConfigurationError("adaptive_recovery_window must be positive when set")
        if self.adaptive_min_deaths <= 0:
            raise ConfigurationError("adaptive_min_deaths must be positive")
        if self.onehop_quarantine_window < 0:
            raise ConfigurationError("onehop_quarantine_window must be >= 0")
        seen = set()
        for index in self.indexes:
            if index.attribute in seen:
                raise ConfigurationError(f"duplicate index on {index.attribute!r}")
            seen.add(index.attribute)

    def with_replication_target(self) -> "DataDropletsConfig":
        """Copy whose repair policy targets this config's replication."""
        return replace(self, repair=replace(self.repair, target_replication=self.replication))
