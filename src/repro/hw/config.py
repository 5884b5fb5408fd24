"""Hardware configurations (the paper's Table 1 and §6.3 variants)."""

from __future__ import annotations

from dataclasses import dataclass, replace

#: recognised best-effort HTM capacity shapes (:attr:`HardwareConfig.htm_mode`).
HTM_MODES = ("unbounded", "store_buffer", "cache_shaped")
#: fallback-lock subscription points (:attr:`HardwareConfig.fallback_lock_mode`).
FALLBACK_LOCK_MODES = (None, "begin", "end")
#: abort-delivery ISA variants (:attr:`HardwareConfig.abort_delivery`).
ABORT_DELIVERY_MODES = ("handler", "setjmp")


@dataclass(frozen=True)
class CacheConfig:
    size_bytes: int
    ways: int
    line_bytes: int = 64
    hit_cycles: int = 4

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)

@dataclass(frozen=True)
class HardwareConfig:
    """Processor parameters.  Defaults reproduce Table 1 of the paper."""

    name: str = "4wide"
    frequency_ghz: float = 4.0
    fetch_width: int = 4
    issue_width: int = 4
    retire_width: int = 4
    branch_mispredict_penalty: int = 20
    instruction_window: int = 128
    scheduling_window: int = 64
    load_buffer: int = 60
    store_buffer: int = 40
    gshare_entries: int = 64 * 1024
    bimodal_entries: int = 16 * 1024
    l1_config: CacheConfig = CacheConfig(32 * 1024, 4, 64, 4)
    l2_config: CacheConfig = CacheConfig(4 * 1024 * 1024, 8, 64, 20)
    memory_latency_cycles: int = 400  # 100 ns at 4 GHz

    # -- atomic-region implementation knobs (paper Figure 9) ----------------
    #: cycles the pipeline stalls at every aregion_begin ("+ 20-cycle"
    #: configuration); 0 for the checkpoint substrate.
    aregion_begin_stall: int = 0
    #: if True, an aregion_begin stalls at decode until every preceding
    #: atomic region has committed ("single-inflight" configuration).
    single_inflight_regions: bool = False
    #: best-effort capacity: a region whose *combined* read/write set exceeds
    #: this many L1 lines aborts with reason "overflow".  The bound covers
    #: the union of both sets, so a reads-only region (zero buffered stores)
    #: overflows exactly like a store-heavy one — tracked loads consume
    #: speculative-tag capacity whether or not anything is written.
    region_line_limit: int = 448  # ~ 7/8 of a 512-line L1

    # -- best-effort HTM shape (commercial-HTM realism; SNIPPETS §9.2) ------
    #: capacity model for speculative state.  "unbounded" is the paper's
    #: idealized checkpoint substrate (only ``region_line_limit`` applies).
    #: "store_buffer" is Rock-shaped: the region aborts with reason
    #: "capacity" when its speculative store buffer holds more than
    #: ``spec_store_buffer_entries`` distinct locations.  "cache_shaped"
    #: bounds the read/write *line* set by L1 geometry: more distinct lines
    #: mapping to one L1 set than the cache has ways aborts with "capacity"
    #: (a tracked line would have to be evicted).
    htm_mode: str = "unbounded"
    #: Rock-style speculative store-buffer capacity (distinct buffered
    #: locations) for ``htm_mode="store_buffer"``.
    spec_store_buffer_entries: int = 32
    #: hybrid fallback-lock mode: None (no lock — pure retry/alt-PC
    #: escalation), "begin" (the region subscribes to the global fallback
    #: lock's cache line at aregion_begin, so a lock acquisition conflicts
    #: it immediately), or "end" (sandboxed: the region runs blind and
    #: validates the lock is free at the commit instant).
    fallback_lock_mode: str | None = None
    #: abort-delivery ISA variant: "handler" (RTM-style — the abort reason
    #: code and a retry hint are delivered in architectural registers and
    #: control lands on the handler/alt PC) or "setjmp" (Power/z-style —
    #: control re-lands on the aregion_begin with a condition code set and
    #: the begin itself branches to the software path).
    abort_delivery: str = "handler"

    # -- forward-progress guarantee (paper §3/§5: "the hardware must
    # -- guarantee forward progress") ---------------------------------------
    #: transparent checkpoint retries for a *conflict* abort before the
    #: hardware gives up and takes the software recovery path (alt-PC).
    region_retry_budget: int = 4
    #: base backoff stall in cycles before a conflict retry; doubles with
    #: each consecutive retry of the same region (exponential backoff).
    region_backoff_cycles: int = 32
    #: consecutive software-visible aborts of one region before its
    #: ``aregion_begin`` is patched to jump straight to the alt-PC
    #: (permanent non-speculative fallback); None disables escalation.
    region_fallback_threshold: int | None = 64

    def __post_init__(self) -> None:
        if self.htm_mode not in HTM_MODES:
            raise ValueError(f"unknown htm_mode {self.htm_mode!r}")
        if self.fallback_lock_mode not in FALLBACK_LOCK_MODES:
            raise ValueError(
                f"unknown fallback_lock_mode {self.fallback_lock_mode!r}"
            )
        if self.abort_delivery not in ABORT_DELIVERY_MODES:
            raise ValueError(f"unknown abort_delivery {self.abort_delivery!r}")
        if self.spec_store_buffer_entries <= 0:
            raise ValueError("spec_store_buffer_entries must be positive")

    @property
    def line_shift(self) -> int:
        """log2 of the L1 line size: the granularity at which atomic-region
        read/write sets are tracked and cross-thread conflicts detected."""
        return self.l1_config.line_bytes.bit_length() - 1

    def scaled(self, **changes) -> "HardwareConfig":
        return replace(self, **changes)


#: Table 1 baseline: aggressive 4-wide OOO with checkpoint substrate.
BASELINE_4WIDE = HardwareConfig()

#: §6.3: "a 2-wide OOO version of the baseline machine (widths reduced to 2/2/2)".
OOO_2WIDE = BASELINE_4WIDE.scaled(
    name="2wide", fetch_width=2, issue_width=2, retire_width=2,
)

#: §6.3: "a 2-wide half OOO configuration that halves the superscalar width
#: and all other processor structures (including caches and TLBs)".
OOO_2WIDE_HALF = BASELINE_4WIDE.scaled(
    name="2wide-half",
    fetch_width=2, issue_width=2, retire_width=2,
    instruction_window=64, scheduling_window=32,
    load_buffer=30, store_buffer=20,
    gshare_entries=32 * 1024, bimodal_entries=8 * 1024,
    l1_config=CacheConfig(16 * 1024, 4, 64, 4),
    l2_config=CacheConfig(2 * 1024 * 1024, 8, 64, 20),
    region_line_limit=224,
)

#: Figure 9: checkpoint substrate with a 20-cycle aregion_begin stall.
CHKPT_20CYCLE = BASELINE_4WIDE.scaled(name="4wide+20cyc", aregion_begin_stall=20)

#: Figure 9: only one atomic region in flight at a time.
CHKPT_SINGLE_INFLIGHT = BASELINE_4WIDE.scaled(
    name="4wide-single-inflight", single_inflight_regions=True,
)

# -- best-effort HTM variants (robustness sweeps, not paper figures) ----------
# Each is the Table 1 machine with one commercial-HTM failure shape bolted
# on; the default BASELINE_4WIDE stays the idealized unbounded substrate, so
# every published figure is untouched.

#: Rock-shaped: a 32-entry speculative store buffer caps the write set.
HTM_ROCK_STORE_BUFFER = BASELINE_4WIDE.scaled(
    name="4wide-htm-rock", htm_mode="store_buffer",
    spec_store_buffer_entries=32,
)

#: Cache-shaped: speculative lines must fit the L1's set associativity.
HTM_CACHE_SHAPED = BASELINE_4WIDE.scaled(
    name="4wide-htm-cache", htm_mode="cache_shaped",
)

#: Hybrid fallback lock, subscribed at region begin (eager conflict).
HTM_FALLBACK_LOCK_BEGIN = BASELINE_4WIDE.scaled(
    name="4wide-htm-lock-begin", htm_mode="cache_shaped",
    fallback_lock_mode="begin",
)

#: Hybrid fallback lock, validated at the commit instant (sandboxed).
HTM_FALLBACK_LOCK_END = BASELINE_4WIDE.scaled(
    name="4wide-htm-lock-end", htm_mode="cache_shaped",
    fallback_lock_mode="end",
)

#: Power/z-style setjmp abort delivery on the Rock-shaped capacity model.
HTM_SETJMP_DELIVERY = BASELINE_4WIDE.scaled(
    name="4wide-htm-setjmp", htm_mode="store_buffer",
    abort_delivery="setjmp",
)


def htm_variant_configs() -> tuple[HardwareConfig, ...]:
    """The HTM-realism sweep axis: the unbounded baseline plus every
    best-effort shape.  Config *names* key the experiment cache, so these
    drop straight into ``harness.experiment.run_workload`` sweeps."""
    return (
        BASELINE_4WIDE,
        HTM_ROCK_STORE_BUFFER,
        HTM_CACHE_SHAPED,
        HTM_FALLBACK_LOCK_BEGIN,
        HTM_FALLBACK_LOCK_END,
        HTM_SETJMP_DELIVERY,
    )
