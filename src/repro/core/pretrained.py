"""Pre-built RemyCC rule tables used by the experiment harnesses.

The paper's RemyCCs were produced by CPU-weeks of offline search on 48- and
80-core machines.  Re-running that search inside a pure-Python packet-level
simulator is not feasible in the time budget of this reproduction, so this
module ships compact *synthesized* rule tables with the same structure a
trained RemyCC has — a piecewise-constant map from the three-variable memory
space ⟨ack_ewma, send_ewma, rtt_ratio⟩ to ⟨window multiple, window increment,
intersend time⟩ actions.

The synthesized policy captures the qualitative behaviour the paper reports
for trained RemyCCs:

* ``rtt_ratio`` (current RTT over minimum RTT) is the congestion signal; the
  table drives it toward a **target ratio** set by the objective's delay
  weight δ (δ = 10 targets nearly empty queues, δ = 0.1 tolerates more
  standing queue in exchange for throughput),
* below the target the window grows — multiplicatively when the queue is
  empty (fast start-up), and at a fixed number of packets **per unit time**
  otherwise (the per-ACK increment is scaled by the ACK interarrival bin, so
  slower flows grow as fast as faster ones, which is what drives convergence
  to a fair allocation),
* above the target the window shrinks multiplicatively,
* in high-rate regimes (small ACK interarrival) transmissions are paced at a
  fraction of the observed ACK spacing to avoid bursts,
* tables designed for a known link speed refuse to pace faster than that
  link, which is what makes the "1×" table of Figure 11 excel at its design
  point and deteriorate elsewhere.

The genuine Remy optimizer is implemented in :mod:`repro.core.optimizer` and
exercised end-to-end by the tests, the optimizer benchmark and
``examples/train_remycc.py``; tables produced by it can be dropped into every
experiment via :func:`repro.core.serialization.load_remycc`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.action import Action, MAX_INTERSEND_MS, MIN_INTERSEND_MS
from repro.core.memory import MAX_MEMORY, Memory, MemoryRange
from repro.core.whisker import Whisker
from repro.core.whisker_tree import WhiskerTree, _Node, index_node

#: Default bin edges (milliseconds) for the ack_ewma axis.  Geometric spacing
#: covers everything from datacenter ACK gaps (~0.1 ms) to congested
#: cellular/wide-area gaps (hundreds of ms).
DEFAULT_ACK_BINS_MS = (
    0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, MAX_MEMORY
)

#: Default bin edges for the rtt_ratio axis, expressed as multiples of the
#: policy's target ratio minus one (filled in by the synthesizer).
DEFAULT_RATIO_BINS_RELATIVE = (0.0, 1.0, 0.25, 0.55, 1.0, 1.45, 1.9, 2.8, 5.0)


def _clamp(value: float, low: float, high: float) -> float:
    return min(max(value, low), high)


def _bin_center(low: float, high: float) -> float:
    """Representative value of a bin: geometric-ish mean, robust to 0/MAX edges."""
    if high >= MAX_MEMORY:
        high = 4 * max(low, 1.0)
    if low <= 0:
        return high / 2
    return (low * high) ** 0.5


@dataclass(frozen=True)
class PolicySettings:
    """Parameters of a synthesized RemyCC-style policy."""

    #: Equilibrium rtt_ratio the policy steers toward (1 + queueing/minRTT).
    target_ratio: float
    #: Window growth below the target, in packets per millisecond of wall time.
    growth_per_ms: float = 0.1
    #: Multiplicative back-off applied per ACK once the ratio is well above
    #: the target.  Per-ACK multiples compound once per ACK, i.e. roughly
    #: ``multiple ** cwnd`` per RTT, so values very close to 1.0 already give
    #: substantial per-RTT reductions for BDP-sized windows.
    backoff_multiple: float = 0.999
    #: Stronger back-off once the queue is far beyond the target.
    severe_backoff_multiple: float = 0.996
    #: Fast-start increment per ACK while the queue is essentially empty.
    fast_start_increment: float = 2.0
    #: Increment per ACK in the all-zeroes start-up state (before any RTT
    #: sample): a trained RemyCC opens the window very quickly to grab spare
    #: bandwidth, which is where most of its advantage on short flows comes
    #: from (§5.2, Figure 6).
    startup_increment: float = 4.0
    #: Pacing factor relative to the observed ACK spacing in high-rate bins.
    pacing_fraction: float = 0.45
    #: Only pace when the ACK spacing is below this (ms); coarser spacing is
    #: dominated by idle gaps and would throttle short flows spuriously.
    pacing_max_ack_ms: float = 4.0
    #: Optional rate band implied by the design range's link speeds.
    max_rate_pps: Optional[float] = None
    min_rate_pps: Optional[float] = None
    #: Intersend used in the all-zeroes start-up state.
    startup_intersend_ms: float = 0.5

    def __post_init__(self) -> None:
        if self.target_ratio <= 1.0:
            raise ValueError("target_ratio must exceed 1.0")
        if self.growth_per_ms <= 0:
            raise ValueError("growth_per_ms must be positive")
        if not 0 < self.backoff_multiple <= 1:
            raise ValueError("backoff_multiple must be in (0, 1]")
        if not 0 < self.severe_backoff_multiple <= self.backoff_multiple:
            raise ValueError("severe_backoff_multiple must be <= backoff_multiple")


def _intersend_bounds(settings: PolicySettings) -> tuple[float, float]:
    low = MIN_INTERSEND_MS
    high = MAX_INTERSEND_MS
    if settings.max_rate_pps is not None and settings.max_rate_pps > 0:
        low = max(low, 1000.0 / settings.max_rate_pps)
    if settings.min_rate_pps is not None and settings.min_rate_pps > 0:
        high = min(high, 1000.0 / settings.min_rate_pps)
    return low, high


def _ratio_bins(settings: PolicySettings) -> tuple[float, ...]:
    """Absolute rtt_ratio bin edges derived from the target ratio."""
    excess = settings.target_ratio - 1.0
    edges = [0.0, 1.0]
    for multiple in (0.25, 0.55, 1.0, 1.45, 1.9, 2.8, 5.0):
        edges.append(1.0 + excess * multiple)
    edges.append(MAX_MEMORY)
    return tuple(edges)


def _action_for_cell(settings: PolicySettings, ack_center_ms: float, ratio_center: float) -> Action:
    """The synthesized policy, evaluated at the representative point of a cell."""
    min_r, max_r = _intersend_bounds(settings)
    target = settings.target_ratio
    excess = target - 1.0

    if ratio_center < 1.0:
        # Start-up: no RTT sample yet.  Open the window quickly and pace at a
        # moderate default until feedback arrives.
        intersend = _clamp(settings.startup_intersend_ms, min_r, max_r)
        return Action(1.0, settings.startup_increment, intersend)

    # Pacing: smooth bursts when the ACK clock is fast enough to be a clean
    # rate signal; otherwise leave transmissions window-clocked.
    if ack_center_ms <= settings.pacing_max_ack_ms:
        intersend = _clamp(settings.pacing_fraction * ack_center_ms, min_r, max_r)
    else:
        intersend = _clamp(MIN_INTERSEND_MS, min_r, max_r)

    queue_excess = (ratio_center - 1.0) / excess  # 0 = empty queue, 1 = at target

    if queue_excess < 0.25:
        # Essentially no queue: the path is underused, ramp multiplicatively.
        return Action(1.0, settings.fast_start_increment, intersend)
    if queue_excess < 1.0:
        # Below target: additive growth *per unit time* — the per-ACK
        # increment scales with the ACK spacing, so slow flows catch up.
        increment = _clamp(settings.growth_per_ms * ack_center_ms, 0.05, 8.0)
        return Action(1.0, increment, intersend)
    if queue_excess < 1.45:
        # At the target: hold (tiny decay so the queue drifts down, not up).
        return Action(1.0, -0.01, intersend)
    if queue_excess < 2.8:
        # Above target: multiplicative back-off.
        return Action(settings.backoff_multiple, 0.0, intersend)
    # Far above target (e.g. the link slowed down sharply): strong back-off.
    return Action(settings.severe_backoff_multiple, -0.5, intersend)


def synthesize_remycc(
    name: str,
    settings: PolicySettings,
    ack_bins_ms: Sequence[float] = DEFAULT_ACK_BINS_MS,
) -> WhiskerTree:
    """Build a whisker tree implementing ``settings`` on a 2-D memory grid.

    The send_ewma axis is left unsplit (the synthesized policies do not use
    it), so every grid cell is one leaf whisker spanning the full send_ewma
    range — a legal partition of the memory space.
    """
    tree = WhiskerTree(name=name)
    ratio_bins = _ratio_bins(settings)
    root = _Node(MemoryRange.whole_space())
    root.children = []
    for ack_low, ack_high in zip(ack_bins_ms, ack_bins_ms[1:]):
        for ratio_low, ratio_high in zip(ratio_bins, ratio_bins[1:]):
            domain = MemoryRange(
                Memory(ack_low, 0.0, ratio_low),
                Memory(ack_high, MAX_MEMORY, ratio_high),
            )
            action = _action_for_cell(
                settings, _bin_center(ack_low, ack_high), _bin_center(ratio_low, ratio_high)
            )
            root.children.append(_Node(domain, Whisker(domain=domain, action=action)))
    # Index the grid so lookups bisect the bin edges instead of scanning
    # every cell on a last-leaf cache miss.
    index_node(root)
    tree._root = root
    return tree


# ---------------------------------------------------------------------------
# Named pretrained tables matching the RemyCCs evaluated in the paper.
# ---------------------------------------------------------------------------

_GENERAL_MAX_RATE_PPS = 1.1 * 20e6 / (1500 * 8)  # design-range ceiling: 20 Mbps


def _build_general(delta: float) -> WhiskerTree:
    """General-purpose RemyCCs (δ = 0.1, 1, 10) for the §5.1 dumbbell model."""
    targets = {0.1: 1.50, 1.0: 1.25, 10.0: 1.10}
    growth = {0.1: 0.18, 1.0: 0.12, 10.0: 0.07}
    startup = {0.1: 12.0, 1.0: 9.0, 10.0: 6.0}
    fast = {0.1: 2.5, 1.0: 1.5, 10.0: 1.0}
    backoff = {0.1: 0.9985, 1.0: 0.999, 10.0: 0.999}
    severe = {0.1: 0.995, 1.0: 0.996, 10.0: 0.996}
    settings = PolicySettings(
        target_ratio=targets[delta],
        growth_per_ms=growth[delta],
        startup_increment=startup[delta],
        fast_start_increment=fast[delta],
        backoff_multiple=backoff[delta],
        severe_backoff_multiple=severe[delta],
        max_rate_pps=_GENERAL_MAX_RATE_PPS,
    )
    return synthesize_remycc(f"remy-delta{delta:g}", settings)


def _build_1x() -> WhiskerTree:
    """Figure 11 "1×" table: link speed of 15 Mbps known exactly a priori."""
    link_pps = 15e6 / (1500 * 8)
    settings = PolicySettings(
        target_ratio=1.25,
        growth_per_ms=0.12,
        max_rate_pps=link_pps * 1.05,
        min_rate_pps=link_pps / 16,
        startup_intersend_ms=2000.0 / link_pps,
    )
    return synthesize_remycc("remy-1x", settings)


def _build_10x() -> WhiskerTree:
    """Figure 11 "10×" table: link speed within 4.7-47 Mbps."""
    high_pps = 47e6 / (1500 * 8)
    low_pps = 4.7e6 / (1500 * 8)
    settings = PolicySettings(
        target_ratio=1.25,
        growth_per_ms=0.12,
        max_rate_pps=high_pps * 1.05,
        min_rate_pps=low_pps / 16,
        startup_intersend_ms=2000.0 / high_pps,
    )
    return synthesize_remycc("remy-10x", settings)


def _build_datacenter() -> WhiskerTree:
    """§5.5 table: minimum-potential-delay objective over the datacenter model."""
    link_pps = 10e9 / (1500 * 8)
    settings = PolicySettings(
        target_ratio=2.5,
        growth_per_ms=40.0,
        fast_start_increment=2.0,
        max_rate_pps=link_pps,
        pacing_max_ack_ms=1.0,
        startup_intersend_ms=0.02,
    )
    return synthesize_remycc("remy-datacenter", settings)


def _build_coexist() -> WhiskerTree:
    """§5.6 table: designed for RTTs of 100 ms-10 s to tolerate buffer-fillers."""
    settings = PolicySettings(
        target_ratio=3.0,
        growth_per_ms=0.15,
        backoff_multiple=0.998,
        max_rate_pps=_GENERAL_MAX_RATE_PPS,
    )
    return synthesize_remycc("remy-coexist", settings)


_BUILDERS = {
    "delta0.1": lambda: _build_general(0.1),
    "delta1": lambda: _build_general(1.0),
    "delta10": lambda: _build_general(10.0),
    "1x": _build_1x,
    "10x": _build_10x,
    "datacenter": _build_datacenter,
    "coexist": _build_coexist,
}


def pretrained_tree_names() -> list[str]:
    """Names accepted by :func:`pretrained_remycc`."""
    return sorted(_BUILDERS)


def pretrained_remycc(name: str) -> WhiskerTree:
    """Return a fresh copy of the named pre-built rule table."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown pretrained RemyCC {name!r}; available: {pretrained_tree_names()}"
        ) from None
    return builder()
