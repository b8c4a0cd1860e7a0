"""Synchronization planner for an N-node relaying chain.

The chain is decomposed into 3-node basic groups built on the odd-numbered
nodes: group j synchronizes odd node 2j+1 to odd node 2j-1 through the
relay 2j between them.  A second sub-phase chains the even-numbered nodes
the same way.  End-to-end offsets accumulate linearly in the group count,
but every relay only ever receives from its two immediate neighbors, so
detection depends on the local error triple alone regardless of N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ChainConfig:
    """Inputs for the chain plan.

    local_errors is the per-group triple of error bounds, each >= 0 (phase
    rad, frequency as twice the one-sided offset in rad/s, time offset s).  The
    synchronization phase, ts = (N-2)*bg_sync_time, must end within the period.
    """

    num_nodes: int
    bg_sync_time: float
    period: float
    local_errors: tuple

    def __post_init__(self):
        if self.num_nodes < 3:
            raise ValueError(f"N >= 3 required, got {self.num_nodes}")
        if not (math.isfinite(self.bg_sync_time) and self.bg_sync_time > 0):
            raise ValueError(f"bg_sync_time must be positive and finite, got {self.bg_sync_time}")
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(f"period must be positive and finite, got {self.period}")
        if len(self.local_errors) != 3:
            raise ValueError("local_errors must be a triple")
        if not all(math.isfinite(e) for e in self.local_errors):
            raise ValueError(f"local_errors must be finite, got {self.local_errors}")
        if any(e < 0 for e in self.local_errors):
            raise ValueError(f"local_errors must be >= 0, got {self.local_errors}")
        ts = (self.num_nodes - 2) * self.bg_sync_time
        if ts >= self.period:
            raise ValueError(f"infeasible: ts = (N-2)*bg_sync_time = {ts} "
                             f">= period = {self.period}")


@dataclass(frozen=True)
class SyncStep:
    """One slot of the synchronization phase: right node syncs to left node."""

    phase: int       # 1 = odd-node sub-phase, 2 = even-node sub-phase
    step: int        # 1-based position in the schedule
    group: int       # basic-group index (phase 1) or even-pair index (phase 2)
    left_node: int
    right_node: int
    start_s: float
    end_s: float


@dataclass(frozen=True)
class ChainPlan:
    num_nodes: int
    num_groups: int
    group_list: tuple      # (group index, (member node ids)) per basic group
    steps: tuple           # SyncStep schedule, phases 1 then 2
    ts: float              # synchronization-phase duration, (N-2)*bg_sync_time
    td: float              # data-phase duration, period - ts
    overhead: float        # ts / period
    accumulated_errors: tuple
    local_errors: tuple
    ts_halved: float | None = None  # optional combined-sub-phase estimate, ~ts/2


def partition_groups(num_nodes: int) -> list[tuple[int, tuple[int, ...]]]:
    """Basic groups over the odd nodes: group j = (2j-1, 2j, 2j+1).

    M = floor((N-1)/2) groups; adjacent groups share one odd node.  For
    even N the last node is not in any basic group and is brought in by
    the even-node sub-phase of the full plan.
    """
    if num_nodes < 3:
        raise ValueError(f"N >= 3 required, got {num_nodes}")
    m = (num_nodes - 1) // 2
    return [(j, (2 * j - 1, 2 * j, 2 * j + 1)) for j in range(1, m + 1)]


def make_plan(cfg: ChainConfig, halved_sync: bool = False) -> ChainPlan:
    """Derive the schedule, overhead and error bounds for one chain.

    Sub-phase 1 runs the M basic-group syncs sequentially; sub-phase 2
    chains the even nodes ((2,4), (4,6), ...), which also covers the last
    node when N is even.  Total steps: N-2, so ts = (N-2)*bg_sync_time.
    halved_sync additionally reports the rough ts/2 estimate of a combined
    schedule that dispenses with sub-phase 2 (no construction given here).
    """
    n = cfg.num_nodes
    ts = (n - 2) * cfg.bg_sync_time
    groups = partition_groups(n)
    m = len(groups)

    steps = []
    t = 0.0
    for j, members in groups:
        steps.append(SyncStep(1, j, j, members[0], members[2], t, t + cfg.bg_sync_time))
        t += cfg.bg_sync_time
    for i in range(1, n // 2):
        steps.append(SyncStep(2, m + i, i, 2 * i, 2 * i + 2, t, t + cfg.bg_sync_time))
        t += cfg.bg_sync_time
    assert len(steps) == n - 2

    acc = tuple(m * e for e in cfg.local_errors)
    return ChainPlan(
        num_nodes=n,
        num_groups=m,
        group_list=tuple(groups),
        steps=tuple(steps),
        ts=ts,
        td=cfg.period - ts,
        overhead=ts / cfg.period,
        accumulated_errors=acc,
        local_errors=tuple(cfg.local_errors),
        ts_halved=ts / 2 if halved_sync else None,
    )


def effective_detection_errors(plan: ChainPlan, relay_node: int) -> tuple:
    """Error triple governing detection at one relay: always the local triple.

    A relay receives simultaneously only from its two adjacent nodes, so
    the accumulated end-to-end errors are immaterial; only odd nodes
    transmit in the PNC phase, so an odd id is rejected.
    """
    if relay_node % 2 != 0:
        raise ValueError(f"relay must be an even node, got {relay_node}")
    if not 2 <= relay_node <= plan.num_nodes:
        raise ValueError(f"relay {relay_node} outside chain 1..{plan.num_nodes}")
    return plan.local_errors


def serialize_plan(plan: ChainPlan) -> str:
    """Deterministic text form: one line per sync step plus a summary block."""
    lines = ["phase,step,group,left_node,right_node,start_s,end_s"]
    for s in plan.steps:
        lines.append(f"{s.phase},{s.step},{s.group},{s.left_node},{s.right_node},"
                     f"{s.start_s!r},{s.end_s!r}")
    lines.append("")
    lines.append("# summary")
    lines.append(f"num_nodes = {plan.num_nodes}")
    lines.append(f"num_groups = {plan.num_groups}")
    lines.append(f"groups = {'; '.join(f'BG{j}:{list(m)}' for j, m in plan.group_list)}")
    lines.append(f"ts_s = {plan.ts!r}")
    lines.append(f"td_s = {plan.td!r}")
    lines.append(f"overhead = {plan.overhead!r}")
    lines.append(f"local_errors = {plan.local_errors!r}")
    lines.append(f"accumulated_errors = {plan.accumulated_errors!r}")
    if plan.ts_halved is not None:
        lines.append(f"ts_halved_s = {plan.ts_halved!r}  # approximate, combined sub-phases")
    return "\n".join(lines) + "\n"
