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


def make_plan(cfg: ChainConfig, halved_sync: bool = False) -> tuple[list, dict]:
    """The schedule rows and the summary values of one chain, as `serialize_plan` prints them.

    Rows are (phase, step, group, left_node, right_node, start_s, end_s):
    the right node syncs to the left one.  Sub-phase 1 runs the M =
    floor((N-1)/2) basic groups j = (2j-1, 2j, 2j+1) one after another,
    group j syncing its odd nodes; sub-phase 2 chains the even nodes ((2,4),
    (4,6), ...), which also brings in the last node when N is even.  N-2
    steps in all, so ts = (N-2)*bg_sync_time.

    The summary maps num_nodes, num_groups, groups (the (j, members) pairs),
    ts_s, td_s = period - ts, overhead = ts/period, local_errors (what every
    relay detects under, whatever N) and accumulated_errors (M times the local
    triple) to their values, in print order.  halved_sync adds ts_halved_s, the
    rough ts/2 estimate of a combined schedule without sub-phase 2 (no
    construction given here).
    """
    n, bg = cfg.num_nodes, cfg.bg_sync_time
    m = (n - 1) // 2
    groups = [(j, (2 * j - 1, 2 * j, 2 * j + 1)) for j in range(1, m + 1)]
    slots = [(1, j, j, a, b) for j, (a, _, b) in groups]
    slots += [(2, m + i, i, 2 * i, 2 * i + 2) for i in range(1, n // 2)]
    rows = []
    t = 0.0
    for slot in slots:
        rows.append(slot + (t, t + bg))
        t += bg
    ts = (n - 2) * bg
    summary = {"num_nodes": n, "num_groups": m, "groups": groups, "ts_s": ts,
               "td_s": cfg.period - ts, "overhead": ts / cfg.period,
               "local_errors": tuple(cfg.local_errors),
               "accumulated_errors": tuple(m * e for e in cfg.local_errors)}
    if halved_sync:
        summary["ts_halved_s"] = ts / 2
    return rows, summary


def serialize_plan(rows, summary) -> str:
    """Deterministic text of `make_plan`'s rows and summary: a CSV block, then `key = value` lines.

    Values print as their repr, groups as `BG1:[1, 2, 3]; BG2:[3, 4, 5]`.
    """
    lines = ["phase,step,group,left_node,right_node,start_s,end_s"]
    lines += [",".join(map(repr, row)) for row in rows]
    lines += ["", "# summary"]
    for key, val in summary.items():
        if key == "groups":
            text = "; ".join(f"BG{j}:{list(members)}" for j, members in val)
        elif key == "ts_halved_s":
            text = f"{val!r}  # approximate, combined sub-phases"
        else:
            text = repr(val)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
