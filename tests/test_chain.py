import math

import pytest

from pncsync.chain import ChainConfig, make_plan, serialize_plan

LOCAL = (0.1, 0.02, 0.001)


def cfg(n, bg=1.0, period=1000.0, local=LOCAL):
    return ChainConfig(num_nodes=n, bg_sync_time=bg, period=period, local_errors=local)


def groups(n):
    return make_plan(cfg(n))[1]["groups"]


def test_partition_base_case():
    assert groups(3) == [(1, (1, 2, 3))]


def test_partition_five_nodes():
    assert groups(5) == [(1, (1, 2, 3)), (2, (3, 4, 5))]


def test_partition_even_n():
    assert len(groups(6)) == 2  # floor((6-1)/2)
    assert groups(6) == [(1, (1, 2, 3)), (2, (3, 4, 5))]


def test_group_arithmetic_exhaustive():
    for n in range(3, 201):
        rows, plan = make_plan(cfg(n))
        assert len(plan["groups"]) == plan["num_groups"] == (n - 1) // 2
        assert plan["ts_s"] == (n - 2) * 1.0
        assert plan["td_s"] == 1000.0 - plan["ts_s"]
        assert plan["overhead"] == pytest.approx(plan["ts_s"] / 1000.0)
        assert len(rows) == n - 2


def test_adjacent_groups_share_exactly_one_odd_node():
    for n in range(5, 60):
        g = groups(n)
        for (_, a), (_, b) in zip(g, g[1:]):
            shared = set(a) & set(b)
            assert len(shared) == 1
            assert next(iter(shared)) % 2 == 1


def test_every_node_covered_by_the_plan():
    # odd N: the basic groups already cover everyone; even N: the last node
    # joins through the even-node sub-phase
    for n in range(3, 60):
        rows, plan = make_plan(cfg(n))
        covered = set()
        for _, members in plan["groups"]:
            covered |= set(members)
        for _, _, _, left, right, _, _ in rows:
            covered |= {left, right}
        assert covered == set(range(1, n + 1))


def test_plan_schedule_is_sequential_and_two_phase():
    rows, _ = make_plan(cfg(7))
    assert [r[0] for r in rows] == [1, 1, 1, 2, 2]
    for i, (_, step, _, _, _, start, end) in enumerate(rows):
        assert step == i + 1
        assert start == pytest.approx(i * 1.0)
        assert end == pytest.approx((i + 1) * 1.0)
    # sub-phase 1 syncs odd pairs, sub-phase 2 even pairs, right to left
    assert [r[3:5] for r in rows] == [(1, 3), (3, 5), (5, 7), (2, 4), (4, 6)]


def test_plan_known_example():
    _, plan = make_plan(cfg(5, bg=1.0, period=100.0))
    assert plan["num_groups"] == 2
    assert plan["ts_s"] == 3.0
    assert plan["overhead"] == pytest.approx(0.03)


def test_accumulated_errors_scale_with_group_count():
    _, plan = make_plan(cfg(9))
    assert plan["num_groups"] == 4
    assert plan["accumulated_errors"] == pytest.approx((0.4, 0.08, 0.004))
    _, plan3 = make_plan(cfg(3))
    assert plan3["accumulated_errors"] == pytest.approx(LOCAL)


def test_infeasible_plan_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        make_plan(cfg(12, bg=1.0, period=10.0))


def test_effective_errors_independent_of_n_and_relay():
    # a relay hears only its two neighbours, so every relay of every chain
    # detects under the local triple: the plan's local_errors and its line
    for n in range(3, 51):
        rows, plan = make_plan(cfg(n))
        assert plan["local_errors"] == LOCAL
        assert f"local_errors = {LOCAL!r}" in serialize_plan(rows, plan).splitlines()


def test_accumulated_grows_linearly_but_local_does_not():
    plans = {n: make_plan(cfg(n))[1] for n in (3, 11, 101)}
    accs = [plans[n]["accumulated_errors"][0] for n in (3, 11, 101)]
    assert accs == [0.1, 0.5, 5.0]
    assert all(plans[n]["local_errors"] == LOCAL for n in plans)


def test_serialization_deterministic_and_parsable():
    rows, plan = make_plan(cfg(6), halved_sync=True)
    text = serialize_plan(rows, plan)
    assert text == serialize_plan(*make_plan(cfg(6), halved_sync=True))
    lines = text.splitlines()
    assert lines[0] == "phase,step,group,left_node,right_node,start_s,end_s"
    step_lines = lines[1:1 + len(rows)]
    assert all(len(l.split(",")) == 7 for l in step_lines)
    assert "ts_halved_s" in text
    assert "num_nodes = 6" in text
    assert "ts_halved_s" not in serialize_plan(*make_plan(cfg(6)))


def test_config_validation():
    nan, inf = math.nan, math.inf
    for args in ((0, 1.0, 10.0, LOCAL), (1, 1.0, 10.0, LOCAL), (2, 1.0, 10.0, LOCAL),
                 (5, 0.0, 10.0, LOCAL), (5, 1.0, -1.0, LOCAL),
                 (5, 1.0, 10.0, (0.1, 0.2)), (5, nan, 10.0, LOCAL), (5, inf, 10.0, LOCAL),
                 (5, 1.0, nan, LOCAL), (5, 1.0, inf, LOCAL), (5, 1.0, 10.0, (0.1, nan, 0.001)),
                 (5, 1.0, 10.0, (0.1, 0.02, -inf)), (12, 1.0, 10.0, LOCAL),
                 (5, 1.0, 10.0, (-0.1, 0.02, -0.001)), (5, 1.0, 10.0, (0.1, -1e-300, 0.0))):
        with pytest.raises(ValueError):
            ChainConfig(*args)
