"""Property tests (hypothesis): the static flow analysis vs the machine.

Three contracts over randomized designs and capacity assignments:

* the maximum cycle mean equals the simulator's measured long-run cycle
  time *bit-for-bit* — dyadic-rational services make every path sum an
  exact float, so static and dynamic land on the same number;
* ``minimal_buffer_sizing`` is irreducible: decrementing any returned
  depth deadlocks the array or pushes the cycle time above the target;
* ``detect_deadlock`` agrees with the simulator's eager
  :class:`ChannelDeadlockError` on every sampled capacity map;
* ``certify_mcm`` accepts Howard's answer on every live dyadic design
  and capacity map (unbounded, multi-SCC ones included), and that answer
  equals the Karp oracle's.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.dataflow import (
    ChannelDeadlockError,
    SelfTimedProgramSimulator,
    per_cell_service,
)
from repro.sta.design import random_design
from repro.sta.flow import (
    certify_mcm,
    detect_deadlock,
    flow_graph,
    mcm_howard,
    mcm_karp,
    minimal_buffer_sizing,
    simulate_steady_state,
)

seeds = st.integers(min_value=0, max_value=10_000)


def _dyadic_services(comm, seed):
    """Per-cell services on the 1/64 grid in [1, 2): exact dyadics."""
    rng = random.Random(f"flow-prop|{seed}")
    return {c: 1.0 + rng.randrange(64) / 64 for c in comm.nodes()}


@given(seed=seeds, cap=st.sampled_from([None, 2, 3]))
@settings(max_examples=25, deadline=None)
def test_mcm_equals_simulated_rate_bit_for_bit(seed, cap):
    design = random_design(seed)
    comm = design.array.comm
    service = _dyadic_services(comm, seed)
    fg = flow_graph(comm, service, 0.5, cap)
    cycle = mcm_howard(fg)
    assert cycle is not None
    assert cycle.cycle_time == mcm_karp(fg)
    steady = simulate_steady_state(comm, service, 0.5, cap)
    assert cycle.cycle_time == steady.cycle_time


@given(seed=seeds, slack_eighths=st.integers(min_value=0, max_value=4))
@settings(max_examples=15, deadline=None)
def test_sizing_is_minimal(seed, slack_eighths):
    design = random_design(seed)
    comm = design.array.comm
    service = _dyadic_services(comm, seed)
    base = mcm_howard(flow_graph(comm, service, 0.5, None))
    assert base is not None
    target = base.cycle_time + slack_eighths / 8
    result = minimal_buffer_sizing(comm, service, 0.5, target)
    assert result.cycle_time <= target
    for edge, depth in result.capacities.items():
        if depth <= 1:
            continue
        trial = dict(result.capacities)
        trial[edge] = depth - 1
        if detect_deadlock(comm, trial) is not None:
            continue  # the decrement deadlocks: reduction blocked
        shrunk = mcm_howard(flow_graph(comm, service, 0.5, trial))
        assert shrunk is not None
        assert shrunk.cycle_time > target, (
            f"capacity on {edge!r} reducible at target {target}"
        )


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_deadlock_detector_matches_simulator(seed):
    design = random_design(seed)
    program = design.program
    comm = program.array.comm
    rng = random.Random(f"flow-deadlock-prop|{seed}")
    cap = {e: rng.randint(1, 3) for e in comm.edges()}
    service = _dyadic_services(comm, seed)
    cycle = detect_deadlock(comm, cap)
    raised = False
    try:
        SelfTimedProgramSimulator(
            program, service=per_cell_service(service), wire_delay=0.5,
            channel_capacity=cap,
        ).run()
    except ChannelDeadlockError:
        raised = True
    assert raised == (cycle is not None)
    if cycle is not None:
        assert all(cap[(u, v)] == 1 for u, v in cycle)


@given(seed=seeds, cap_kind=st.sampled_from(["none", "uniform", "map"]))
@settings(max_examples=30, deadline=None)
def test_certificate_accepts_howard_on_live_dyadic_designs(seed, cap_kind):
    design = random_design(seed)
    comm = design.array.comm
    rng = random.Random(f"flow-cert-prop|{seed}")
    cap = {
        "none": None,
        "uniform": rng.randint(1, 4),
        "map": {e: rng.randint(1, 4) for e in comm.edges()},
    }[cap_kind]
    if detect_deadlock(comm, cap) is not None:
        return
    fg = flow_graph(comm, _dyadic_services(comm, seed), 0.5, cap)
    cycle = mcm_howard(fg)
    assert cycle is not None
    assert certify_mcm(fg, cycle) is True
    assert cycle.cycle_time == mcm_karp(fg)
