"""The fault plan's effective-CSR edit against a per-edge reference.

:class:`~repro.network.faults.RoundFaultPlan` edits each round's canonical
CSR with numpy masks.  ``tests/oracles/fault_edit.py`` restates the same
rules one edge at a time in plain Python and shares no code with it.  Each
example draws a random canonical CSR and a random mix of every axis the
edit handles — crashed nodes, the compose-time ``active`` mask, loss,
duplication, an open or closed partition window, malformed and replayed
Byzantine senders, a collision round with and without capture, and a
strategy that targets a fixed edge mask and spends some draws — then runs ``begin_round``/``bind_edges``/``account`` from a
seeded :class:`~repro.network.faults.BoundFaults` and the reference from
an identically seeded generator.  The effective ``indices``, ``indptr``
and ``receivers``, the round's down set and all five counters must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    CollisionModel,
    FaultModel,
    FaultStrategy,
    PartitionModel,
    SpanGuard,
    Topology,
)
from tests.oracles import fault_edit


@dataclass(frozen=True)
class FixedTargets(FaultStrategy):
    """Test double: the same targeted mask every round.

    It also draws ``draws`` uniforms it ignores, so a strategy's place in
    the fault stream's draw order is observable.
    """

    targeted: tuple[bool, ...] | None = None
    draws: int = 0

    def plan_round(self, round_index, senders, receivers, indptr, down, rng, state, erased):
        rng.random(self.draws)
        return None if self.targeted is None else np.array(self.targeted, dtype=bool)


PROBABILITIES = st.sampled_from([0.0, 0.3, 0.7, 1.0])


@st.composite
def rounds(draw):
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    masks = [0] * n
    for (u, v), keep in zip(pairs, present):
        if keep:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    # 0: ordinary, 1: crashed from round 0, 2: Byzantine sender.
    roles = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    edges = 2 * sum(present)
    targeted = draw(
        st.none() | st.lists(st.booleans(), min_size=edges, max_size=edges)
    )
    return dict(
        n=n,
        masks=masks,
        roles=roles,
        active=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        round_index=draw(st.integers(0, 3)),
        loss=draw(PROBABILITIES),
        duplication=draw(PROBABILITIES),
        window=draw(st.sampled_from([None, (0, 2), (2, 4), (1, 3)])),
        groups=draw(st.integers(2, 3)),
        replay=draw(st.booleans()),
        collision=draw(
            st.none() | st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.booleans())
        ),
        targeted=targeted,
        strategy_draws=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _plan_and_reference(case, *, with_strategy=True, canonical_receivers=True):
    n = case["n"]
    topology = Topology(n, case["masks"])
    indices, indptr = topology.csr_adjacency()
    down_uids = [u for u, role in enumerate(case["roles"]) if role == 1]
    byzantine = [u for u, role in enumerate(case["roles"]) if role == 2]
    strategy = None
    if with_strategy:
        strategy = FixedTargets(
            targeted=None if case["targeted"] is None else tuple(case["targeted"]),
            draws=case["strategy_draws"],
        )
    window = case["window"]
    model = FaultModel(
        loss=case["loss"],
        duplication=case["duplication"],
        crashes=tuple((uid, 0) for uid in down_uids),
        byzantine=tuple(byzantine),
        byzantine_mode="replay" if case["replay"] else "malformed",
        partitions=(
            None
            if window is None
            else PartitionModel(windows=(window,), groups=case["groups"])
        ),
        strategy=strategy,
        collisions=(
            None
            if case["collision"] is None
            else CollisionModel(
                probability=case["collision"][0], capture=case["collision"][1]
            )
        ),
    )
    bound = model.bind(n, np.random.default_rng(case["seed"]))
    if case["replay"]:
        # A replayed vector verifies and is substituted, so it flows; a
        # malformed run keeps no guard (the protocol cannot verify coded
        # traffic), so every Byzantine copy is discarded and begin_round
        # spends no draw on out-of-span vectors.
        bound.attach_guard(SpanGuard(4, [1]))
    round_index = case["round_index"]
    plan = bound.begin_round(round_index)
    active = np.array(case["active"], dtype=bool)
    eff_indices, eff_indptr = plan.bind_edges(
        indices,
        indptr,
        active=active,
        receivers=(
            topology.csr_receivers()
            if canonical_receivers
            else np.repeat(np.arange(n), np.diff(indptr))
        ),
    )
    open_window = window is not None and window[0] <= round_index < window[1]
    reference = fault_edit.edit(
        indices.tolist(),
        indptr.tolist(),
        np.random.default_rng(case["seed"]),
        down=[u in down_uids for u in range(n)],
        active=case["active"],
        loss=case["loss"],
        duplication=case["duplication"],
        strategy_draws=case["strategy_draws"] if with_strategy else 0,
        targeted=case["targeted"] if with_strategy else None,
        groups=case["groups"] if open_window else None,
        byzantine=byzantine,
        replay=case["replay"] and bool(byzantine),
        collision=case["collision"],
    )
    return plan, (eff_indices, eff_indptr), reference, active


def _assert_matches(plan, effective, reference, active):
    eff_indices, eff_indptr = effective
    assert eff_indices.tolist() == reference.indices
    assert eff_indptr.tolist() == reference.indptr
    assert plan.receivers.tolist() == reference.receivers
    assert plan.down.tolist() == reference.down
    sending = active & ~plan.down
    stats = plan.account(sending)
    expected = fault_edit.account(reference, sending.tolist())
    assert {
        "dropped": stats.dropped,
        "duplicated": stats.duplicated,
        "corrupted": stats.corrupted,
        "discarded": stats.discarded,
        "collided": stats.collided,
    } == expected


@settings(deadline=None, max_examples=200)
@given(case=rounds())
def test_edit_and_account_match_the_per_edge_reference(case):
    _assert_matches(*_plan_and_reference(case))


@settings(deadline=None, max_examples=60)
@given(case=rounds(), canonical_receivers=st.booleans())
def test_edit_without_a_strategy_matches_the_per_edge_reference(case, canonical_receivers):
    _assert_matches(
        *_plan_and_reference(case, with_strategy=False, canonical_receivers=canonical_receivers)
    )


def test_the_reference_replays_the_draw_order():
    # Loss, duplication, the strategy's draws and the collision Bernoulli
    # all spend from one stream: with every axis on, the reference and the
    # plan must leave their generators at the same position.
    case = dict(
        n=4,
        masks=[0b1110, 0b1101, 0b1011, 0b0111],
        roles=[0, 0, 0, 0],
        active=[True] * 4,
        round_index=0,
        loss=0.3,
        duplication=0.3,
        window=None,
        groups=2,
        replay=False,
        collision=(0.5, False),
        targeted=None,
        strategy_draws=2,
        seed=11,
    )
    plan, effective, reference, active = _plan_and_reference(case)
    _assert_matches(plan, effective, reference, active)
    replayed = np.random.default_rng(11)
    replayed.random(12 + 12 + 2 + 1)
    assert plan.bound.rng.random() == replayed.random()
