"""One round's fault edit, one edge at a time, kept as an oracle.

:meth:`repro.network.faults.RoundFaultPlan.bind_edges` turns a round's
canonical CSR into the effective CSR the engines deliver over, and
:meth:`~repro.network.faults.RoundFaultPlan.account` scores the round's
five fault counters.  Both are vectorised.  This module restates the same
rules in plain Python over lists, straight from the documented contract,
and imports nothing from ``repro``:

* draw order on the fault stream: one Bernoulli per edge for loss (only
  when the probability is non-zero), then one per edge for duplication
  (likewise), then whatever the adaptive strategy draws, then the collision
  round's single Bernoulli (only when ``0 < p < 1``);
* an edge is *viable* when neither endpoint is down and, while a
  partition window is open, both endpoints share ``uid % groups``;
* a Byzantine sender's copy is *rejected* unless replayed traffic is
  substituted for it;
* on a collision round a receiver with two or more *delivering* edges
  (viable, not lost, not rejected, sender transmitting) keeps none of
  them, or with capture only the first, i.e. the lowest-uid sender;
* a kept edge appears once, or twice when duplicated, in CSR order.

``tests/test_fault_edit_oracle.py`` drives the real plan and this
reference from identically seeded generators and compares the results.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ReferenceEdit:
    """The effective CSR of one round plus the per-edge fates behind it."""

    indices: list[int]
    indptr: list[int]
    receivers: list[int]
    down: list[bool]
    senders: list[int]
    viable: list[bool]
    lost: list[bool]
    extra: list[bool]
    byzantine: list[bool]
    rejected: list[bool]
    collided: list[bool]


def edit(
    indices,
    indptr,
    rng,
    *,
    down,
    active,
    loss=0.0,
    duplication=0.0,
    strategy_draws=0,
    targeted=None,
    groups=None,
    byzantine=(),
    replay=False,
    collision=None,
):
    """Apply one round's faults to the canonical CSR ``(indices, indptr)``.

    ``down`` and ``active`` are per-node booleans and ``targeted`` a
    per-edge boolean (or None); the strategy draws ``strategy_draws``
    uniforms it does not use.
    ``groups`` is the partition's group count while a window is open, else
    None.  ``collision`` is ``(probability, capture)`` or None.
    """
    indices = [int(v) for v in indices]
    indptr = [int(v) for v in indptr]
    n = len(indptr) - 1
    edges = len(indices)
    receivers = [r for r in range(n) for _ in range(indptr[r], indptr[r + 1])]
    lost = [rng.random() < loss for _ in range(edges)] if loss > 0 else [False] * edges
    extra = (
        [rng.random() < duplication for _ in range(edges)]
        if duplication > 0
        else [False] * edges
    )
    for _ in range(strategy_draws):
        rng.random()
    if targeted is not None:
        lost = [a or bool(b) for a, b in zip(lost, targeted)]
    down = [bool(d) for d in down]
    viable = []
    for s, r in zip(indices, receivers):
        ok = not down[s] and not down[r]
        if groups is not None and s % groups != r % groups:
            ok = False
        viable.append(ok)
    byz = set(byzantine)
    is_byzantine = [s in byz for s in indices]
    rejected = [b and not replay for b in is_byzantine]
    collided = [False] * edges
    if collision is not None:
        probability, capture = collision
        if probability >= 1.0:
            hit = True
        elif probability > 0.0:
            hit = rng.random() < probability
        else:
            hit = False
        if hit:
            for r in range(n):
                delivering = [
                    i
                    for i in range(indptr[r], indptr[r + 1])
                    if viable[i]
                    and not lost[i]
                    and not rejected[i]
                    and active[indices[i]]
                    and not down[indices[i]]
                ]
                if len(delivering) >= 2:
                    for rank, i in enumerate(delivering):
                        collided[i] = not (capture and rank == 0)
    eff_indices: list[int] = []
    eff_receivers: list[int] = []
    eff_indptr = [0]
    for r in range(n):
        for i in range(indptr[r], indptr[r + 1]):
            if viable[i] and not lost[i] and not rejected[i] and not collided[i]:
                copies = 2 if extra[i] else 1
                eff_indices.extend([indices[i]] * copies)
                eff_receivers.extend([r] * copies)
        eff_indptr.append(len(eff_indices))
    return ReferenceEdit(
        indices=eff_indices,
        indptr=eff_indptr,
        receivers=eff_receivers,
        down=down,
        senders=indices,
        viable=viable,
        lost=lost,
        extra=extra,
        byzantine=is_byzantine,
        rejected=rejected,
        collided=collided,
    )


def account(fates: ReferenceEdit, sending) -> dict[str, int]:
    """The round's five fault counters, given which nodes broadcast.

    Only a viable edge whose sender broadcasts counts.  A lost one is one
    dropped delivery; otherwise each of its copies (two when duplicated)
    counts as collided if it collided, and else as corrupted when the
    sender is Byzantine and as discarded when the copy was rejected; a
    delivered duplicate also counts once as duplicated.
    """
    counters = dict(dropped=0, duplicated=0, corrupted=0, discarded=0, collided=0)
    for i, s in enumerate(fates.senders):
        if not (sending[s] and fates.viable[i]):
            continue
        copies = 2 if fates.extra[i] else 1
        if fates.lost[i]:
            counters["dropped"] += 1
        elif fates.collided[i]:
            counters["collided"] += copies
        else:
            counters["duplicated"] += copies - 1
            if fates.byzantine[i]:
                counters["corrupted"] += copies
            if fates.rejected[i]:
                counters["discarded"] += copies
    return counters
