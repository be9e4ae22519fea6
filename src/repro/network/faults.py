"""Composable fault injection for the dissemination engines.

The adversary axis controls *topology*; this module adds the orthogonal
*fault* axis the gossip literature stress-tests against:

* **loss** — per-edge Bernoulli erasure of one round's (sender, receiver)
  delivery (a unicast erasure / collision model, not a sender failure: the
  same broadcast can reach some neighbours and miss others);
* **duplication** — per-edge Bernoulli repetition: the receiver processes
  the same message twice that round (re-broadcast echo);
* **crashes** — per-node radio death over scheduled intervals: a crashed
  node neither transmits nor receives.  ``(uid, down_round)`` entries are
  permanent (the node never re-attaches); ``(uid, down_round, up_round)``
  entries are crash–recovery intervals — the node rejoins at ``up_round``
  with its pre-crash knowledge frozen (stale-state rejoin), having missed
  every round in ``[down_round, up_round)``;
* **partitions** — a :class:`PartitionModel` splits the node set into
  groups for scheduled round windows: cross-group edges simply do not
  exist while a window is open, and the network heals when it closes;
* **adaptive strategies** — a :class:`FaultStrategy` targets structure
  instead of flipping coins: bridge/cut-edge loss
  (:class:`BridgeLossStrategy`), highest-degree crash targeting
  (:class:`TargetedCrashStrategy`), and budgeted adversaries that spend a
  global loss budget on spanning-structure edges
  (:class:`BudgetedLossStrategy`);
* **Byzantine coded senders** — nodes whose coded wire traffic is replaced
  by adversarial GF(2) vectors: ``"malformed"`` vectors lie outside the
  source span (receivers verify against a :class:`SpanGuard` — the
  homomorphic-signature model — and discard them), ``"replay"`` re-sends a
  fixed in-span source vector (it verifies, so receivers insert it; it is
  simply almost never innovative);
* **radio collisions** — a :class:`CollisionModel` applies the classic
  radio-network reception rule per round: a receiver hearing two or more
  simultaneous senders over the effective CSR gets nothing (or, with
  ``capture``, keeps only the lowest-uid sender);
* **quorum membership** — a :class:`QuorumModel` declares ``f`` fake nodes
  among ``n >= 2f + 1`` (the ByzQuorum membership shape): fake nodes run
  the protocol but are not honest quorum members, never originate honest
  tokens, and are excluded from survivor metrics and stop rules;
* **state-aware strategies** — strategies with ``wants_state = True``
  additionally receive a read-only :class:`StateView` of protocol progress
  (per-node knowledge counts and coded ranks) and can target the
  least-knowledgeable node (:class:`StragglerIsolationStrategy`) or the
  knowledge frontier (:class:`FrontierLossStrategy`).

A :class:`FaultModel` is a frozen, picklable description.  The runner binds
it once per run (:meth:`FaultModel.bind`) against a dedicated spawned rng
stream, and each round proceeds through a :class:`RoundFaultPlan`:

1. ``begin_round`` — draws the Byzantine wire vectors (topology-independent,
   ascending uid) and snapshots which nodes are down this round from the
   crash intervals;
2. ``bind_edges`` — consults the adaptive strategy (which sees the round's
   canonical CSR and may target edges or crash nodes), draws per-edge
   loss/duplication, applies the radio collision rule to what would have
   been delivered, and edits everything into the *effective* CSR: crashed
   endpoints, partition-crossing edges, lost edges and collided edges
   removed, duplicated edges repeated adjacently.

Both engines consume the same effective CSR (and the identical draw
order), which is what keeps faulted :class:`~repro.simulation.metrics.RunMetrics`
byte-identical across kernel and mask.  Because strategies may crash
nodes mid-`bind_edges`, engines must read ``plan.down`` only *after*
``bind_edges`` has run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bits import iter_bits, packed_to_masks, set_bits, word_count
from ..gf import GF2Basis
from .dynamics import spanning_structure

__all__ = [
    "BoundFaults",
    "BridgeLossStrategy",
    "BudgetedLossStrategy",
    "CollisionModel",
    "FaultModel",
    "FaultStrategy",
    "FrontierLossStrategy",
    "PartitionModel",
    "QuorumModel",
    "RoundFaultPlan",
    "RoundFaultStats",
    "SpanGuard",
    "StateView",
    "StragglerIsolationStrategy",
    "TargetedCrashStrategy",
    "crash_schedule_from_churn",
]

_BYZANTINE_MODES = ("malformed", "replay")
_NEVER = np.iinfo(np.int64).max


# ----------------------------------------------------------------------
# adaptive strategies (the FaultStrategy seam)
# ----------------------------------------------------------------------
class StateView:
    """Read-only protocol-progress snapshot for state-aware strategies.

    The engines expose exactly the two vectorized columns the trace layer
    already extracts — per-node knowledge counts and coded generation ranks
    — snapshotted after compose and before delivery, so the view is
    engine-invariant by the same parity contract that pins trace content.
    Strategies must treat the arrays as read-only.
    """

    __slots__ = ("known_counts", "coded_ranks")

    def __init__(self, known_counts, coded_ranks):
        self.known_counts = np.asarray(known_counts, dtype=np.int64)
        self.coded_ranks = np.asarray(coded_ranks, dtype=np.int64)

    def progress(self) -> np.ndarray:
        """Per-node progress score: tokens known or coded rank, whichever
        is larger (a broadcasting node's knowledge rides in its rank)."""
        return np.maximum(self.known_counts, self.coded_ranks)


class FaultStrategy:
    """Declarative adaptive fault adversary behind :class:`FaultModel`.

    A strategy is frozen plain data (so scenario fault factories pickle into
    sweep workers, REP201) and is *bound* once per run.  The bound state's
    ``plan_round`` is consulted inside :meth:`RoundFaultPlan.bind_edges`,
    after the i.i.d. loss/duplication draws but before viability is
    computed, and returns ``(extra_lost, crashed)``:

    * ``extra_lost`` — per-edge boolean over the round's canonical CSR (or
      ``None``): additional targeted erasures, OR-ed into the Bernoulli
      losses and counted as dropped deliveries;
    * ``crashed`` — uids the strategy crashes permanently *this round*
      (effective immediately: the node neither sends nor receives from the
      current round on, and leaves the survivor population).

    Any randomness must come from the ``rng`` handed in (the run's dedicated
    fault stream) — strategies drawing from global numpy state break the
    3-engine byte-identity contract (and trip lint rule REP102).

    Strategies that target protocol *progress* instead of topology set the
    class attribute ``wants_state = True``; their bound ``plan_round`` then
    receives an extra read-only :class:`StateView` argument.  Every round
    kernel supplies both of its columns, so such strategies run on either
    engine.
    """

    #: Whether plan_round needs a StateView of protocol progress.
    wants_state = False

    def bind(self, n: int) -> "BoundStrategy":
        """Create the per-run mutable state for a network of ``n`` nodes."""
        raise NotImplementedError


class BoundStrategy:
    """Per-run mutable state of a :class:`FaultStrategy`."""

    def plan_round(
        self,
        round_index: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        indptr: np.ndarray,
        down: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray | None, tuple[int, ...]]:
        raise NotImplementedError


def _live_edge_row_ints(
    senders: np.ndarray,
    receivers: np.ndarray,
    down: np.ndarray,
    n: int,
) -> tuple[np.ndarray, list[int]]:
    """The round's live subgraph, packed and as python-int adjacency rows.

    Only :class:`BudgetedLossStrategy` needs these, for its BFS spanning
    forest.  Edges with a down endpoint are excluded; the packed matrix feeds
    :func:`~repro.network.dynamics.spanning_structure` and the int rows
    let :func:`_forest_edges` drop its repair edges.
    """
    live = ~down[senders] & ~down[receivers]
    packed = np.zeros((n, word_count(n)), dtype=np.uint64)
    set_bits(packed, (receivers[live],), senders[live])
    return packed, packed_to_masks(packed)


def _forest_edges(packed: np.ndarray, rows: list[int], n: int) -> list[tuple[int, int]]:
    """Spanning-forest edges (u < v) that exist in the live subgraph.

    :func:`spanning_structure` returns each component's BFS tree plus repair
    edges between component representatives; only edges also present in the
    input are real, so the repair edges are filtered back out.
    """
    tree = packed_to_masks(spanning_structure(packed, n))
    edges: list[tuple[int, int]] = []
    for u in range(n):
        row = tree[u] & rows[u]  # keep only edges that exist in the live subgraph
        # each undirected edge once, as (u, v) with u < v
        edges.extend((u, u + 1 + v) for v in iter_bits(row >> (u + 1)))
    return edges


def _bridges(
    indices: np.ndarray, indptr: np.ndarray, down: np.ndarray, n: int
) -> list[tuple[int, int]]:
    """Cut edges of the round's live subgraph, as sorted ``(u, v)`` with u < v.

    One iterative low-link DFS (Tarjan) over the canonical CSR, linear in
    ``n + edges``: tree edge ``(p, u)`` is a bridge exactly when no back
    edge from ``u``'s subtree reaches ``p`` or above (``low[u] > order[p]``).
    Edges with a down endpoint are skipped.  The parent is skipped by
    vertex, which is exact because the canonical CSR has no parallel edges.
    The loop runs over plain python ints from one ``tolist`` per array.
    """
    neighbours = indices.tolist()
    start = indptr.tolist()
    dead = down.tolist()
    cursor = start[:-1]  # next unexplored CSR slot per vertex
    order = [0] * n  # discovery time, 0 = unvisited
    low = [0] * n
    parent = [-1] * n
    clock = 0
    bridges: list[tuple[int, int]] = []
    for root in range(n):
        if order[root] or dead[root]:
            continue
        clock += 1
        order[root] = low[root] = clock
        stack = [root]
        while stack:
            u = stack[-1]
            i = cursor[u]
            end = start[u + 1]
            while i < end:
                v = neighbours[i]
                i += 1
                if dead[v] or v == parent[u]:
                    continue
                if order[v]:
                    if order[v] < low[u]:
                        low[u] = order[v]
                    continue
                cursor[u] = i
                parent[v] = u
                clock += 1
                order[v] = low[v] = clock
                stack.append(v)
                break
            else:
                stack.pop()
                p = parent[u]
                if p >= 0:
                    if low[u] < low[p]:
                        low[p] = low[u]
                    if low[u] > order[p]:
                        bridges.append((p, u) if p < u else (u, p))
    bridges.sort()
    return bridges


def _edge_positions_lost(
    senders: np.ndarray,
    receivers: np.ndarray,
    n: int,
    pairs: list[tuple[int, int]],
) -> np.ndarray:
    """Boolean over the CSR edge list marking both directions of ``pairs``.

    The canonical CSR's keys ``receiver * n + sender`` ascend strictly
    (receivers in order, senders ascending within a segment, no parallel
    edges), so one ``searchsorted`` finds every wanted slot.  A pair that
    is not an edge of the CSR raises ``ValueError``.
    """
    keys = receivers.astype(np.int64) * n + senders
    wanted = np.asarray(
        [v * n + u for u, v in pairs] + [u * n + v for u, v in pairs],
        dtype=np.int64,
    )
    slots = np.searchsorted(keys, wanted)
    found = slots < keys.size
    found[found] = keys[slots[found]] == wanted[found]
    if not found.all():
        missing = wanted[~found][0]
        raise ValueError(
            f"({missing % n}, {missing // n}) is not an edge of the round's CSR"
        )
    lost = np.zeros(keys.size, dtype=bool)
    lost[slots] = True
    return lost


@dataclass(frozen=True)
class BridgeLossStrategy(FaultStrategy):
    """Erase bridges: each round, every cut edge of the live subgraph is
    independently lost with ``probability``.

    Bridges are found by one linear low-link DFS over the round's CSR
    (:func:`_bridges`), skipping edges with a down endpoint.  One Bernoulli
    is drawn per bridge in sorted ``(u, v)`` order, and a hit erases both
    directed copies of the link for the round.  This is the worst place a
    given loss rate can land — a lost bridge partitions the round's graph.
    """

    probability: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    def bind(self, n: int) -> "BoundStrategy":
        return _BoundBridgeLoss(self, n)


class _BoundBridgeLoss(BoundStrategy):
    def __init__(self, strategy: BridgeLossStrategy, n: int):
        self.strategy = strategy
        self.n = n

    def plan_round(self, round_index, senders, receivers, indptr, down, rng):
        n = self.n
        bridges = _bridges(senders, indptr, down, n)
        if not bridges:
            return None, ()
        hit = rng.random(len(bridges)) < self.strategy.probability
        chosen = [edge for edge, h in zip(bridges, hit.tolist()) if h]
        if not chosen:
            return None, ()
        return _edge_positions_lost(senders, receivers, n, chosen), ()


@dataclass(frozen=True)
class TargetedCrashStrategy(FaultStrategy):
    """Permanently crash the highest-degree live node on a schedule.

    Starting at round ``start`` and every ``period`` rounds after, the node
    with the most live neighbours (lowest uid on ties) is crashed, up to
    ``limit`` victims total.  Deterministic — no randomness is consumed, so
    the strategy composes with any stochastic axis without perturbing its
    draws.
    """

    start: int = 0
    period: int = 1
    limit: int = 1

    def __post_init__(self):
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if self.limit < 0:
            raise ValueError(f"limit must be >= 0, got {self.limit}")

    def bind(self, n: int) -> "BoundStrategy":
        return _BoundTargetedCrash(self, n)


class _BoundTargetedCrash(BoundStrategy):
    def __init__(self, strategy: TargetedCrashStrategy, n: int):
        self.strategy = strategy
        self.n = n
        self.victims = 0

    def plan_round(self, round_index, senders, receivers, indptr, down, rng):
        s = self.strategy
        if (
            self.victims >= s.limit
            or round_index < s.start
            or (round_index - s.start) % s.period
        ):
            return None, ()
        live = ~down[senders] & ~down[receivers]
        degree = np.bincount(receivers[live], minlength=self.n).astype(np.int64)
        # (degree, lowest uid) priority over live nodes only.
        key = degree * self.n + (self.n - 1 - np.arange(self.n, dtype=np.int64))
        key[down] = -1
        uid = int(np.argmax(key))
        if key[uid] < 0:
            return None, ()
        self.victims += 1
        return None, (uid,)


@dataclass(frozen=True)
class BudgetedLossStrategy(FaultStrategy):
    """Spend a global loss budget where it hurts most.

    Each round the adversary erases up to ``per_round`` spanning-forest
    links of the live subgraph (both directions each), lowest ``(u, v)``
    first, until the run-wide ``budget`` of link erasures is exhausted.
    Deterministic, so the hypothesis invariant "total targeted erasures
    never exceed the budget" is exact rather than probabilistic.
    """

    budget: int = 8
    per_round: int = 1

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.per_round < 1:
            raise ValueError(f"per_round must be >= 1, got {self.per_round}")

    def bind(self, n: int) -> "BoundStrategy":
        return _BoundBudgetedLoss(self, n)


class _BoundBudgetedLoss(BoundStrategy):
    def __init__(self, strategy: BudgetedLossStrategy, n: int):
        self.strategy = strategy
        self.n = n
        self.spent = 0

    def plan_round(self, round_index, senders, receivers, indptr, down, rng):
        s = self.strategy
        remaining = s.budget - self.spent
        if remaining <= 0:
            return None, ()
        packed, rows = _live_edge_row_ints(senders, receivers, down, self.n)
        targets = sorted(_forest_edges(packed, rows, self.n))
        targets = targets[: min(s.per_round, remaining)]
        if not targets:
            return None, ()
        self.spent += len(targets)
        return _edge_positions_lost(senders, receivers, self.n, targets), ()


def _bernoulli_subset(
    candidates: np.ndarray, probability: float, rng: np.random.Generator
) -> np.ndarray | None:
    """Keep each candidate edge with ``probability``; None when none remain.

    At ``probability == 1.0`` no randomness is consumed (the strategy is
    deterministic and composes with stochastic axes without perturbing
    their draws); otherwise one Bernoulli per candidate edge, drawn in CSR
    order from the fault stream.
    """
    if not candidates.any():
        return None
    if probability >= 1.0:
        return candidates
    positions = np.flatnonzero(candidates)
    hit = rng.random(positions.size) < probability
    if not hit.any():
        return None
    lost = np.zeros(candidates.size, dtype=bool)
    lost[positions[hit]] = True
    return lost


@dataclass(frozen=True)
class StragglerIsolationStrategy(FaultStrategy):
    """Isolate the least-knowledgeable node: each round, every live edge
    incident to the straggler (the live node with the smallest
    :meth:`StateView.progress` score, lowest uid on ties) is independently
    lost with ``probability``.

    This is the protocol-state-aware worst case for gossip: the adversary
    spends its erasures exactly where dissemination still has work to do,
    starving the node the protocol most needs to reach.
    """

    probability: float = 1.0
    wants_state = True

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    def bind(self, n: int) -> "BoundStrategy":
        return _BoundStragglerIsolation(self, n)


class _BoundStragglerIsolation(BoundStrategy):
    def __init__(self, strategy: StragglerIsolationStrategy, n: int):
        self.strategy = strategy
        self.n = n

    def plan_round(self, round_index, senders, receivers, indptr, down, rng, state):
        live = ~down
        if not live.any():
            return None, ()
        score = np.where(live, state.progress(), _NEVER)
        straggler = int(np.argmin(score))
        incident = (
            ((senders == straggler) | (receivers == straggler))
            & ~down[senders]
            & ~down[receivers]
        )
        lost = _bernoulli_subset(incident, self.strategy.probability, rng)
        return lost, ()


@dataclass(frozen=True)
class FrontierLossStrategy(FaultStrategy):
    """Drop edges crossing the knowledge frontier: each round, every live
    edge whose sender's :meth:`StateView.progress` score strictly exceeds
    its receiver's is independently lost with ``probability``.

    Frontier edges are exactly the ones over which knowledge can flow
    downhill, so this adversary attacks useful transfers while leaving
    already-converged regions untouched.
    """

    probability: float = 1.0
    wants_state = True

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    def bind(self, n: int) -> "BoundStrategy":
        return _BoundFrontierLoss(self, n)


class _BoundFrontierLoss(BoundStrategy):
    def __init__(self, strategy: FrontierLossStrategy, n: int):
        self.strategy = strategy
        self.n = n

    def plan_round(self, round_index, senders, receivers, indptr, down, rng, state):
        score = state.progress()
        frontier = (
            ~down[senders]
            & ~down[receivers]
            & (score[senders] > score[receivers])
        )
        lost = _bernoulli_subset(frontier, self.strategy.probability, rng)
        return lost, ()


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionModel:
    """Scheduled network partitions that heal.

    While a window ``[start, end)`` is open the node set is split into
    ``groups`` classes by ``uid % groups`` and every cross-group edge is
    removed from the round's effective CSR — the link does not exist, so
    nothing is counted as dropped.  Windows must not overlap; between
    windows the network is whole again.
    """

    windows: tuple[tuple[int, int], ...] = ()
    groups: int = 2

    def __post_init__(self):
        if self.groups < 2:
            raise ValueError(f"groups must be >= 2, got {self.groups}")
        windows = tuple(
            sorted((int(start), int(end)) for start, end in self.windows)
        )
        previous_end = 0
        for start, end in windows:
            if start < 0:
                raise ValueError(f"window start must be >= 0, got {start}")
            if end <= start:
                raise ValueError(f"window [{start}, {end}) is empty or inverted")
            if start < previous_end:
                raise ValueError("partition windows must not overlap")
            previous_end = end
        object.__setattr__(self, "windows", windows)

    def active_at(self, round_index: int) -> bool:
        """Whether some partition window is open at ``round_index``."""
        return any(start <= round_index < end for start, end in self.windows)


# ----------------------------------------------------------------------
# radio collisions and quorum membership
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CollisionModel:
    """Radio-style collision rounds over the effective CSR.

    With ``probability`` per round (one Bernoulli from the fault stream,
    drawn only when ``0 < probability < 1``) the round is a *collision
    round*: deliveries are grouped by receiver, and a receiver hearing two
    or more simultaneous senders receives nothing — the classic
    radio-network reception rule.  With ``capture`` the strongest signal
    wins instead: the lowest-uid delivering sender gets through and every
    other simultaneous delivery is collided away.

    Only deliveries that would otherwise have happened collide: silent
    senders, crashed endpoints, lost edges and discarded Byzantine copies
    occupy no air.  A duplicated edge is one transmission (its echo rides
    or dies with it).
    """

    probability: float = 1.0
    capture: bool = False

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )


@dataclass(frozen=True)
class QuorumModel:
    """Honest/fake quorum membership (the ByzQuorum shape): ``f`` fake
    nodes among ``n >= 2f + 1``.

    Fake nodes run the protocol like everyone else — they relay, vote and
    receive — but they are not honest quorum members: they must never
    originate honest tokens (the runner rejects placements that seed them),
    they are excluded from :attr:`BoundFaults.survivor_indices`, and
    completion, stop rules and survivor metrics are computed over the
    honest quorum only.  Byzantine sender selection composes freely: a fake
    node may also be a Byzantine sender.
    """

    fake: tuple[int, ...] = ()

    def __post_init__(self):
        fake = tuple(sorted(int(uid) for uid in self.fake))
        if not fake:
            raise ValueError("a QuorumModel needs at least one fake node")
        if len(set(fake)) != len(fake):
            raise ValueError("duplicate fake quorum uids")
        if fake[0] < 0:
            raise ValueError("fake quorum uids must be >= 0")
        object.__setattr__(self, "fake", fake)


# ----------------------------------------------------------------------
# the fault model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultModel:
    """Declarative description of one run's fault injection.

    Attributes
    ----------
    loss:
        Per-edge Bernoulli erasure probability in ``[0, 1]``.
    duplication:
        Per-edge Bernoulli duplication probability in ``[0, 1]`` (an
        affected delivery is processed twice that round).
    crashes:
        Crash schedule entries, each either ``(uid, down_round)`` — node
        ``uid`` is silent and deaf from ``down_round`` on, permanently — or
        ``(uid, down_round, up_round)`` — the node is down exactly during
        ``[down_round, up_round)`` and rejoins with its pre-crash knowledge
        frozen.  A uid may appear in several entries as long as its
        intervals do not overlap (a permanent entry overlaps everything
        after it).
    byzantine:
        Node uids whose coded wire traffic is adversarially substituted.
        Protocols without a verifiable static generation (the forwarding
        family) treat Byzantine traffic as unverifiable and discard it.
    byzantine_mode:
        ``"malformed"`` (out-of-span vectors, rejected by the span guard)
        or ``"replay"`` (a fixed in-span source vector, accepted but almost
        never innovative).
    partitions:
        Optional :class:`PartitionModel` removing cross-group edges during
        scheduled windows.
    strategy:
        Optional :class:`FaultStrategy` — an adaptive adversary consulted
        every round with the round's topology (and, for ``wants_state``
        strategies, a :class:`StateView` of protocol progress).
    collisions:
        Optional :class:`CollisionModel` applying the radio reception rule
        to each collision round's deliveries.
    quorum:
        Optional :class:`QuorumModel` declaring fake quorum members that
        survivor metrics and stop rules exclude.

    The model is frozen and built from plain data, so scenario fault
    factories pickle into sweep workers (REP201).
    """

    loss: float = 0.0
    duplication: float = 0.0
    crashes: tuple[tuple[int, ...], ...] = ()
    byzantine: tuple[int, ...] = ()
    byzantine_mode: str = "malformed"
    partitions: PartitionModel | None = None
    strategy: FaultStrategy | None = None
    collisions: CollisionModel | None = None
    quorum: QuorumModel | None = None

    def __post_init__(self):
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss must be in [0, 1], got {self.loss}")
        if not 0.0 <= self.duplication <= 1.0:
            raise ValueError(f"duplication must be in [0, 1], got {self.duplication}")
        if self.byzantine_mode not in _BYZANTINE_MODES:
            raise ValueError(
                f"byzantine_mode must be one of {_BYZANTINE_MODES}, "
                f"got {self.byzantine_mode!r}"
            )
        crashes = tuple(
            sorted(tuple(int(value) for value in entry) for entry in self.crashes)
        )
        intervals: dict[int, list[tuple[int, int]]] = {}
        for entry in crashes:
            if len(entry) == 2:
                uid, down = entry
                up = _NEVER
            elif len(entry) == 3:
                uid, down, up = entry
                if up <= down:
                    raise ValueError(
                        f"recovery round must follow the crash round, got {entry}"
                    )
            else:
                raise ValueError(
                    f"crash entries are (uid, down) or (uid, down, up), got {entry}"
                )
            if uid < 0:
                raise ValueError(f"crash uid must be >= 0, got {uid}")
            if down < 0:
                raise ValueError(f"crash round must be >= 0, got {down}")
            intervals.setdefault(uid, []).append((down, up))
        for uid, spans in intervals.items():
            previous_up = -1
            for down, up in sorted(spans):
                if down < previous_up:
                    raise ValueError(
                        f"overlapping crash intervals for node {uid}"
                    )
                previous_up = up
        byzantine = tuple(sorted(int(uid) for uid in self.byzantine))
        if len(set(byzantine)) != len(byzantine):
            raise ValueError("duplicate Byzantine uids")
        if byzantine and byzantine[0] < 0:
            raise ValueError("Byzantine uids must be >= 0")
        overlap = set(intervals) & set(byzantine)
        if overlap:
            raise ValueError(
                f"nodes cannot be both crashed and Byzantine: {sorted(overlap)}"
            )
        if self.partitions is not None and not isinstance(
            self.partitions, PartitionModel
        ):
            raise ValueError("partitions must be a PartitionModel")
        if self.strategy is not None and not isinstance(
            self.strategy, FaultStrategy
        ):
            raise ValueError("strategy must be a FaultStrategy")
        if self.collisions is not None and not isinstance(
            self.collisions, CollisionModel
        ):
            raise ValueError("collisions must be a CollisionModel")
        if self.quorum is not None and not isinstance(self.quorum, QuorumModel):
            raise ValueError("quorum must be a QuorumModel")
        object.__setattr__(self, "crashes", crashes)
        object.__setattr__(self, "byzantine", byzantine)

    @property
    def active(self) -> bool:
        """Whether this model injects any fault at all."""
        return bool(
            self.loss
            or self.duplication
            or self.crashes
            or self.byzantine
            or self.partitions is not None
            or self.strategy is not None
            or self.collisions is not None
            or self.quorum is not None
        )

    def bind(self, n: int, rng: np.random.Generator) -> "BoundFaults":
        """Bind the model to a network size and a dedicated rng stream."""
        return BoundFaults(self, n, rng)


class SpanGuard:
    """Receiver-side verification oracle for coded wire traffic.

    Models homomorphic-signature verification: any GF(2) vector inside the
    span of the instance's source vectors verifies, anything outside is
    provably forged and discarded before it can touch the receiver's basis
    (so malformed vectors can never raise a ``GF2BasisBatch`` rank past the
    source span).
    """

    def __init__(self, length: int, source_masks):
        if length <= 0:
            raise ValueError(f"vector length must be positive, got {length}")
        self.length = int(length)
        self._basis = GF2Basis(self.length)
        self._first = 0
        for mask in source_masks:
            mask = int(mask)
            if mask and not self._first:
                self._first = mask
            self._basis.insert(mask)
        if not self._first:
            raise ValueError("SpanGuard needs at least one non-zero source vector")

    @property
    def rank(self) -> int:
        return self._basis.rank

    @property
    def replay_mask(self) -> int:
        """The fixed in-span vector Byzantine replay senders transmit."""
        return self._first

    def contains(self, mask: int) -> bool:
        """Whether ``mask`` verifies (lies inside the source span)."""
        return self._basis.contains(mask)

    def sample_outside(self, rng: np.random.Generator) -> int:
        """Rejection-sample a vector provably outside the source span."""
        if self._basis.rank >= self.length:
            raise ValueError(
                "the source span covers the whole space; no malformed vector exists"
            )
        nbytes = (self.length + 7) // 8
        top = (1 << self.length) - 1
        while True:
            # repro: allow[REP404] an rng byte draw of a malformed vector, not the layout
            mask = int.from_bytes(rng.bytes(nbytes), "little") & top
            if not self._basis.contains(mask):
                return mask


@dataclass(frozen=True)
class RoundFaultStats:
    """One round's fault accounting (engine-invariant by construction)."""

    dropped: int
    duplicated: int
    corrupted: int
    discarded: int
    collided: int = 0


class BoundFaults:
    """A :class:`FaultModel` bound to a run: size, rng stream, crash clock."""

    def __init__(self, model: FaultModel, n: int, rng: np.random.Generator):
        iv_uid: list[int] = []
        iv_down: list[int] = []
        iv_up: list[int] = []
        permanent = np.zeros(n, dtype=bool)
        for entry in model.crashes:
            uid = entry[0]
            if uid >= n:
                raise ValueError(f"crash uid {uid} out of range for n={n}")
            iv_uid.append(uid)
            iv_down.append(entry[1])
            if len(entry) == 3:
                iv_up.append(entry[2])
            else:
                iv_up.append(_NEVER)
                permanent[uid] = True
        for uid in model.byzantine:
            if uid >= n:
                raise ValueError(f"Byzantine uid {uid} out of range for n={n}")
        fake = np.zeros(n, dtype=bool)
        if model.quorum is not None:
            f = len(model.quorum.fake)
            if model.quorum.fake[-1] >= n:
                raise ValueError(
                    f"fake quorum uid {model.quorum.fake[-1]} out of range for n={n}"
                )
            if n < 2 * f + 1:
                raise ValueError(
                    f"a quorum with {f} fake nodes needs n >= {2 * f + 1}, got n={n}"
                )
            fake[list(model.quorum.fake)] = True
        self.model = model
        self.n = int(n)
        self.rng = rng
        self.iv_uid = np.asarray(iv_uid, dtype=np.int64)
        self.iv_down = np.asarray(iv_down, dtype=np.int64)
        self.iv_up = np.asarray(iv_up, dtype=np.int64)
        self.permanent = permanent
        #: Nodes the adaptive strategy crashed mid-run (grows monotonically).
        self.strategy_crashed = np.zeros(n, dtype=bool)
        self.strategy_state: BoundStrategy | None = (
            model.strategy.bind(n) if model.strategy is not None else None
        )
        self.byz = np.zeros(n, dtype=bool)
        if model.byzantine:
            self.byz[list(model.byzantine)] = True
        #: Fake quorum members (never honest survivors).
        self.fake = fake
        self.guard: SpanGuard | None = None
        #: Nodes never permanently crashed — the population completion and
        #: correctness are measured over.  Recovering nodes *are* survivors
        #: (they are expected to reconverge after rejoining), Byzantine nodes
        #: are survivors (their receive path is honest), fake quorum members
        #: are *not* (the honest quorum is the population that counts), and
        #: the set shrinks in the round an adaptive strategy claims a victim
        #: (``RoundFaultPlan.bind_edges`` rebuilds it), so read it per round.
        self.survivor_indices = self._survivors()

    def _survivors(self) -> np.ndarray:
        """The survivor uids, ascending, as a read-only array."""
        survivors = np.flatnonzero(~self.permanent & ~self.strategy_crashed & ~self.fake)
        survivors.setflags(write=False)
        return survivors

    @property
    def wants_state(self) -> bool:
        """Whether the bound strategy needs a per-round StateView."""
        return self.model.strategy is not None and self.model.strategy.wants_state

    def down_at(self, round_index: int) -> np.ndarray:
        """Boolean node vector: who is crashed during ``round_index``."""
        down = np.zeros(self.n, dtype=bool)
        if self.iv_uid.size:
            hits = (self.iv_down <= round_index) & (round_index < self.iv_up)
            down[self.iv_uid[hits]] = True
        down |= self.strategy_crashed
        return down

    def recovery_metrics(
        self, rounds_executed: int, survivor_completion_round: int | None
    ) -> tuple[int, int | None]:
        """Post-run recovery accounting: (recoveries, reconvergence rounds).

        A recovery is a crash interval whose node actually came back up
        within the executed window.  Reconvergence is measured from the
        *last* such rejoin to the survivor completion round (``None`` when
        the survivors never completed or nothing recovered).
        """
        observed = (self.iv_up != _NEVER) & (self.iv_up < rounds_executed)
        recoveries = int(np.count_nonzero(observed))
        if recoveries and survivor_completion_round is not None:
            last_up = int(self.iv_up[observed].max())
            return recoveries, max(0, survivor_completion_round - last_up)
        return recoveries, None

    @property
    def wants_guard(self) -> bool:
        """Whether Byzantine faults need a span guard attached."""
        return bool(self.model.byzantine)

    def attach_guard(self, guard: SpanGuard | None) -> None:
        """Attach the protocol's span guard (None: Byzantine traffic is
        unverifiable for this protocol and always discarded).

        When the source span already covers the whole vector space, no
        out-of-span vector exists, so a ``"malformed"`` attack is
        impossible (``sample_outside`` would loop/raise mid-run).  The
        guard is dropped instead: every Byzantine copy is discarded,
        matching the unverifiable (``guard=None``) path and the mode's
        observable outcome — malformed traffic never reaches a basis.
        """
        if (
            guard is not None
            and self.model.byzantine_mode == "malformed"
            and guard.rank >= guard.length
        ):
            guard = None
        self.guard = guard

    def begin_round(self, round_index: int) -> "RoundFaultPlan":
        """Start one round: crash snapshot plus Byzantine wire draws.

        The Byzantine draws happen here — before the adversary sees any
        message and before the topology exists — in ascending uid order, so
        the rng stream is identical across engines and independent of the
        round's graph.
        """
        down = self.down_at(round_index)
        wires: dict[int, int] = {}
        guard = self.guard
        if guard is not None:
            if self.model.byzantine_mode == "replay":
                for uid in self.model.byzantine:
                    wires[uid] = guard.replay_mask
            else:
                for uid in self.model.byzantine:
                    wires[uid] = guard.sample_outside(self.rng)
        return RoundFaultPlan(self, down, wires, round_index)


class RoundFaultPlan:
    """One round's bound fault draws and the effective-CSR editor."""

    def __init__(
        self,
        bound: BoundFaults,
        down: np.ndarray,
        wires: dict[int, int],
        round_index: int = 0,
    ):
        self.bound = bound
        self.down = down
        self.round_index = int(round_index)
        #: Byzantine uid -> wire vector drawn/fixed for this round.
        self.wire_vectors = wires
        #: Non-empty only in replay mode with a guard: the substituted
        #: traffic verifies, so it must actually flow to receivers.
        self.substitute = (
            wires if bound.model.byzantine_mode == "replay" else {}
        )
        self._senders: np.ndarray | None = None
        self._lost: np.ndarray | None = None
        self._extra: np.ndarray | None = None
        self._viable: np.ndarray | None = None
        self._rejected: np.ndarray | None = None
        self._byz_edge: np.ndarray | None = None
        self._collided: np.ndarray | None = None
        #: The receiving node of every entry of the effective CSR that
        #: :meth:`bind_edges` returned (None until it has run).
        self.receivers: np.ndarray | None = None

    def bind_edges(
        self,
        indices: np.ndarray,
        indptr: np.ndarray,
        *,
        active: np.ndarray,
        receivers: np.ndarray,
        state: StateView | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw per-edge faults over the canonical CSR; return the effective CSR.

        The effective CSR removes edges with a crashed endpoint, removes
        partition-crossing edges while a window is open, removes lost edges
        (Bernoulli plus strategy-targeted), discarded (malformed-Byzantine)
        edges and collided edges, and repeats duplicated edges adjacently —
        per-receiver segments stay in the engines' canonical
        ascending-sender order with duplicates adjacent.  Loss is drawn
        before duplication, each only when its probability is non-zero, the
        adaptive strategy is consulted after both, and the collision
        round's single Bernoulli (drawn only when ``0 < probability < 1``)
        comes last, so benign axes consume no rng and existing stochastic
        axes keep their draw order.  Strategy crashes take effect
        immediately: ``self.down`` is final only after this method returns,
        so engines must compute their sending mask afterwards.

        Only the axes that are on this round build a per-edge mask, and
        :meth:`account` counts only those.  A round that removes and
        repeats nothing returns the canonical arrays themselves.

        ``active`` is the engines' compose-time transmission mask (who
        composed a message this round); collisions only count transmitting
        senders as occupying air.  ``state`` is the read-only
        :class:`StateView` a ``wants_state`` strategy requires.
        ``receivers`` is the canonical CSR's
        :meth:`~repro.network.topology.Topology.csr_receivers`; the
        effective CSR's receivers are left in :attr:`receivers`.
        """
        model = self.bound.model
        rng = self.bound.rng
        n = self.bound.n
        edges = indices.size
        senders = indices
        # A per-edge mask exists only for an axis that is on this round;
        # None stands for "no edge" (for ``viable``, "every edge").
        lost = rng.random(edges) < model.loss if model.loss > 0.0 else None
        extra = (
            rng.random(edges) < model.duplication if model.duplication > 0.0 else None
        )
        strategy = self.bound.strategy_state
        if strategy is not None:
            if self.bound.wants_state:
                if state is None:
                    raise RuntimeError(
                        f"{type(model.strategy).__name__} wants protocol state "
                        "but the engine supplied no StateView to bind_edges"
                    )
                targeted, crashed = strategy.plan_round(
                    self.round_index, senders, receivers, indptr, self.down,
                    rng, state,
                )
            else:
                targeted, crashed = strategy.plan_round(
                    self.round_index, senders, receivers, indptr, self.down, rng
                )
            for uid in crashed:
                self.bound.strategy_crashed[uid] = True
                self.down[uid] = True
            if crashed:
                self.bound.survivor_indices = self.bound._survivors()
            if targeted is not None:
                lost = targeted if lost is None else lost | targeted
        down = self.down
        viable = ~down[senders] & ~down[receivers] if down.any() else None
        if self.partition_active:
            group = np.arange(n, dtype=np.int64) % model.partitions.groups
            same = group[senders] == group[receivers]
            viable = same if viable is None else viable & same
        byz_edge = self.bound.byz[senders] if model.byzantine else None
        # Malformed mode, or no span guard for this protocol: every
        # Byzantine copy is discarded at the receiver.
        rejected = None if self.substitute else byz_edge
        keep = viable
        for removed in (lost, rejected):
            if removed is not None:
                keep = ~removed if keep is None else keep & ~removed
        collided = None
        collisions = model.collisions
        if collisions is not None:
            p = collisions.probability
            # One scalar Bernoulli per round from the fault stream, after
            # every per-edge draw; the endpoints consume no randomness.
            collide_round = p >= 1.0 or (p > 0.0 and bool(rng.random() < p))
            if collide_round and edges:
                transmitting = active & ~down
                delivering = transmitting[senders]
                if keep is not None:
                    delivering &= keep
                flows = np.zeros(edges + 1, dtype=np.int64)
                np.cumsum(delivering, out=flows[1:])
                crowded = (flows[indptr[1:]] - flows[indptr[:-1]]) >= 2
                collided = delivering & crowded[receivers]
                if collisions.capture:
                    # CSR segments ascend by sender uid, so the first
                    # delivering edge of a segment is the lowest-uid sender
                    # — the capture winner keeps its delivery.
                    seg_start = flows[indptr[receivers]]
                    collided &= (flows[:-1] - seg_start) != 0
                keep = ~collided if keep is None else keep & ~collided
        if extra is None and keep is None:
            # Nothing removed or repeated: the canonical CSR is the
            # effective one (read-only; no engine writes into it).
            eff_indices, eff_indptr, eff_receivers = senders, indptr, receivers
        else:
            if extra is None:
                eff_indices = senders[keep]
                eff_receivers = receivers[keep]
                copies = keep
            else:
                copies = 1 + extra.astype(np.int64)
                if keep is not None:
                    copies[~keep] = 0
                eff_indices = np.repeat(senders, copies)
                eff_receivers = np.repeat(receivers, copies)
            cumulative = np.zeros(edges + 1, dtype=np.int64)
            np.cumsum(copies, out=cumulative[1:])
            eff_indptr = cumulative[indptr]
        self._senders = senders
        self._lost = lost
        self._extra = extra
        self._viable = viable
        self._rejected = rejected
        self._byz_edge = byz_edge
        self._collided = collided
        self.receivers = eff_receivers
        return eff_indices, eff_indptr

    @property
    def partition_active(self) -> bool:
        """Whether a scheduled partition window is open this round."""
        partitions = self.bound.model.partitions
        return partitions is not None and partitions.active_at(self.round_index)

    def account(self, sending: np.ndarray) -> RoundFaultStats:
        """Per-round fault counters, given which nodes actually broadcast.

        ``sending`` must already exclude down nodes.  A transmission toward
        a crashed receiver is counted nowhere (the radio it would reach is
        off), and a partition-crossing edge simply does not exist; faults
        only score against deliveries that would otherwise have happened.
        Collided copies count as ``collided`` and nowhere else (a collided
        duplicate or Byzantine copy died on the air, not at the receiver).
        """
        if self._senders is None:
            raise RuntimeError("bind_edges must run before account")
        lost, extra, collided = self._lost, self._extra, self._collided
        live = sending[self._senders]
        if self._viable is not None:
            live &= self._viable
        surviving = live
        dropped = 0
        if lost is not None:
            dropped = int(np.count_nonzero(lost & live))
            surviving = live & ~lost
        delivered = surviving
        collided_copies = 0
        if collided is not None:
            delivered = surviving & ~collided
            collided_copies = self._copies(surviving & collided)
        duplicated = 0
        if extra is not None:
            duplicated = int(np.count_nonzero(extra & delivered))
        corrupted = discarded = 0
        if self._byz_edge is not None:
            corrupted = self._copies(delivered & self._byz_edge)
        if self._rejected is not None:
            discarded = self._copies(delivered & self._rejected)
        return RoundFaultStats(
            dropped=dropped,
            duplicated=duplicated,
            corrupted=corrupted,
            discarded=discarded,
            collided=collided_copies,
        )

    def _copies(self, edges: np.ndarray) -> int:
        """Copies carried by the marked edges: two for a duplicated one."""
        count = int(np.count_nonzero(edges))
        if self._extra is not None:
            count += int(np.count_nonzero(edges & self._extra))
        return count


def crash_schedule_from_churn(
    churn, rounds: int, *, recoveries: bool = False
) -> tuple[tuple[int, ...], ...]:
    """Derive a crash schedule from a churn replay.

    Replays ``rounds`` rounds of a :class:`~repro.network.dynamics.ChurnProcess`
    built with ``record_activity=True`` and returns a
    ``FaultModel.crashes`` schedule.  The process is reset before and after
    the replay, so the caller can still hand it to an engine.

    With ``recoveries=False`` (for true-crash semantics, pair with
    ``lifeline=False``) each departed node contributes one permanent
    ``(uid, first_dead_round)`` entry.  With ``recoveries=True`` every
    maximal inactive run becomes an interval: ``(uid, down, up)`` when the
    node re-attached within the window, or a permanent ``(uid, down)`` when
    it was still down at the window's end — including a departure on the
    final replayed round, which a naive down/up event pairing would
    silently drop.
    """
    if not getattr(churn, "record_activity", False):
        raise ValueError("crash_schedule_from_churn needs record_activity=True")
    churn.reset()
    churn.next_batch(rounds)
    history = [np.asarray(active) for active in churn.activity_history[:rounds]]
    churn.reset()
    if not recoveries:
        first_dead: dict[int, int] = {}
        for round_index, active in enumerate(history):
            for uid in np.flatnonzero(~active).tolist():
                first_dead.setdefault(int(uid), round_index)
        return tuple(sorted(first_dead.items()))
    intervals: list[tuple[int, ...]] = []
    if not history:
        return ()
    n = history[0].size
    for uid in range(n):
        down_round: int | None = None
        for round_index, active in enumerate(history):
            if not active[uid]:
                if down_round is None:
                    down_round = round_index
            elif down_round is not None:
                intervals.append((uid, down_round, round_index))
                down_round = None
        if down_round is not None:
            # Still down when the window closed (even if the run started on
            # the very last round): permanent from the caller's viewpoint.
            intervals.append((uid, down_round))
    return tuple(sorted(intervals))
