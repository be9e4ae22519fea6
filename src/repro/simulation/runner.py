"""The synchronous round executor for the dynamic network model.

One round (Section 4.1), for an adaptive adversary:

1. each node's sanitised state is snapshotted;
2. the adversary fixes the connected topology ``G(t)`` from the snapshot;
3. each node composes its O(b)-bit broadcast message *without knowing its
   neighbours*;
4. every node receives the messages of its ``G(t)``-neighbours.

Omniscient adversaries (``sees_messages``) are instead shown the composed
messages before choosing the topology, which models "knowing all the
randomness in advance" operationally (Section 6).

The runner also enforces the message budget, tracks metrics, detects
completion (every node can output every token), and verifies payload
correctness at the end.

Two execution engines implement the identical round semantics:

* **kernel** (default whenever the protocol ships a
  :class:`~repro.simulation.kernels.RoundKernel`) — whole-network state
  lives in packed numpy arrays and one round is ``compose_all`` -> masked
  adjacency propagation (CSR gather + ``bitwise_or.reduceat``) ->
  ``deliver_all``, with no per-node Python objects on the hot path; the
  final state is materialised back into ordinary nodes.  See
  :mod:`repro.simulation.kernels`.
* **mask** — the per-node object loop below.  Topologies are mask-native
  :class:`~repro.network.topology.Topology` objects validated once per
  distinct object (identity-cached, so static and T-stable adversaries are
  checked once per topology instead of once per round); node state
  snapshots are lazy views; per-node knowledge is an incrementally-
  maintained integer ``knowledge_mask`` so the completion check is an
  O(k/64) mask comparison per still-incomplete node; and progress, trace
  counts and useless-delivery fingerprints read ``len(node.known)``.

Under ``engine="auto"`` the kernel engine runs when the factory is a
registered node class, the configuration is supported and the kernel
offers the views the adversary and fault strategy need; otherwise the
mask engine runs.  Both engines deliver each node's inbox in ascending
neighbour-uid order and produce identical metrics and trace content for
identical seeds (verified by tests).  Both rely on the ``known`` dict
being each node's authoritative knowledge record, so a node class that
overrides :meth:`~repro.algorithms.base.ProtocolNode.known_token_ids` is
rejected before round 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..algorithms.base import ProtocolConfig, ProtocolFactory, ProtocolNode
from ..network.adversary import Adversary
from ..network.faults import BoundFaults, FaultModel, SpanGuard, StateView
from ..network.topology import TopologyValidationCache
from ..obs.profiler import NULL_PROFILER
from ..obs.trace import TraceRecorder
from ..tokens.message import Message
from ..tokens.token import TokenPlacement
from . import kernels
from .metrics import RunMetrics

__all__ = ["RunResult", "run_dissemination", "build_nodes"]


@dataclass
class RunResult:
    """Outcome of one dissemination run.

    Attributes
    ----------
    metrics:
        Aggregated counters (rounds, bits, completion round, ...).
    nodes:
        The final node objects (useful for post-hoc inspection in tests).
    correct:
        True iff at completion every node output every token with the right
        payload.  ``None`` when the run did not complete within its limit.
    topologies:
        The recorded topology sequence (only if ``record_topologies``), as
        validated :class:`~repro.network.topology.Topology` objects on
        both engines; the stability checkers in
        :mod:`repro.network.stability` consume them directly.
    engine:
        Which execution engine actually ran: ``"kernel"`` or ``"mask"``
        (resolves the ``engine="auto"`` choice for callers).
    """

    metrics: RunMetrics
    nodes: list[ProtocolNode]
    correct: bool | None
    topologies: list = field(default_factory=list)
    engine: str = ""

    @property
    def rounds(self) -> int:
        """Rounds until completion (falls back to rounds executed)."""
        if self.metrics.completion_round is not None:
            return self.metrics.completion_round
        return self.metrics.rounds_executed

    @property
    def completed(self) -> bool:
        """True iff the run disseminated everything within its round limit."""
        return self.metrics.completed


def build_nodes(
    factory: ProtocolFactory,
    config: ProtocolConfig,
    placement: TokenPlacement,
    rng: np.random.Generator,
) -> list[ProtocolNode]:
    """Instantiate and set up one protocol node per network participant.

    Node randomness comes from ``rng.spawn``-ed child generators —
    statistically independent streams derived through NumPy's SeedSequence
    spawning, replacing the earlier ``default_rng(rng.integers(0, 2**63 - 1))``
    re-seeding (which drew from a documented-exclusive upper bound and keyed
    children off a single 63-bit draw).  Seed-compat: runs seeded under the
    old scheme reproduce different (still deterministic) executions.
    """
    nodes: list[ProtocolNode] = []
    for uid, node_rng in enumerate(rng.spawn(config.n)):
        node = factory(uid, config, node_rng)
        node.setup(placement.tokens_at(uid))
        nodes.append(node)
    return nodes


def _coded_span_guard(nodes: Sequence[ProtocolNode]) -> SpanGuard | None:
    """The Byzantine verification oracle, when the protocol supports one.

    Only protocols with a shared static generation (indexed broadcast on
    the mask-native GF(2) pipeline) expose a source span receivers can
    verify against; for everything else Byzantine traffic is unverifiable
    and the fault plan discards it wholesale.
    """
    node0 = nodes[0] if nodes else None
    generation = getattr(node0, "generation", None)
    state = getattr(node0, "state", None)
    if generation is None or state is None:
        return None
    if not all(getattr(node.state, "_mask_native", False) for node in nodes):
        return None
    sources: list[int] = []
    for node in nodes:
        sources.extend(node.state.subspace._gf2.rows_in_insertion_order())
    if not any(sources):
        return None
    return SpanGuard(generation.vector_length, sources)


def _substitute_wire(nodes, outgoing, overrides) -> None:
    """Replace Byzantine senders' composed messages on the wire (replay mode)."""
    for uid, mask in overrides.items():
        if outgoing[uid] is not None:
            outgoing[uid] = nodes[uid].generation.message_from_mask(uid, mask)


def _check_correctness(nodes: Sequence[ProtocolNode], placement: TokenPlacement) -> bool:
    expected = placement.by_id()
    for node in nodes:
        decoded = node.decoded_tokens()
        for token_id, token in expected.items():
            got = decoded.get(token_id)
            if got is None or got.payload != token.payload:
                return False
    return True


def _finish_run(
    metrics: RunMetrics,
    bound: BoundFaults | None,
    completed: np.ndarray,
    nodes: Sequence[ProtocolNode],
    placement: TokenPlacement,
) -> bool | None:
    """Apply the end-of-run rules both engines share; return ``correct``.

    ``completed`` flags the nodes that know every placement token.  On a
    faulted run it fills in the survivor metrics and judges correctness
    over the survivors; on a benign run over the whole population.
    Correctness is ``None`` when the relevant population never completed.
    """
    if bound is None:
        if metrics.completion_round is None:
            return None
        return _check_correctness(nodes, placement)
    survivors = bound.survivor_indices
    metrics.survivors = int(survivors.size)
    metrics.completed_survivors = int(completed[survivors].sum())
    metrics.recoveries, metrics.reconvergence_rounds = bound.recovery_metrics(
        metrics.rounds_executed, metrics.survivor_completion_round
    )
    if bound.model.quorum is not None:
        metrics.fake_nodes = len(bound.model.quorum.fake)
    if metrics.survivor_completion_round is None:
        return None
    return _check_correctness([nodes[u] for u in survivors.tolist()], placement)


def _run_object_rounds(
    nodes: list[ProtocolNode],
    config: ProtocolConfig,
    adversary: Adversary,
    metrics: RunMetrics,
    full_mask: int,
    *,
    max_rounds: int,
    stop_at_completion: bool,
    record_topologies: bool,
    track_progress: bool,
    bound: BoundFaults | None,
    trace: TraceRecorder | None,
) -> list:
    """Execute rounds on per-node objects: the mask engine's round loop.

    The object twin of :func:`~repro.simulation.kernels.run_kernel_rounds`.
    ``full_mask`` is the knowledge mask of a node that knows every
    placement token.  Returns the recorded topologies.
    """
    n = config.n
    topologies: list = []
    profiler = NULL_PROFILER if trace is None else trace.profiler
    incomplete = {uid for uid, node in enumerate(nodes) if node.knowledge_mask() != full_mask}

    # Single-slot identity-keyed validation cache (shared helper with the
    # kernel engine): static and T-stable topologies are validated once per
    # object instead of once per round; mutable nx graphs are re-validated
    # every time.
    validation_cache = TopologyValidationCache()

    # Optional shared coordinator hook (see algorithms/tstable.py): a single
    # object shared by all nodes that may observe the round topology.  This is
    # the documented structured-simulation shortcut for the patch-sharing
    # algorithm; ordinary protocols have no coordinator.  It consumes the
    # ``networkx`` projection, cached per Topology object, so T-stable blocks
    # materialise it once.
    coordinator = getattr(nodes[0], "shared_coordinator", None) if nodes else None

    def compose(round_index, plan) -> list:
        with profiler.span("compose"):
            outgoing = [node.compose(round_index) for node in nodes]
        if plan is not None and plan.substitute:
            _substitute_wire(nodes, outgoing, plan.substitute)
        return outgoing

    for round_index in range(max_rounds):
        plan = bound.begin_round(round_index) if bound is not None else None
        states = [node.state_view() for node in nodes]

        # An omniscient adversary chooses after seeing the composed
        # messages; every other adversary chooses before nodes compose.
        if adversary.sees_messages:
            outgoing = compose(round_index, plan)
            graph = adversary.choose_topology(round_index, n, states, outgoing)
        else:
            graph = adversary.choose_topology(round_index, n, states)
        topology = validation_cache.validated(graph, n)
        if coordinator is not None:
            coordinator.on_topology(round_index, topology.to_nx(), nodes)
        if not adversary.sees_messages:
            outgoing = compose(round_index, plan)

        if record_topologies:
            topologies.append(topology)

        if plan is not None:
            # Compose already ran, so the transmission mask exists before
            # the faults are drawn — collisions need to know who occupies
            # the air, and a wants_state strategy sees the same
            # post-compose snapshot the trace layer extracts.
            active = np.fromiter(
                (message is not None for message in outgoing), dtype=bool, count=n
            )
            state = None
            if bound.wants_state:
                state = StateView(
                    np.fromiter((len(node.known) for node in nodes), dtype=np.int64, count=n),
                    np.fromiter((node.coded_rank() for node in nodes), dtype=np.int64, count=n),
                )
            # The adaptive strategy is consulted in here and may crash
            # nodes mid-round: ``plan.down`` is final only afterwards, so
            # the accounting below must wait for this call — the same
            # ordering the kernel engine uses.
            base_indices, base_indptr = topology.csr_adjacency()
            with profiler.span("faults"):
                eff_indices, eff_indptr = plan.bind_edges(
                    base_indices, base_indptr, active=active, state=state
                )

        # Budget enforcement and broadcast accounting.  A crashed node's
        # radio is off: it still composes (identical rng consumption keeps
        # engine parity) but transmits nothing and counts as silent.
        for uid, message in enumerate(outgoing):
            if message is None or (plan is not None and plan.down[uid]):
                metrics.record_silence()
                continue
            if not isinstance(message, Message):
                raise TypeError(
                    f"protocol composed a non-Message object: {type(message)!r}"
                )
            config.budget.check(message)
            metrics.record_broadcast(message.size_bits)

        if plan is not None:
            # Faulted delivery runs over the plan's effective CSR — shared
            # verbatim with the kernel engine, which is what keeps faulted
            # metrics byte-identical across the engines.
            stats = plan.account(active & ~plan.down)
            metrics.dropped_deliveries += stats.dropped
            metrics.duplicated_deliveries += stats.duplicated
            metrics.corrupted_deliveries += stats.corrupted
            metrics.collided_deliveries += stats.collided
            metrics.deliveries += stats.discarded

        # Delivery: each node receives its neighbours' messages in ascending
        # neighbour-uid order.  Benign rounds read the neighbour tuples
        # cached on the Topology object, so a static or T-stable topology
        # pays the per-bit mask iteration once per object/block.
        with profiler.span("deliver"):
            if plan is None:
                senders = map(topology.neighbors_tuple, range(n))
            else:
                flat, bounds = eff_indices.tolist(), eff_indptr.tolist()
                senders = (flat[bounds[uid] : bounds[uid + 1]] for uid in range(n))
            for node, neighbours in zip(nodes, senders):
                inbox = [
                    message
                    for message in map(outgoing.__getitem__, neighbours)
                    if message is not None
                ]
                if inbox:
                    before = (len(node.known), node.coded_rank())
                    node.deliver(round_index, inbox)
                    metrics.deliveries += len(inbox)
                    if (len(node.known), node.coded_rank()) == before:
                        metrics.useless_deliveries += len(inbox)
                else:
                    node.deliver(round_index, inbox)

        if coordinator is not None:
            coordinator.after_round(round_index, topology.to_nx(), nodes)

        metrics.rounds_executed = round_index + 1

        if track_progress:
            counts = [len(node.known) for node in nodes]
            metrics.progress.append((round_index + 1, min(counts), float(np.mean(counts))))

        if trace is not None:
            trace.observe_round(
                round_index,
                metrics,
                np.fromiter((len(node.known) for node in nodes), dtype=np.int64, count=n),
                np.fromiter((node.coded_rank() for node in nodes), dtype=np.int64, count=n),
                plan,
            )

        if metrics.completion_round is None:
            # Incremental completion: only nodes still missing tokens are
            # re-examined, each with one O(k/64) mask comparison.
            incomplete = {uid for uid in incomplete if nodes[uid].knowledge_mask() != full_mask}
            if not incomplete:
                metrics.completion_round = round_index + 1

        if bound is None:
            done = metrics.completion_round is not None
        else:
            # Under crash faults the whole population may never complete;
            # the faulted stop rule is survivor completion (identical to
            # population completion when nothing crashes).  The survivor
            # set is queried per round: adaptive strategies shrink it.
            if metrics.survivor_completion_round is None and all(
                nodes[uid].knowledge_mask() == full_mask
                for uid in bound.survivor_indices.tolist()
            ):
                metrics.survivor_completion_round = round_index + 1
            done = metrics.survivor_completion_round is not None

        if done and (stop_at_completion or all(node.finished() for node in nodes)):
            break
    return topologies


def run_dissemination(
    factory: ProtocolFactory,
    config: ProtocolConfig,
    placement: TokenPlacement,
    adversary: Adversary,
    *,
    seed: int = 0,
    max_rounds: int | None = None,
    stop_at_completion: bool = True,
    record_topologies: bool = False,
    track_progress: bool = False,
    engine: str = "auto",
    faults: FaultModel | None = None,
    trace: TraceRecorder | None = None,
) -> RunResult:
    """Run one complete dissemination execution and return its result.

    Parameters
    ----------
    factory:
        Builds a protocol node given (uid, config, rng).
    config:
        Shared problem parameters.
    placement:
        The adversarially-chosen initial token placement.
    adversary:
        The topology-controlling adversary.
    seed:
        Master seed; node randomness and any runner randomness derive from it.
    max_rounds:
        Hard round limit; defaults to a generous multiple of the worst
        baseline bound ``n * k`` (so non-terminating bugs surface as a
        non-completed run rather than a hang).
    stop_at_completion:
        Stop as soon as every node knows every token (the usual measurement
        mode); set False to keep running until nodes terminate locally.
    record_topologies:
        Keep the per-round graphs (for stability checks in tests).
    track_progress:
        Record per-round (min, mean) known-token counts in the metrics.
    engine:
        ``"auto"`` (kernel when applicable, else mask), ``"kernel"``
        (require a registered
        :class:`~repro.simulation.kernels.RoundKernel`; raises if the
        protocol has none, or if the adversary or fault strategy needs
        message or state views the kernel does not offer) or ``"mask"``
        (the per-node object loop, which runs every protocol).  Every
        engine raises ``ValueError`` before round 0 for a node class that
        overrides ``known_token_ids()``.
    faults:
        Optional :class:`~repro.network.faults.FaultModel` — the hostile
        axis orthogonal to ``adversary``: per-edge loss/duplication,
        crash–recovery intervals and permanent crashes, scheduled
        partitions, adaptive :class:`~repro.network.faults.FaultStrategy`
        adversaries (including protocol-state-aware ``wants_state``
        strategies), Byzantine coded senders, radio-collision rounds and
        fake quorum membership.  Fault randomness comes from one
        ``rng.spawn``-ed stream drawn after node construction, so a benign
        model leaves the run bit-identical to ``faults=None``.  Under
        faults the stop rule, the reported correctness and the survivor
        metrics are computed over the never-permanently-crashed honest
        population (recovering nodes included, fake quorum members
        excluded), queried per round because adaptive strategies may claim
        victims mid-run.  A :class:`~repro.network.faults.QuorumModel`
        additionally requires its fake nodes to hold no placement tokens.
    trace:
        Optional :class:`~repro.obs.trace.TraceRecorder` collecting one
        columnar record per executed round (per-node knowledge counts and
        coded ranks, fault events, per-round counter deltas) plus — when
        the recorder carries a clock — wall-clock phase timings.  Tracing
        never changes the execution: every engine produces bit-identical
        ``RunMetrics`` with and without a recorder attached, and the
        recorded trace *content* is byte-identical across engines.
    """
    if engine not in ("auto", "kernel", "mask"):
        raise ValueError(f"engine must be 'auto', 'kernel' or 'mask', got {engine!r}")
    adversary.reset()
    rng = np.random.default_rng(seed)
    nodes = build_nodes(factory, config, placement, rng)
    all_token_ids = placement.all_ids()
    metrics = RunMetrics()

    # Fault binding happens after node construction and only for an active
    # model, so the node rng streams — and benign runs entirely — stay
    # bit-identical to the faultless code path.
    bound: BoundFaults | None = None
    if faults is not None and faults.active:
        bound = faults.bind(config.n, rng.spawn(1)[0])
        if bound.wants_guard:
            bound.attach_guard(_coded_span_guard(nodes))
        if faults.quorum is not None:
            # Fake quorum members never originate honest tokens: a
            # placement seeding one would let a non-member hold knowledge
            # the honest quorum is then measured against.
            for uid in faults.quorum.fake:
                if placement.tokens_at(uid):
                    raise ValueError(
                        f"fake quorum node {uid} holds placement tokens; "
                        "fake members must never originate honest tokens"
                    )

    if max_rounds is None:
        max_rounds = 20 * config.n * max(1, config.k) + 200

    # A stable token-id -> bit-index mapping shared by all nodes.  Nodes
    # whose class overrides known_token_ids() decline tracking: their
    # ``known`` dict is not authoritative, which neither engine can run.
    token_index = {tid: i for i, tid in enumerate(sorted(all_token_ids))}
    if not all(node.enable_mask_tracking(token_index) for node in nodes):
        raise ValueError(
            "every node must support knowledge-mask tracking; a node class "
            "overriding known_token_ids() is not supported"
        )

    # Kernel engine dispatch: the factory must *be* a registered node class
    # (exact identity, so subclasses never inherit a kernel), the kernel must
    # support this configuration, and the adversary must not demand to see
    # per-node message objects the kernel engine never builds.
    kernel_cls = kernels.kernel_for(factory, config)
    wants_state = bound is not None and bound.wants_state
    if engine == "kernel":
        if kernel_cls is None:
            raise ValueError(
                "engine='kernel' requires the protocol factory to be a node "
                "class with a registered RoundKernel (see "
                "repro.simulation.kernels.register_kernel)"
            )
        if adversary.sees_messages and not kernel_cls.supports_message_views:
            raise ValueError(
                f"{kernel_cls.__name__} does not build per-node message "
                "views, so omniscient (sees_messages) adversaries are not "
                "supported; use engine='mask'"
            )
        if wants_state and not kernel_cls.supports_state_views:
            raise ValueError(
                f"{kernel_cls.__name__} does not expose per-round state "
                "views, so state-aware (wants_state) fault strategies are "
                "not supported; use engine='mask'"
            )
    use_kernel = engine == "kernel" or (
        engine == "auto"
        and kernel_cls is not None
        and (not adversary.sees_messages or kernel_cls.supports_message_views)
        and (not wants_state or kernel_cls.supports_state_views)
    )
    kernel = None
    if use_kernel:
        try:
            kernel = kernel_cls(config, placement, token_index, nodes)
        except kernels.KernelUnsupported as exc:
            # Node-level preconditions can only be checked post-construction;
            # auto falls back to the mask engine, an explicit request fails.
            if engine == "kernel":
                raise ValueError(str(exc)) from exc
    run_engine = "mask" if kernel is None else "kernel"
    if trace is not None:
        trace.begin_run(
            config=config, seed=seed, engine=run_engine, factory=factory, faults=faults
        )
    if kernel is not None:
        topologies = kernels.run_kernel_rounds(
            kernel,
            config,
            adversary,
            metrics,
            max_rounds=max_rounds,
            stop_at_completion=stop_at_completion,
            record_topologies=record_topologies,
            track_progress=track_progress,
            faults=bound,
            trace=trace,
        )
        profiler = NULL_PROFILER if trace is None else trace.profiler
        with profiler.span("materialise"):
            kernel.to_nodes(nodes)
        completed = kernel.completed_flags()
    else:
        full_mask = (1 << len(token_index)) - 1
        topologies = _run_object_rounds(
            nodes,
            config,
            adversary,
            metrics,
            full_mask,
            max_rounds=max_rounds,
            stop_at_completion=stop_at_completion,
            record_topologies=record_topologies,
            track_progress=track_progress,
            bound=bound,
            trace=trace,
        )
        completed = np.fromiter(
            (node.knowledge_mask() == full_mask for node in nodes),
            dtype=bool,
            count=config.n,
        )
    return RunResult(
        metrics=metrics,
        nodes=nodes,
        correct=_finish_run(metrics, bound, completed, nodes, placement),
        topologies=topologies,
        engine=run_engine,
    )
