"""The dissemination runner: build the nodes, pick a kernel, run the rounds.

One round (Section 4.1), for an adaptive adversary:

1. the adversary fixes the connected topology ``G(t)`` from the round's
   :class:`~repro.network.adversary.RoundState` (per-node knowledge counts,
   coded ranks and token columns, read on demand);
2. each node composes its O(b)-bit broadcast message *without knowing its
   neighbours*;
3. every node receives the messages of its ``G(t)``-neighbours.

Omniscient adversaries (``sees_messages``) are instead shown the composed
messages before choosing the topology, which models "knowing all the
randomness in advance" operationally (Section 6).

:func:`run_dissemination` builds the protocol nodes and the optional fault
binding, chooses a :class:`~repro.simulation.kernels.RoundKernel` and hands
it to :func:`~repro.simulation.kernels.run_rounds`, the one round loop: it
enforces the message budget, applies the faults, tracks metrics and the
trace, and detects completion (every node can output every token).  The
runner then verifies payload correctness.  Two kernel families exist:

* **kernel** — a registered packed kernel (see
  :mod:`repro.simulation.kernels`; token forwarding and indexed broadcast
  have one): whole-network state in numpy arrays, materialised back into
  the nodes at the end;
* **mask** — :class:`ObjectKernel` over the per-node protocol objects,
  which runs every protocol.  Each node's knowledge is an incrementally
  maintained integer ``knowledge_mask``, and the per-node and
  whole-network completion read-outs share one shrinking set of
  incomplete nodes; a refresh re-tests only the nodes whose
  ``len(known)`` moved since their last test.  A forwarding message gets
  a token mask once per broadcast, and a node ORs its inbox's masks
  (:meth:`~repro.algorithms.base.ProtocolNode._learn_messages`), so an
  inbox that brings nothing new costs one mask test, with no per-message
  learn call.  A round in which every node composes the very same message
  object as the round before reuses its ``active``/``sizes`` arrays.

Under ``engine="auto"`` the packed kernel runs when the factory is a
registered node class and the configuration is supported; otherwise the
object kernel runs.  Both deliver each node's inbox in ascending
neighbour-uid order and produce identical metrics and trace content for
identical seeds (pinned by tests).  Both rely on the ``known`` dict being
each node's authoritative knowledge record, so a node class that
overrides :meth:`~repro.algorithms.base.ProtocolNode.known_token_ids` is
rejected before round 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..algorithms.base import ProtocolConfig, ProtocolFactory, ProtocolNode
from ..network.adversary import Adversary
from ..network.faults import BoundFaults, FaultModel, SpanGuard
from ..obs.profiler import NULL_PROFILER
from ..obs.trace import TraceRecorder
from ..tokens.message import Message
from ..tokens.token import TokenPlacement
from . import kernels
from .metrics import RunMetrics

__all__ = ["ObjectKernel", "RunResult", "run_dissemination", "build_nodes"]


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
    engine:
        Which execution engine actually ran: ``"kernel"`` or ``"mask"``
        (resolves the ``engine="auto"`` choice for callers).
    """

    metrics: RunMetrics
    nodes: list[ProtocolNode]
    correct: bool | None
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


class ObjectKernel(kernels.RoundKernel):
    """The round kernel over per-node protocol objects (the mask engine).

    ``compose_all`` and ``deliver_all`` call each node's ``compose`` and
    ``deliver``; every read-out comes straight from the nodes, so the
    kernel runs any protocol and has nothing to materialise.  A T-stable
    ``shared_coordinator`` (see :mod:`repro.algorithms.tstable`) sees each
    round's base topology before compose and updates the nodes after
    delivery; a node's change flag then spans both, so what it learns
    through the coordinator is not counted as a useless delivery.

    Per-node costs are kept to what a round can change.  ``compose_all``
    hands back last round's ``active``/``sizes`` arrays when every node
    composed the very same message object that was on last round's wire
    (so no override ran there), and
    :func:`~repro.simulation.kernels.run_rounds` then reuses its budget
    accounting.  The change flags skip ``coded_rank()`` for classes that do
    not override it.  The completion refresh re-tests only the nodes whose
    ``len(known)`` moved since their last test, wherever they learned:
    in ``compose``, in ``deliver`` or through the coordinator.
    """

    def __init__(self, config, placement, token_index, nodes):
        super().__init__(config, placement, token_index, nodes)
        self.nodes = nodes
        self.full_mask = (1 << self.k) - 1
        #: Nodes missing a token as of the last refresh.  Knowledge only
        #: grows, so the set only shrinks; deliveries mark it stale.
        self._incomplete = {
            uid for uid, node in enumerate(nodes) if node.knowledge_mask() != self.full_mask
        }
        #: ``len(known)`` of every node at its last completion test.
        self._tested = [len(node.known) for node in nodes]
        self._incomplete_stale = False
        #: Whether each node's class has a coded rank worth fingerprinting.
        self._ranked = [
            type(node).coded_rank is not ProtocolNode.coded_rank for node in nodes
        ]
        self._coordinator = getattr(nodes[0], "shared_coordinator", None) if nodes else None
        self._topology = None
        self._outgoing: list = []
        self._active: np.ndarray | None = None
        self._sizes: np.ndarray | None = None

    def on_topology(self, round_index, topology):
        self._topology = topology
        if self._coordinator is not None:
            self._coordinator.on_topology(round_index, topology, self.nodes)

    def compose_all(self, round_index):
        composed = [node.compose(round_index) for node in self.nodes]
        previous, self._outgoing = self._outgoing, composed
        # The same message objects as last round's wire: the same arrays
        # describe them.  An override put a new object on that wire, so the
        # round after one never matches.
        if self._sizes is not None and all(map(operator.is_, composed, previous)):
            return self._active, self._sizes
        active = [False] * self.n
        sizes = [0] * self.n
        for uid, message in enumerate(composed):
            if message is not None:
                if not isinstance(message, Message):
                    raise TypeError(f"protocol composed a non-Message object: {type(message)!r}")
                active[uid] = True
                sizes[uid] = message.size_bits
        self._active = np.array(active, dtype=bool)
        self._sizes = np.array(sizes, dtype=np.int64)
        return self._active, self._sizes

    def set_wire_overrides(self, overrides):
        for uid, mask in overrides.items():
            if self._outgoing[uid] is not None:
                message = self.nodes[uid].generation.message_from_mask(uid, mask)
                self._outgoing[uid] = message
                self._sizes[uid] = message.size_bits

    def wire_message(self, uid, round_index):
        return self._outgoing[uid]

    def message_name_of(self, uid):
        return type(self._outgoing[uid]).__name__

    def deliver_all(self, round_index, indices, indptr, active):
        """Deliver each inbox in ascending sender-uid order, empty ones too."""
        wire = list(map(self._outgoing.__getitem__, indices.tolist()))
        bounds = indptr.tolist()
        silent, ranked = not self._active.all(), self._ranked
        coordinator = self._coordinator
        grown, before = [], []
        for uid, node in enumerate(self.nodes):
            inbox = wire[bounds[uid] : bounds[uid + 1]]
            if silent:
                inbox = [message for message in inbox if message is not None]
            size = len(node.known)
            rank = node.coded_rank() if ranked[uid] else 0
            node.deliver(round_index, inbox)
            if coordinator is not None:
                before.append((uid, node, size, rank))
            elif len(node.known) != size or (ranked[uid] and node.coded_rank() != rank):
                grown.append(uid)
        if coordinator is not None:
            # Coordinated nodes may learn only in after_round, so their
            # fingerprints are compared across it.
            coordinator.after_round(round_index, self._topology, self.nodes)
            grown = [
                uid
                for uid, node, size, rank in before
                if len(node.known) != size or (ranked[uid] and node.coded_rank() != rank)
            ]
        self._incomplete_stale = True
        changed = np.zeros(self.n, dtype=bool)
        changed[grown] = True
        return changed

    def _known_counts_now(self):
        counts = (len(node.known) for node in self.nodes)
        return np.fromiter(counts, dtype=np.int64, count=self.n)

    #: Read fresh on every call: a coordinator updates nodes between rounds.
    known_counts = _known_counts_now

    def coded_ranks(self):
        ranks = (node.coded_rank() for node in self.nodes)
        return np.fromiter(ranks, dtype=np.int64, count=self.n)

    def _still_incomplete(self):
        # Incremental: at most once per delivery however many read-outs
        # follow it, and only for incomplete nodes whose ``len(known)``
        # moved since their last test -- a node's mask moves only with it.
        if self._incomplete_stale:
            nodes, tested, full = self.nodes, self._tested, self.full_mask
            done = []
            for uid in self._incomplete:
                node = nodes[uid]
                size = len(node.known)
                if size != tested[uid]:
                    tested[uid] = size
                    if node.knowledge_mask() == full:
                        done.append(uid)
            self._incomplete.difference_update(done)
            self._incomplete_stale = False
        return self._incomplete

    def completed_flags(self):
        flags = np.ones(self.n, dtype=bool)
        flags[list(self._still_incomplete())] = False
        return flags

    def all_complete(self):
        return not self._still_incomplete()

    def finished_all(self):
        return all(node.finished() for node in self.nodes)

    def knows(self, token_id):
        known = (token_id in node.known for node in self.nodes)
        return np.fromiter(known, dtype=bool, count=self.n)


def run_dissemination(
    factory: ProtocolFactory,
    config: ProtocolConfig,
    placement: TokenPlacement,
    adversary: Adversary,
    *,
    seed: int = 0,
    max_rounds: int | None = None,
    stop_at_completion: bool = True,
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
    track_progress:
        Record per-round (min, mean) known-token counts in the metrics.
    engine:
        ``"auto"`` (kernel when applicable, else mask), ``"kernel"``
        (require a registered packed
        :class:`~repro.simulation.kernels.RoundKernel`; raises if the
        protocol has none, or if an omniscient adversary needs message
        views the kernel does not offer) or ``"mask"``
        (the :class:`ObjectKernel` over per-node objects, which runs every
        protocol).  Every
        engine raises ``ValueError`` before round 0 for a node class that
        overrides ``known_token_ids()``.
    faults:
        Optional :class:`~repro.network.faults.FaultModel` — the hostile
        axis orthogonal to ``adversary``: per-edge loss/duplication,
        crash–recovery intervals and permanent crashes, scheduled
        partitions, adaptive :class:`~repro.network.faults.FaultStrategy`
        adversaries (which may read the round's protocol state), Byzantine
        coded senders, radio-collision rounds and
        fake quorum membership.  Fault randomness comes from one
        ``rng.spawn``-ed stream drawn after node construction, so a benign
        model leaves the run bit-identical to ``faults=None``.  Under
        faults the stop rule, the reported correctness and the survivor
        metrics are computed over the never-permanently-crashed honest
        population (recovering nodes included, fake quorum members
        excluded).  A :class:`~repro.network.faults.QuorumModel`
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

    # Packed-kernel dispatch: the factory must *be* a registered node class
    # (exact identity, so subclasses never inherit a kernel) and the kernel
    # must support this configuration.
    kernel_cls = kernels.kernel_for(factory, config)
    if engine == "kernel" and kernel_cls is None:
        raise ValueError(
            "engine='kernel' requires the protocol factory to be a node "
            "class with a registered RoundKernel (see "
            "repro.simulation.kernels.register_kernel)"
        )
    use_kernel = engine == "kernel" or (engine == "auto" and kernel_cls is not None)
    kernel = None
    if use_kernel:
        try:
            kernel = kernel_cls(config, placement, token_index, nodes)
        except kernels.KernelUnsupported as exc:
            # Placement-level preconditions are checked on construction;
            # auto falls back to the object kernel, an explicit request fails.
            if engine == "kernel":
                raise ValueError(str(exc)) from exc
    run_engine = "mask" if kernel is None else "kernel"
    if kernel is None:
        kernel = ObjectKernel(config, placement, token_index, nodes)
    if trace is not None:
        trace.begin_run(
            config=config, seed=seed, engine=run_engine, factory=factory, faults=faults
        )
    kernels.run_rounds(
        kernel,
        config,
        adversary,
        metrics,
        max_rounds=max_rounds,
        stop_at_completion=stop_at_completion,
        track_progress=track_progress,
        faults=bound,
        trace=trace,
    )
    profiler = NULL_PROFILER if trace is None else trace.profiler
    with profiler.span("materialise"):
        kernel.to_nodes(nodes)
    completed = kernel.completed_flags()
    return RunResult(
        metrics=metrics,
        nodes=nodes,
        correct=_finish_run(metrics, bound, completed, nodes, placement),
        engine=run_engine,
    )
