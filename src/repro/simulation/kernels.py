"""The round kernels and the one round loop that drives them.

A :class:`RoundKernel` holds the whole network's protocol state and exposes
the per-round hooks :func:`run_rounds` calls: ``compose_all`` (every node's
broadcast at once, as ``active``/``sizes`` arrays), ``deliver_all`` (the
round's inboxes over CSR adjacency, returning per-node change flags) and the
read-outs the adversary, the fault plan, the trace and the stop rule need.
:func:`run_rounds` owns everything else exactly once: topology choice and
validation, the Section 6 omniscient order, fault binding and accounting,
the budget check, delivery and useless-delivery counting, progress, the
trace and the (survivor) stop rule.

Two kernel families run through that loop:

* the **object kernel** (:class:`~repro.simulation.runner.ObjectKernel`,
  the ``"mask"`` engine) wraps the per-node protocol objects and runs every
  protocol;
* the **packed kernels** (the ``"kernel"`` engine) keep one protocol's
  whole-network state in numpy arrays and build no per-node Python objects
  on the hot path.  There are two:

  - :class:`TokenForwardingKernel` — phase-based flooding forwarding over an
    ``(n, ceil(k/64))`` ``uint64`` knowledge matrix; token selection,
    delivery and phase commits are packed-array ops;
  - :class:`~repro.simulation.coded_kernels.IndexedBroadcastKernel` — RLNC
    indexed broadcast on one batched GF(2) elimination core
    (:class:`~repro.gf.packed.GF2BasisBatch`).

A packed kernel is a second implementation of its protocol, with its own
parity tests, wire messages, ``knows`` column and ``to_nodes``.  The rule for
keeping one: **a packed kernel stays only if it is ≥2× faster than mask on
a run of ≥1 s at a size some bench or test uses.**  The run length is the
mask engine's wall time.  Both kernels above clear it by more than 3.5×
on the perfbench workloads they serve; every other protocol (greedy-forward,
naive coded, random forward, pipelined forwarding, ...) runs on the object
kernel alone.

Packed and object kernels report byte-identical
:class:`~repro.simulation.metrics.RunMetrics` and trace content for
identical seeds: the node rng streams come from the same ``rng.spawn``
order, and every random draw is made against the same per-node generator in
the same order.  A finished packed run is written back into ordinary
protocol nodes by :meth:`RoundKernel.to_nodes`, so ``RunResult.nodes`` and
the correctness check work unchanged.

Custom protocols can register their own kernels with
:func:`register_kernel`; ``run_dissemination(engine="auto")`` picks the
packed kernel whenever the factory is a registered node class and the
configuration is supported.  Every kernel builds the per-node wire messages
an omniscient adversary reads (:meth:`RoundKernel.wire_message` is
abstract).
"""

from __future__ import annotations

import abc
from collections.abc import Sequence as _SequenceABC
from typing import Callable, Mapping, Sequence

import numpy as np

from ..algorithms.base import ProtocolConfig, ProtocolNode
from ..algorithms.token_forwarding import TokenForwardingNode, tokens_per_message
from ..bits import (
    iter_bits,
    masks_to_packed,
    pack_bools,
    packed_to_masks,
    unpack_bools,
    word_count,
)
from ..network.adversary import Adversary, RoundState
from ..network.topology import as_topology
from ..obs.profiler import NULL_PROFILER
from ..tokens.message import MessageSizeExceeded, TokenForwardMessage
from ..tokens.token import TokenId, TokenPlacement
from .metrics import RunMetrics

__all__ = [
    "KERNEL_REGISTRY",
    "KernelUnsupported",
    "RoundKernel",
    "TokenForwardingKernel",
    "IndexedBroadcastKernel",
    "kernel_for",
    "register_kernel",
    "run_rounds",
]


class KernelUnsupported(Exception):
    """Raised by a kernel constructor when the built nodes cannot be lifted.

    ``kernel_for`` screens on the *configuration*; some preconditions
    depend on the placement (the coded kernel needs placement tokens
    indexed bijectively ``0..k-1``).  Under
    ``engine="auto"`` the runner catches this and falls back to the mask
    engine; an explicit ``engine="kernel"`` surfaces it as a ``ValueError``.
    """


# ----------------------------------------------------------------------
# packed-row helpers
# ----------------------------------------------------------------------


def _popcount_rows(matrix: np.ndarray) -> np.ndarray:
    return np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)


def _select_lowest_bits(
    pending: np.ndarray, batch: int, costs: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Select the up-to-``batch`` lowest set bits of every packed row.

    Returns the selection as a packed matrix of the same shape and, when
    ``costs`` (one entry per bit index) is given, the per-row cost sum of
    the selected bits.  This is the whole-network twin of the per-node
    "smallest pending tokens" prefix scan, batch-independent: unpack, rank
    each row's set bits with a running cumsum, keep ranks ``<= batch``,
    repack — a fixed handful of O(n * k) vectorised passes.
    """
    bits = unpack_bools(pending, 64 * pending.shape[1])
    keep = bits & (np.cumsum(bits, axis=1, dtype=np.int32) <= batch)
    selection = pack_bools(keep)
    sizes = None
    if costs is not None:
        k = costs.shape[0]
        sizes = np.where(keep[:, :k], costs, 0).sum(axis=1)
    return selection, sizes


def _neighbor_or(
    send: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    *,
    full_segments: bool = False,
) -> np.ndarray:
    """Per-node OR of the neighbours' packed send rows (the propagation step).

    One gather plus one ``reduceat``.  A validated (connected, n >= 2)
    topology has no empty neighbour segments, but the *effective* CSR a
    fault plan edits (crashed endpoints and lost edges removed) can leave
    some.  ``reduceat`` needs every start index in-bounds, so the gathered
    rows get one zero pad row: trailing empty segments (start ==
    ``indices.size``) reduce over the pad — clamping the start instead
    would truncate the preceding segment and drop its last neighbour.
    Interior empty segments (``reduceat`` returns the single element at
    the start, a real row) are zeroed explicitly.  A caller that knows no
    segment is empty (``full_segments``) skips both guards.
    """
    if indices.size == 0:
        return np.zeros_like(send)
    if full_segments:
        return np.bitwise_or.reduceat(send[indices], indptr[:-1], axis=0)
    rows = np.concatenate(
        (send[indices], np.zeros((1, send.shape[1]), dtype=send.dtype))
    )
    inbox = np.bitwise_or.reduceat(rows, indptr[:-1], axis=0)
    empty = np.diff(indptr) == 0
    if empty.any():
        inbox[empty] = 0
    return inbox


class _LazySequence(_SequenceABC):
    """A length-``n`` read-only sequence whose items are built on access.

    The omniscient adversary's per-round message views: one that inspects
    a handful of nodes pays for a handful of messages.
    """

    __slots__ = ("_n", "_item")

    def __init__(self, n: int, item: Callable[[int], object]):
        self._n = n
        self._item = item

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._item(i) for i in range(*index.indices(self._n))]
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(index)
        return self._item(index)


# ----------------------------------------------------------------------
# the kernel contract and registry
# ----------------------------------------------------------------------


class RoundKernel(abc.ABC):
    """Whole-network protocol state plus the per-round hooks of :func:`run_rounds`.

    A kernel is constructed from the freshly built (and mask-enabled) node
    objects, executes rounds through :meth:`compose_all` /
    :meth:`deliver_all`, and finally leaves its terminal state in the same
    node objects via :meth:`to_nodes`.
    """

    #: Message class name used in budget-violation errors.
    message_name = "Message"
    #: The node class this kernel implements (set by :func:`register_kernel`).
    node_class: type | None = None

    def __init__(
        self,
        config: ProtocolConfig,
        placement: TokenPlacement,
        token_index: Mapping[TokenId, int],
        nodes: Sequence[ProtocolNode],
    ):
        self.config = config
        self.n = config.n
        self.token_index = token_index
        by_id = placement.by_id()
        #: Placement tokens in bit-index order (token ids sort ascending).
        self.tokens = [by_id[tid] for tid in sorted(token_index)]
        self.k = len(self.tokens)
        self._counts_cache: np.ndarray | None = None
        #: Phase profiler; the engine loop swaps in the trace recorder's
        #: profiler when tracing with a clock (inert by default, so spans
        #: on kernel hot paths cost one no-op context enter).
        self.profiler = NULL_PROFILER

    # ------------------------------------------------------------------
    @classmethod
    def supports(cls, config: ProtocolConfig) -> bool:
        """Whether this kernel implements the protocol under ``config``."""
        return True

    @abc.abstractmethod
    def compose_all(self, round_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Select every node's round broadcast at once.

        Returns ``(active, sizes)``: a boolean array marking nodes that
        broadcast (False = silence) and the per-node message sizes in bits
        (zero for silent nodes).  The composed payloads stay inside the
        kernel for :meth:`deliver_all`.

        **Identity contract.**  Returning the very ``active`` and ``sizes``
        objects of the previous call promises that their contents are what
        they were when that round's accounting read them; :func:`run_rounds`
        then reuses that round's broadcast count, maximum and total bits
        (unless a node is down or a wire is substituted this round).  A
        kernel that changes either array must return new objects, and one
        whose :meth:`set_wire_overrides` wrote into ``sizes`` must not hand
        it back the next round.
        """

    @abc.abstractmethod
    def deliver_all(
        self,
        round_index: int,
        indices: np.ndarray,
        indptr: np.ndarray,
        active: np.ndarray,
    ) -> np.ndarray:
        """Deliver the round over CSR adjacency; return per-node change flags.

        ``indices`` / ``indptr`` are the round's effective CSR neighbour
        arrays (ascending neighbour uid per node — the delivery order) and
        ``active`` the sending flags.  The returned boolean array must be
        True exactly where the node's ``(len(known), coded_rank)``
        fingerprint changed — the useless-delivery criterion.
        """

    @abc.abstractmethod
    def _known_counts_now(self) -> np.ndarray:
        """Per-node ``len(known)``, freshly computed."""

    def known_counts(self) -> np.ndarray:
        """Per-node ``len(known)`` (cached until the next delivery)."""
        if self._counts_cache is None:
            self._counts_cache = self._known_counts_now()
        return self._counts_cache

    def coded_ranks(self) -> np.ndarray:
        """Per-node ``coded_rank()``, whole-network (zeros for uncoded).

        The trace recorder's rank column.  Forwarding kernels have no
        coded state — their nodes' ``coded_rank()`` is 0 — so the default
        is the zero vector; the coded kernel overrides it with its batched
        GF(2) ranks.
        """
        return np.zeros(self.n, dtype=np.int64)

    def completed_flags(self) -> np.ndarray:
        """Per-node completion: the node knows every placement token.

        The default equates ``known_counts() >= k`` with completion, which
        is exact for kernels whose nodes can only ever learn placement
        tokens.  Kernels that may also record *foreign* tokens (garbage
        decodes of mixed-generation coded traffic under faults) must
        override with a placement-bit test — a count can reach ``k``
        without covering the placement.
        """
        return self.known_counts() >= self.k

    @abc.abstractmethod
    def all_complete(self) -> bool:
        """True iff every node knows every placement token."""

    def finished_all(self) -> bool:
        """True iff every node has locally terminated (default: never)."""
        return False

    @abc.abstractmethod
    def knows(self, token_id: TokenId) -> np.ndarray:
        """Per-node bool column: which nodes can decode ``token_id`` now."""

    def round_state(self) -> RoundState:
        """The current round's state for the adversary and fault strategy."""
        return RoundState(self)

    @abc.abstractmethod
    def wire_message(self, uid: int, round_index: int):
        """Materialise node ``uid``'s wire message for the *current* round.

        Only called between ``compose_all`` and ``deliver_all``, and only for
        active nodes; omniscient (``sees_messages``) adversaries read the
        round's messages through it.  Must rebuild exactly the Message
        object the node class would have composed (same content, same
        ordering), so omniscient adversaries see identical messages on every
        engine.
        """

    def message_views(self, round_index: int, active: np.ndarray) -> Sequence:
        """Lazy sequence of this round's wire messages (None = silent)."""
        return _LazySequence(
            self.n,
            lambda uid: self.wire_message(uid, round_index) if active[uid] else None,
        )

    def message_name_of(self, uid: int) -> str:
        """Class name of node ``uid``'s message this round (budget errors)."""
        return self.message_name

    def set_wire_overrides(self, overrides: Mapping[int, int]) -> None:
        """Substitute listed senders' wire vectors for the current round.

        The Byzantine-replay hook: ``overrides`` maps uid -> GF(2) vector
        mask; every copy the node delivers this round (and its message
        view) carries the substituted vector instead of the honest
        composition.  Only the indexed-broadcast kernel and the object
        kernel can represent this.
        """
        raise RuntimeError(
            f"{type(self).__name__} cannot substitute wire vectors; "
            "rerun with engine='mask'"
        )

    def on_topology(self, round_index: int, topology) -> None:
        """Called once the round's base topology is validated (default: no-op)."""

    def to_nodes(self, nodes: Sequence[ProtocolNode]) -> None:
        """Write the terminal packed state back into the node objects."""


KERNEL_REGISTRY: dict[object, type[RoundKernel]] = {}


def register_kernel(node_class: type):
    """Class decorator registering a :class:`RoundKernel` for a node class.

    Registration is by *exact* class identity: a subclass may change
    behaviour arbitrarily, so it never inherits its parent's kernel (it
    runs on the mask engine until it registers its own).
    """

    def decorator(kernel_cls: type[RoundKernel]) -> type[RoundKernel]:
        KERNEL_REGISTRY[node_class] = kernel_cls
        kernel_cls.node_class = node_class
        return kernel_cls

    return decorator


def kernel_for(factory, config: ProtocolConfig) -> type[RoundKernel] | None:
    """The registered kernel class for a protocol factory, or None.

    Only factories that *are* a registered node class resolve (closures,
    ``functools.partial`` wrappers and subclasses fall back to the mask
    engine); the kernel may further decline unsupported configurations
    through :meth:`RoundKernel.supports`.
    """
    try:
        kernel_cls = KERNEL_REGISTRY.get(factory)
    except TypeError:  # unhashable factory
        return None
    if kernel_cls is None or not kernel_cls.supports(config):
        return None
    return kernel_cls


# ----------------------------------------------------------------------
# the engine loop
# ----------------------------------------------------------------------


def _delivery_counts(
    sending: np.ndarray, indices: np.ndarray, receivers: np.ndarray, changed: np.ndarray
) -> tuple[int, int]:
    """A round's deliveries and useless deliveries, from its CSR entries.

    Every entry whose sender transmits is one delivery, repeated entries
    included, and it is useless unless its receiver (``receivers``, one
    per entry) learned something.  The effective CSR's receivers come from
    the fault plan, so benign and faulted rounds count alike.
    """
    live = sending[indices]
    delivered = int(np.count_nonzero(live))
    return delivered, delivered - int(np.count_nonzero(live & changed[receivers]))


def run_rounds(
    kernel: RoundKernel,
    config: ProtocolConfig,
    adversary: Adversary,
    metrics: RunMetrics,
    *,
    max_rounds: int,
    stop_at_completion: bool,
    track_progress: bool,
    faults=None,
    trace=None,
) -> None:
    """Execute the synchronous rounds of one run on ``kernel``.

    The one round loop, for packed and object kernels alike.  Per round
    (Section 4.1): the adversary fixes ``G(t)`` from the kernel's
    :class:`~repro.network.adversary.RoundState`, the
    topology is validated (identity-cached) and handed to
    :meth:`RoundKernel.on_topology`, ``compose_all`` runs, then budget and
    broadcast accounting, CSR delivery through ``deliver_all``, delivery
    and useless-delivery counting straight from the CSR entries
    (:func:`_delivery_counts`), and the progress, trace and completion
    bookkeeping.  An
    omniscient (``sees_messages``) adversary instead chooses after
    ``compose_all`` and is shown the composed messages (Section 6); its
    state is frozen *before* composing, because a kernel may change node
    state inside ``compose_all`` (a multi-phase coded node's flood ->
    broadcast transition) and the adversary must not see that.  The fault
    strategy gets a state of its own, read after composing.

    ``faults`` (a :class:`~repro.network.faults.BoundFaults`) edits the
    round's CSR into its effective form — crashed endpoints and lost edges
    removed, duplicated edges repeated — before delivery, substitutes
    Byzantine senders' wire vectors, and switches the stop rule to
    *survivor* completion (population completion may be unreachable once a
    token holder crashes).

    ``trace`` (a :class:`~repro.obs.trace.TraceRecorder`, already bound via
    ``begin_run``) receives one ``observe_round`` per executed round, and
    its phase profiler is installed on the kernel so coded internals
    (insert/decode) report into the same report.
    """
    n = config.n
    limit = config.budget.limit_bits
    profiler = NULL_PROFILER if trace is None else trace.profiler
    kernel.profiler = profiler

    def compose(round_index, plan):
        with profiler.span("compose"):
            active, sizes = kernel.compose_all(round_index)
        if plan is not None and plan.substitute:
            kernel.set_wire_overrides(plan.substitute)
        return active, sizes

    last_active = last_sizes = None
    broadcasts = max_bits = total_bits = 0
    for round_index in range(max_rounds):
        plan = faults.begin_round(round_index) if faults is not None else None
        if adversary.sees_messages:
            state = kernel.round_state().freeze()
            active, sizes = compose(round_index, plan)
            messages = kernel.message_views(round_index, active)
            graph = adversary.choose_topology(round_index, n, state, messages)
        else:
            graph = adversary.choose_topology(round_index, n, kernel.round_state())
        # A topology remembers that it validated (batch views arrive
        # pre-validated), so a reused one costs a flag test.
        topology = as_topology(graph)
        topology.validate(n)
        kernel.on_topology(round_index, topology)
        if not adversary.sees_messages:
            active, sizes = compose(round_index, plan)

        indices, indptr = topology.csr_adjacency()
        receivers = topology.csr_receivers()
        if plan is not None:
            # The compose-time ``active`` mask feeds the collision rule,
            # and the strategy's state is a fresh one, read after compose.
            with profiler.span("faults"):
                indices, indptr = plan.bind_edges(
                    indices, indptr, active=active, receivers=receivers,
                    state=kernel.round_state(),
                )
            receivers = plan.receivers

        # A crashed node's radio is off: it still composes (identical rng
        # consumption on every kernel) but transmits nothing.
        down = plan is not None and bool(plan.down.any())
        sending = active & ~plan.down if down else active
        edited = down or (plan is not None and bool(plan.substitute))
        if edited or active is not last_active or sizes is not last_sizes:
            broadcasts = int(np.count_nonzero(sending))
            max_bits = total_bits = 0
            if broadcasts:
                sent_sizes = np.where(sending, sizes, 0) if down else sizes
                max_bits = int(sent_sizes.max())
                if max_bits > limit:
                    name = kernel.message_name_of(int(np.argmax(sent_sizes)))
                    raise MessageSizeExceeded(
                        f"{name} is {max_bits} bits, exceeding the "
                        f"budget of {limit} bits (b={config.budget.b}, "
                        f"slack={config.budget.slack})"
                    )
                total_bits = int(sent_sizes.sum())
            # The identity contract of compose_all: the very same arrays
            # next round, with no node down and no substitution, carry
            # these sums again.
            last_active, last_sizes = (None, None) if edited else (active, sizes)
        metrics.silent_rounds += n - broadcasts
        metrics.broadcasts += broadcasts
        metrics.total_message_bits += total_bits
        if max_bits > metrics.max_message_bits:
            metrics.max_message_bits = max_bits

        discarded = 0
        if plan is not None:
            stats = plan.account(sending)
            metrics.dropped_deliveries += stats.dropped
            metrics.duplicated_deliveries += stats.duplicated
            metrics.corrupted_deliveries += stats.corrupted
            metrics.collided_deliveries += stats.collided
            discarded = stats.discarded
        with profiler.span("deliver"):
            changed = kernel.deliver_all(round_index, indices, indptr, sending)

        delivered, useless = _delivery_counts(sending, indices, receivers, changed)
        metrics.deliveries += delivered + discarded
        metrics.useless_deliveries += useless

        metrics.rounds_executed = round_index + 1

        if track_progress:
            known = kernel.known_counts()
            metrics.progress.append(
                (round_index + 1, int(known.min()), float(np.mean(known)))
            )

        if trace is not None:
            trace.observe_round(
                round_index,
                metrics,
                kernel.known_counts(),
                kernel.coded_ranks(),
                plan,
            )

        if metrics.completion_round is None and kernel.all_complete():
            metrics.completion_round = round_index + 1
        if faults is None:
            done = metrics.completion_round is not None
        else:
            if metrics.survivor_completion_round is None:
                complete = kernel.completed_flags()
                if bool(complete[faults.survivor_indices].all()):
                    metrics.survivor_completion_round = round_index + 1
            done = metrics.survivor_completion_round is not None

        if done:
            if stop_at_completion or kernel.finished_all():
                break


# ----------------------------------------------------------------------
# packed token forwarding
# ----------------------------------------------------------------------


@register_kernel(TokenForwardingNode)
class TokenForwardingKernel(RoundKernel):
    """Phase-based flooding forwarding as packed array ops.

    Knowledge is one packed ``(n, ceil(k/64))`` bit matrix.  Per round: one
    ``_select_lowest_bits`` pass picks every node's ``batch`` smallest
    known-but-undelivered tokens (identical to the per-node sorted-pending
    prefix), delivery is one gather + OR-reduce, and the consistent
    phase-boundary commit is a second selection pass OR-ed into the packed
    ``delivered`` matrix.

    A node's broadcast only changes when its pending set does, so the
    selection is cached row-wise and recomputed for *dirty* rows only
    (knowledge grew, or a phase commit touched the node) — the array twin
    of the node-level memoised ``compose``.

    **Saturated rounds skip delivery.**  Let U be the OR of every node's
    send row and I the AND of every node's known row.  Every inbox is an
    OR of some send rows, so it is a subset of U — whatever the topology,
    and whatever a fault edit does to the CSR: lost edges and crashed
    endpoints remove rows from the OR, duplicated edges repeat rows
    already in it, and a collision keeps at most one of them.  If
    U ⊆ I, every inbox is already known by its receiver and no row of
    ``known`` can change, so :meth:`deliver_all` returns all-False
    ``changed`` without the gather; ``known``, the cached counts and the
    cached :meth:`all_complete` result stay valid, and the phase commit
    still runs.  ``known`` and the send rows change only on dirty rows,
    so :meth:`compose_all` recomputes the flag (two ``(n, words)``
    reductions) exactly when it recomputes dirty rows.  In a flooding
    phase the batch reaches every node within the dynamic diameter, so
    most of an ``n``-round phase is saturated.

    **Quiet rounds compose nothing.**  Rows turn dirty only in a delivery
    that was not skipped and in a phase commit, and both also set the
    Python flag ``_recompose``, so a round after one that did neither
    returns the cached ``_active`` and ``_sizes`` objects without a numpy
    call, and :func:`run_rounds` reuses their budget accounting (the
    identity contract of :meth:`RoundKernel.compose_all`).  A recompose
    that changes rows writes them into new arrays.
    """

    message_name = "TokenForwardMessage"

    def __init__(self, config, placement, token_index, nodes):
        super().__init__(config, placement, token_index, nodes)
        self.batch = tokens_per_message(config)
        self.width = word_count(self.k)
        #: Wire cost of each token by bit index (id bits + payload bits).
        self.costs = np.array(
            [t.token_id.bits + t.size_bits for t in self.tokens], dtype=np.int64
        )
        self.known = masks_to_packed(
            [sum(1 << token_index[tid] for tid in node.known) for node in nodes], self.width
        )
        self.phase_length = config.extra_int("phase_length", config.n)
        self.delivered = np.zeros_like(self.known)
        self._sizes = np.zeros(self.n, dtype=np.int64)
        self._active = np.zeros(self.n, dtype=bool)
        self._send = np.zeros_like(self.known)
        self._dirty = np.ones(self.n, dtype=bool)
        #: Set wherever ``_dirty`` is OR-ed; while False, compose_all has
        #: nothing to redo.
        self._recompose = True
        #: True when no inbox can teach its receiver anything (see above).
        self._saturated = False
        self._complete: bool | None = None
        self._canonical_indptr: np.ndarray | None = None

    def on_topology(self, round_index, topology):
        # A validated round topology is connected, so its canonical CSR
        # has no empty segment; only a fault edit hands deliver_all
        # different arrays, and those may have some.
        self._canonical_indptr = topology.csr_adjacency()[1]

    def compose_all(self, round_index):
        if not self._recompose:
            return self._active, self._sizes
        self._recompose = False
        rows = np.flatnonzero(self._dirty)
        if rows.size:
            pending = self.known[rows] & ~self.delivered[rows]
            selection, sizes = _select_lowest_bits(pending, self.batch, self.costs)
            self._send[rows] = selection
            # New arrays, not edits in place (compose_all's identity contract).
            self._sizes = self._sizes.copy()
            self._sizes[rows] = sizes
            self._active = self._active.copy()
            self._active[rows] = pending.any(axis=1)
            self._dirty[rows] = False
            union = np.bitwise_or.reduce(self._send, axis=0)
            common = np.bitwise_and.reduce(self.known, axis=0)
            self._saturated = not (union & ~common).any()
        return self._active, self._sizes

    def wire_message(self, uid, round_index):
        # The selection row's ascending bit order is exactly the node's
        # sorted-pending prefix order.
        (send,) = packed_to_masks(self._send[uid : uid + 1])
        return TokenForwardMessage(
            sender=uid, tokens=tuple(self.tokens[i] for i in iter_bits(send))
        )

    def deliver_all(self, round_index, indices, indptr, active):
        if self._saturated:
            # Every inbox lies inside U ⊆ I (class docstring): nothing to learn.
            changed = np.zeros(self.n, dtype=bool)
        else:
            inbox = _neighbor_or(
                self._send, indices, indptr,
                full_segments=indptr is self._canonical_indptr,
            )
            new = self.known | inbox
            changed = (new != self.known).any(axis=1)
            self.known = new
            self._counts_cache = None
            self._complete = None
            self._dirty |= changed
            self._recompose = True
        if (round_index + 1) % self.phase_length == 0:
            commit, _ = _select_lowest_bits(
                self.known & ~self.delivered, self.batch, None
            )
            self.delivered |= commit
            self._dirty |= commit.any(axis=1)
            self._recompose = True
        return changed

    # ------------------------------------------------------------------
    def _known_counts_now(self) -> np.ndarray:
        return _popcount_rows(self.known)

    def all_complete(self) -> bool:
        # ``known`` holds placement bits only, so a row is full exactly
        # when its popcount reaches k.  The result is cached too, so
        # saturated rounds skip the compare as well as the gather.
        if self._complete is None:
            self._complete = bool(self.completed_flags().all())
        return self._complete

    def knows(self, token_id):
        bit = self.token_index.get(token_id)
        if bit is None:
            return np.zeros(self.n, dtype=bool)
        return unpack_bools(self.known, bit + 1)[:, bit]

    def to_nodes(self, nodes):
        # Rows as bit-index lists from one unpack; a full row (the common
        # end state) copies one shared dict instead of rebuilding it.
        tokens = self.tokens
        ids = [token.token_id for token in tokens]
        everything = dict(zip(ids, tokens))
        known_bits = unpack_bools(self.known, self.k)
        full = known_bits.all(axis=1).tolist()
        delivered_bits = unpack_bools(self.delivered, self.k)
        pending_bits = known_bits & ~delivered_bits
        for uid, node in enumerate(nodes):
            node.known.clear()
            if full[uid]:
                node.known.update(everything)
            else:
                node.known.update(
                    (ids[i], tokens[i]) for i in np.flatnonzero(known_bits[uid]).tolist()
                )
            node.delivered = {ids[i] for i in np.flatnonzero(delivered_bits[uid]).tolist()}
            node._sorted_known = [
                tokens[i] for i in np.flatnonzero(pending_bits[uid]).tolist()
            ]
            node._invalidate_compose_cache()


# ----------------------------------------------------------------------
# the coded kernel (registered on import; see coded_kernels.py)
# ----------------------------------------------------------------------

# The indexed-broadcast kernel rides the batched GF(2) elimination core of
# repro.gf.packed and lives in its own module; importing it here registers
# it and keeps the historical import path
# ``repro.simulation.kernels.IndexedBroadcastKernel`` working.
from .coded_kernels import IndexedBroadcastKernel  # noqa: E402  (registration import)
