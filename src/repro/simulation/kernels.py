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
parity tests, wire messages, state views and ``to_nodes``.  The rule for
keeping one: **a packed kernel stays only if it is ≥2× faster than mask on
a run of ≥1 s at a size some bench or test uses.**  The run length is the
mask engine's wall time.  Both kernels above clear it by more than 5× on
the perfbench workloads they serve; every other protocol (greedy-forward,
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
packed kernel whenever the factory is a registered node class, the
configuration is supported and the kernel offers the message and state
views the adversary and fault strategy need.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence as _SequenceABC
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ..algorithms.base import ProtocolConfig, ProtocolNode
from ..algorithms.token_forwarding import TokenForwardingNode, tokens_per_message
from ..network.adversary import Adversary, NodeStateView
from ..network.faults import StateView
from ..network.topology import TopologyValidationCache, _iter_bits
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

    ``kernel_for`` screens on the *configuration*; some preconditions are
    only visible on the constructed node objects (e.g. a coding state forced
    off the mask-native pipeline).  Under ``engine="auto"`` the runner
    catches this and falls back to the mask engine; an explicit
    ``engine="kernel"`` surfaces it as a ``ValueError``.
    """


# ----------------------------------------------------------------------
# packed-row helpers
# ----------------------------------------------------------------------


def _packed_width(k: int) -> int:
    """Words per packed knowledge row (at least one, so shapes stay 2-D)."""
    return max(1, (k + 63) // 64)


def _full_row(k: int, width: int) -> np.ndarray:
    """A packed row with exactly bits ``0..k-1`` set."""
    full = np.zeros(width, dtype=np.uint64)
    whole, rem = divmod(k, 64)
    full[:whole] = ~np.uint64(0)
    if rem:
        full[whole] = np.uint64((1 << rem) - 1)
    return full


def _row_bits(row: np.ndarray) -> Iterator[int]:
    """Yield the set bit positions of one packed uint64 row, ascending."""
    return _iter_bits(
        int.from_bytes(np.ascontiguousarray(row, dtype="<u8").tobytes(), "little")
    )


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
    n, width = pending.shape
    bits = np.unpackbits(
        pending.view(np.uint8).reshape(n, -1), axis=1, bitorder="little"
    )
    ranks = np.cumsum(bits, axis=1, dtype=np.int32)
    keep = (bits != 0) & (ranks <= batch)
    selection = (
        np.packbits(keep, axis=1, bitorder="little").view(np.uint64).reshape(n, width)
    )
    sizes = None
    if costs is not None:
        k = costs.shape[0]
        sizes = np.where(keep[:, :k], costs, 0).sum(axis=1)
    return selection, sizes


def _neighbor_or(send: np.ndarray, indices: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-node OR of the neighbours' packed send rows (the propagation step).

    One gather plus one ``reduceat``.  A validated (connected, n >= 2)
    topology has no empty neighbour segments, but the *effective* CSR a
    fault plan edits (crashed endpoints and lost edges removed) can leave
    some.  ``reduceat`` needs every start index in-bounds, so the gathered
    rows get one zero pad row: trailing empty segments (start ==
    ``indices.size``) reduce over the pad — clamping the start instead
    would truncate the preceding segment and drop its last neighbour.
    Interior empty segments (``reduceat`` returns the single element at
    the start, a real row) are zeroed explicitly.
    """
    if indices.size == 0:
        return np.zeros_like(send)
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

    The adversary's per-round state and message views: an oblivious
    adversary never reads them, so they cost no per-node work, and one
    that inspects a handful of nodes pays for a handful of items.
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
    #: Whether :meth:`wire_message` can materialise this round's per-node
    #: message objects (keeps omniscient adversaries kernel-eligible).
    supports_message_views = False
    #: Whether the kernel can hand a per-round
    #: :class:`~repro.network.faults.StateView` (knowledge counts + coded
    #: ranks) to state-aware fault strategies.  The base class already
    #: exposes both columns, so every kernel supports this by default; a
    #: kernel whose counts/ranks are not faithful mid-round must opt out.
    supports_state_views = True

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
        """

    @abc.abstractmethod
    def deliver_all(
        self,
        round_index: int,
        indices: np.ndarray,
        indptr: np.ndarray,
        active: np.ndarray,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Deliver the round over CSR adjacency; return per-node change flags.

        ``indices`` / ``indptr`` are the round's effective CSR neighbour
        arrays (ascending neighbour uid per node — the delivery order),
        ``active`` the sending flags and ``counts`` the per-node number of
        sending neighbours.  The returned boolean array must be True
        exactly where the node's ``(len(known), coded_rank)`` fingerprint
        changed — the useless-delivery criterion.
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
    def state_view(self, uid: int) -> NodeStateView:
        """The sanitised adversary view of one node (built on demand)."""

    def state_views(self) -> Sequence[NodeStateView]:
        """Lazy sequence of this round's state views."""
        return _LazySequence(self.n, self.state_view)

    def wire_message(self, uid: int, round_index: int):
        """Materialise node ``uid``'s wire message for the *current* round.

        Only called between ``compose_all`` and ``deliver_all``, only for
        active nodes, and only when ``supports_message_views`` is True.
        Must rebuild exactly the Message object the node class would have
        composed (same content, same ordering), so omniscient adversaries
        see identical messages on every engine.
        """
        raise RuntimeError(
            f"{type(self).__name__} does not build per-node message views"
        )

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


def run_rounds(
    kernel: RoundKernel,
    config: ProtocolConfig,
    adversary: Adversary,
    metrics: RunMetrics,
    *,
    max_rounds: int,
    stop_at_completion: bool,
    record_topologies: bool,
    track_progress: bool,
    faults=None,
    trace=None,
) -> list:
    """Execute the synchronous rounds of one run on ``kernel``.

    The one round loop, for packed and object kernels alike.  Per round
    (Section 4.1): the adversary fixes ``G(t)`` from lazy state views, the
    topology is validated (identity-cached) and handed to
    :meth:`RoundKernel.on_topology`, ``compose_all`` runs, then budget and
    broadcast accounting, CSR delivery through ``deliver_all`` and the
    useless-delivery, progress, trace and completion bookkeeping.  An
    omniscient (``sees_messages``) adversary instead chooses after
    ``compose_all`` and is shown the composed messages (Section 6); its
    state views are built *before* composing, because a kernel may change
    node state inside ``compose_all`` (a multi-phase coded node's flood ->
    broadcast transition) and the adversary must not see that.  Returns the
    recorded topologies.

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
    cache = TopologyValidationCache()
    topologies: list = []
    profiler = NULL_PROFILER if trace is None else trace.profiler
    kernel.profiler = profiler

    def compose(round_index, plan):
        with profiler.span("compose"):
            active, sizes = kernel.compose_all(round_index)
        if plan is not None and plan.substitute:
            kernel.set_wire_overrides(plan.substitute)
        return active, sizes

    for round_index in range(max_rounds):
        plan = faults.begin_round(round_index) if faults is not None else None
        if adversary.sees_messages:
            states = [kernel.state_view(uid) for uid in range(n)]
            active, sizes = compose(round_index, plan)
            messages = kernel.message_views(round_index, active)
            graph = adversary.choose_topology(round_index, n, states, messages)
        else:
            graph = adversary.choose_topology(round_index, n, kernel.state_views())
        topology = cache.validated(graph, n)
        kernel.on_topology(round_index, topology)
        if not adversary.sees_messages:
            active, sizes = compose(round_index, plan)
        if record_topologies:
            topologies.append(topology)

        indices, indptr = topology.csr_adjacency()
        if plan is not None:
            # The adaptive strategy is consulted in here and may crash
            # nodes mid-round: ``plan.down`` is final only afterwards, so
            # the sending mask must be computed below, not before.  The
            # compose-time ``active`` mask feeds the collision rule, and a
            # wants_state strategy sees the post-compose count/rank
            # snapshot the trace layer extracts.
            state = None
            if faults.wants_state:
                state = StateView(kernel.known_counts(), kernel.coded_ranks())
            with profiler.span("faults"):
                indices, indptr = plan.bind_edges(
                    indices, indptr, active=active, state=state
                )

        # A crashed node's radio is off: it still composes (identical rng
        # consumption on every kernel) but transmits nothing.
        sending = active if plan is None else active & ~plan.down
        broadcasts = int(sending.sum())
        metrics.silent_rounds += n - broadcasts
        if broadcasts:
            sent_sizes = sizes if plan is None else np.where(sending, sizes, 0)
            max_bits = int(sent_sizes.max())
            if max_bits > limit:
                name = kernel.message_name_of(int(np.argmax(sent_sizes)))
                raise MessageSizeExceeded(
                    f"{name} is {max_bits} bits, exceeding the "
                    f"budget of {limit} bits (b={config.budget.b}, "
                    f"slack={config.budget.slack})"
                )
            metrics.broadcasts += broadcasts
            metrics.total_message_bits += int(sent_sizes.sum())
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
        if indices.size:
            # cumsum differences instead of reduceat: identical integers,
            # and safe on the empty segments an edited CSR can contain.
            flows = np.concatenate(
                (
                    np.zeros(1, dtype=np.int64),
                    np.cumsum(sending[indices], dtype=np.int64),
                )
            )
            counts = flows[indptr[1:]] - flows[indptr[:-1]]
        else:
            counts = np.zeros(n, dtype=np.int64)

        with profiler.span("deliver"):
            changed = kernel.deliver_all(
                round_index, indices, indptr, sending, counts
            )

        metrics.deliveries += int(counts.sum()) + discarded
        useless = (counts > 0) & ~changed
        if useless.any():
            metrics.useless_deliveries += int(counts[useless].sum())

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
                # Queried per round: adaptive strategies shrink the set.
                if bool(complete[faults.survivor_indices].all()):
                    metrics.survivor_completion_round = round_index + 1
            done = metrics.survivor_completion_round is not None

        if done:
            if stop_at_completion or kernel.finished_all():
                break

    return topologies


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
    """

    message_name = "TokenForwardMessage"
    supports_message_views = True

    def __init__(self, config, placement, token_index, nodes):
        super().__init__(config, placement, token_index, nodes)
        self.batch = tokens_per_message(config)
        self.width = _packed_width(self.k)
        self.full = _full_row(self.k, self.width)
        #: Wire cost of each token by bit index (id bits + payload bits).
        self.costs = np.array(
            [t.token_id.bits + t.size_bits for t in self.tokens], dtype=np.int64
        )
        self.known = np.zeros((self.n, self.width), dtype=np.uint64)
        for uid, node in enumerate(nodes):
            for tid in node.known:
                bit = token_index[tid]
                self.known[uid, bit >> 6] |= np.uint64(1 << (bit & 63))
        self.phase_length = config.extra_int("phase_length", config.n)
        self.delivered = np.zeros_like(self.known)
        self._sizes = np.zeros(self.n, dtype=np.int64)
        self._active = np.zeros(self.n, dtype=bool)
        self._send = np.zeros_like(self.known)
        self._dirty = np.ones(self.n, dtype=bool)

    def compose_all(self, round_index):
        rows = np.flatnonzero(self._dirty)
        if rows.size:
            pending = self.known[rows] & ~self.delivered[rows]
            selection, sizes = _select_lowest_bits(pending, self.batch, self.costs)
            self._send[rows] = selection
            self._sizes[rows] = sizes
            self._active[rows] = pending.any(axis=1)
            self._dirty[rows] = False
        return self._active, self._sizes

    def wire_message(self, uid, round_index):
        # The selection row's ascending bit order is exactly the node's
        # sorted-pending prefix order.
        return TokenForwardMessage(
            sender=uid,
            tokens=tuple(self.tokens[i] for i in _row_bits(self._send[uid])),
        )

    def deliver_all(self, round_index, indices, indptr, active, counts):
        inbox = _neighbor_or(self._send, indices, indptr)
        new = self.known | inbox
        changed = (new != self.known).any(axis=1)
        self.known = new
        self._counts_cache = None
        self._dirty |= changed
        if (round_index + 1) % self.phase_length == 0:
            commit, _ = _select_lowest_bits(
                self.known & ~self.delivered, self.batch, None
            )
            self.delivered |= commit
            self._dirty |= commit.any(axis=1)
        return changed

    # ------------------------------------------------------------------
    def _known_counts_now(self) -> np.ndarray:
        return _popcount_rows(self.known)

    def all_complete(self) -> bool:
        return bool((self.known == self.full).all())

    def _knows(self, uid: int, token_id) -> bool:
        bit = self.token_index.get(token_id)
        if bit is None:
            return False
        return bool((int(self.known[uid, bit >> 6]) >> (bit & 63)) & 1)

    def _known_ids(self, uid: int) -> list:
        return [self.tokens[i].token_id for i in _row_bits(self.known[uid])]

    def state_view(self, uid: int) -> NodeStateView:
        counts = self.known_counts()
        return NodeStateView(
            uid=uid,
            rank=0,
            known_supplier=lambda: self._known_ids(uid),
            known_count=int(counts[uid]),
            membership=lambda token_id: self._knows(uid, token_id),
        )

    def to_nodes(self, nodes):
        for uid, node in enumerate(nodes):
            known = {
                self.tokens[i].token_id: self.tokens[i]
                for i in _row_bits(self.known[uid])
            }
            delivered = {
                self.tokens[i].token_id for i in _row_bits(self.delivered[uid])
            }
            node.known.clear()
            node.known.update(known)
            node.delivered = delivered
            node._sorted_known = [
                token for token in known.values() if token.token_id not in delivered
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
