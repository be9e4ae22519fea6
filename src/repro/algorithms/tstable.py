"""T-stable patch-sharing network coding (Section 8).

In a T-stable network the topology changes only every ``T`` rounds.  The
paper's share–pass–share algorithm exploits this:

1. partition the (temporarily static) graph into patches of size ``Omega(D)``
   and diameter ``O(D)`` around an MIS of the ``D``-th power graph,
   with ``D = O(T / log n)`` (Section 8.1);
2. **share** — all nodes of a patch jointly form a random linear combination
   of the union of their received vectors, which every member adds to its
   own set (implemented by pipelined aggregation up and down the patch's
   shortest-path tree);
3. **pass** — each node broadcasts its patch's combined vector to its
   (static) neighbours, a ``bT``-bit vector sent as ``T`` chunks of ``b``
   bits;
4. **share** again, now including the vectors received from neighbouring
   patches.

Each such meta-round moves every still-missing coefficient direction into at
least one entire new patch (Ω(D) nodes) or, once every patch senses it,
halves the number of non-sensing nodes — giving Lemma 8.1's
``O((n + bT^2) log n)`` bound and, through the Section 8.3 reductions, the
``T^2`` dissemination speedup of Theorem 2.4.

Simulation fidelity (a substitution for the message-level share steps):

The patch computation and the intra-patch aggregation are *structured*
rather than message-by-message: a shared :class:`PatchShareCoordinator`
computes the decomposition from the block's topology with
:func:`repro.network.patches.compute_patches` and performs the share steps
by directly combining member subspaces, while charging the same number of
rounds the distributed implementation would use (``setup_rounds`` for
MIS+trees, ``T`` rounds for the chunked pass, pipelined share rounds).  The
*inter-patch* information flow — the part the adversary constrains — still
travels only along real edges of the round topology, so the measured round
counts exercise the same bottlenecks the analysis bounds.

Each node is the single-generation indexed broadcast of
:class:`~repro.algorithms.indexed_broadcast.IndexedBroadcastNode` (same
generation, indexing and decode) whose per-round ``compose`` / ``deliver``
carry only the chunked control traffic: the coordinator moves the coded
vectors itself and then calls :meth:`TStablePatchNode.try_decode`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..coding.subspace import Subspace
from ..network.patches import PatchDecomposition, compute_patches
from ..network.topology import Topology
from ..tokens.message import ControlMessage, Message
from .base import ProtocolConfig, log2_ceil
from .indexed_broadcast import IndexedBroadcastNode

__all__ = [
    "PatchShareCoordinator",
    "TStablePatchNode",
    "TStablePatchFactory",
    "make_tstable_factory",
]


class PatchShareCoordinator:
    """Shared orchestration of the per-block patching and share steps.

    One instance is shared by all nodes of a run (the runner detects it via
    the ``shared_coordinator`` attribute and calls :meth:`on_topology` /
    :meth:`after_round` each round).
    """

    def __init__(self, config: ProtocolConfig, seed: int = 0):
        self.config = config
        self.stability = max(1, config.stability)
        self.rng = np.random.default_rng(seed)
        log_n = log2_ceil(config.n)
        #: Patch radius D = O(T / log n), at least 1.
        self.radius = max(1, self.stability // max(1, log_n))
        #: Rounds charged for the distributed MIS + tree construction
        #: (at least 1, since the radius is).
        self.setup_rounds = min(
            max(1, self.stability // 2), self.radius * log_n + self.radius
        )
        #: Rounds charged for one chunked pass of a bT-bit vector.
        self.pass_rounds = max(1, self.stability - self.setup_rounds)
        self.decomposition: PatchDecomposition | None = None
        self._block_index = -1

    # ------------------------------------------------------------------
    def phase_in_block(self, round_index: int) -> str:
        """Which sub-phase of the stable block this round belongs to."""
        offset = round_index % self.stability
        if offset < self.setup_rounds:
            return "setup"
        return "pass"

    def on_topology(
        self, round_index: int, topology: Topology, nodes: Sequence["TStablePatchNode"]
    ) -> None:
        """Called by the runner once the round topology is fixed."""
        block = round_index // self.stability
        if block != self._block_index:
            self._block_index = block
            # The topology is static for the whole block; computing the patch
            # decomposition here stands in for the first `setup_rounds` rounds
            # of distributed MIS + tree construction on exactly this graph.
            self.decomposition = compute_patches(topology, self.radius, rng=self.rng)

    def after_round(
        self, round_index: int, topology: Topology, nodes: Sequence["TStablePatchNode"]
    ) -> None:
        """Perform share/pass state updates at the sub-phase boundaries."""
        if self.decomposition is None:
            return
        offset = round_index % self.stability
        if offset == self.setup_rounds - 1:
            # End of setup: first share step.
            self._share(nodes)
        if offset == self.stability - 1:
            # End of the block: the pass has delivered each patch's combined
            # vector to neighbouring nodes; run the pass delivery and the
            # second share step.
            self._pass(topology, nodes)
            self._share(nodes)
            for node in nodes:
                node.try_decode()

    # ------------------------------------------------------------------
    def _share(self, nodes: Sequence["TStablePatchNode"]) -> None:
        """Every patch jointly forms one random combination of its union span.

        The union of the members' bases is collected into a scratch
        :class:`~repro.coding.subspace.Subspace`, whose shared samplers
        (mask-native over GF(2)) draw the combination — a uniform draw over
        the union span, never the information-free zero vector.
        """
        for patch in self.decomposition.patches:
            members = sorted(patch.members)
            generation = nodes[members[0]].generation
            union = Subspace(generation.field, generation.vector_length)
            for uid in members:
                member_space = nodes[uid].state.subspace
                if generation.field.q == 2:
                    union.extend(member_space.basis_masks())
                else:
                    union.extend(member_space.basis_matrix())
            if union.is_empty:
                continue
            combined: int | np.ndarray
            if generation.field.q == 2:
                combined = union.random_combination_mask(self.rng)
            else:
                combined = union.random_combination(self.rng)
            for uid in members:
                nodes[uid].state.receive_vector(combined)
                nodes[uid].patch_vector = combined

    def _pass(self, topology: Topology, nodes: Sequence["TStablePatchNode"]) -> None:
        """Each node hands its patch's combined vector to its graph neighbours."""
        for uid in range(self.config.n):
            vector = nodes[uid].patch_vector
            if vector is None:
                continue
            for neighbour in topology.neighbors_tuple(uid):
                nodes[neighbour].state.receive_vector(vector)


class TStablePatchNode(IndexedBroadcastNode):
    """One node of the T-stable patch-sharing indexed broadcast.

    The coded generation has one dimension per token (the Section 8.3
    gathering into ``bT``-bit super-blocks is a packing optimisation on top;
    the share–pass–share engine is identical), and each dimension's payload
    embeds the token identifier so decoding yields actual tokens.
    """

    def __init__(self, uid: int, config: ProtocolConfig, rng: np.random.Generator):
        super().__init__(uid, config, rng)
        #: The patch's combined vector: a bit mask over GF(2), else an array.
        self.patch_vector: int | np.ndarray | None = None
        #: Shared coordinator, attached by :func:`make_tstable_factory`.
        self.shared_coordinator: PatchShareCoordinator | None = None

    # ------------------------------------------------------------------
    def compose(self, round_index: int) -> Message | None:
        # The real information flow is orchestrated by the coordinator; the
        # per-round broadcast is the b-bit chunk of the current patch vector
        # (or a control chunk during setup), charged at the full budget.
        phase = (
            self.shared_coordinator.phase_in_block(round_index)
            if self.shared_coordinator is not None
            else "pass"
        )
        chunk_bits = min(self.config.budget.limit_bits, self.config.b)
        return ControlMessage(
            sender=self.uid,
            fields={"phase": 1 if phase == "pass" else 0, "chunk": (1 << max(1, chunk_bits - 8)) - 1},
        )

    def deliver(self, round_index: int, messages: Sequence[Message]) -> None:
        # Chunk reassembly is handled by the coordinator at block boundaries.
        return

    def try_decode(self) -> None:
        """Decode all tokens once the coefficient span is complete.

        The coordinator inserts through ``receive_vector``, which does not
        mark the span as grown, so every call checks it.
        """
        self._span_dirty = True
        self._try_decode()


class TStablePatchFactory:
    """Picklable protocol factory whose nodes share one :class:`PatchShareCoordinator`.

    A fresh coordinator is created each time node 0 is built — the runner
    always constructs nodes in uid order, so each ``run_dissemination`` call
    gets its own coordinator (no state leaks across the repetitions of a
    :class:`~repro.simulation.SweepTask`), while all nodes of one run share
    it.  Being a plain picklable object (unlike the closure this replaces),
    it can ride a sweep task into worker processes.
    """

    def __init__(self, config: ProtocolConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        self._coordinator: PatchShareCoordinator | None = None

    def __call__(
        self, uid: int, cfg: ProtocolConfig, rng: np.random.Generator
    ) -> TStablePatchNode:
        if uid == 0 or self._coordinator is None:
            self._coordinator = PatchShareCoordinator(self.config, seed=self.seed)
        node = TStablePatchNode(uid, cfg, rng)
        node.shared_coordinator = self._coordinator
        return node

    def __getstate__(self) -> dict:
        # The coordinator is per-run scratch state; never ship it to workers.
        return {"config": self.config, "seed": self.seed}

    def __setstate__(self, state: dict) -> None:
        self.config = state["config"]
        self.seed = state["seed"]
        self._coordinator = None


def make_tstable_factory(config: ProtocolConfig, seed: int = 0) -> TStablePatchFactory:
    """Build a factory whose nodes share one :class:`PatchShareCoordinator`."""
    return TStablePatchFactory(config, seed=seed)
