"""Centralized network-coding algorithms (Corollary 2.6).

A *centralized* algorithm (footnote 1 of the paper) is a distributed
algorithm whose nodes are additionally given: knowledge of past topologies,
the initial token distribution (but not the token contents), and shared
randomness.  Under central control the two costs that dominate the
distributed algorithms disappear:

* **indexing is trivial** — the controller knows which node holds which
  token, so distinct indices 1..k can be assigned up front; and
* **the coefficient header is free** — every node can infer which random
  combination every other node sent from the shared randomness and the known
  past topologies, so only the ``d`` payload bits need to be transmitted.

The resulting randomized algorithm is order-optimal ``Theta(n)`` for
``k <= n`` (Corollary 2.6).  :class:`CentralizedCodedNode` implements it:
operationally it is the RLNC indexed broadcast of
:class:`~repro.algorithms.indexed_broadcast.IndexedBroadcastNode` (the
controller's index assignment is ``config.extra['index_of']``, or the
canonical origin-UID indexing), but the *message accounting* only charges
the payload bits, reflecting the inferable header.  The subclass overrides
``compose`` alone.

The deterministic centralized variant replaces the shared randomness by the
pre-committed schedule of Section 6 over the large field, with field-size
constraints limiting how many blocks can be coded together; its round
complexity is evaluated analytically in :mod:`repro.analysis.bounds`.
"""

from __future__ import annotations

from ..tokens.message import CodedMessage, Message
from .indexed_broadcast import IndexedBroadcastNode

__all__ = ["CentralizedCodedNode", "FreeHeaderCodedMessage"]


class FreeHeaderCodedMessage(CodedMessage):
    """A coded message whose coefficient header is charged zero bits.

    Centralized algorithms can reconstruct the coefficients from shared
    randomness and known topologies, so the header does not consume message
    budget (Section 8.3: "the coefficient overhead can be ignored since it is
    easy to infer the coefficients from knowing the past topologies").
    The coefficients are still *carried* (tuple or packed mask form) so the
    simulation does not have to re-derive them — only their cost model
    changes.
    """

    @property
    def header_bits(self) -> int:  # type: ignore[override]
        return 0


class CentralizedCodedNode(IndexedBroadcastNode):
    """RLNC indexed broadcast with centrally-assigned indices and free headers."""

    def compose(self, round_index: int) -> Message | None:
        # GenerationState owns the mask/array dispatch; rewrap its message
        # (packed or tuple form) in the free-header cost model.
        message = self.state.compose(self.uid, self.rng)
        if message is None:
            return None
        if message.is_packed:
            return FreeHeaderCodedMessage(
                sender=message.sender,
                generation=message.generation,
                mask=message.mask,
                k=message.k,
                payload_symbols=message.payload_symbols,
            )
        return FreeHeaderCodedMessage(
            sender=message.sender,
            coefficients=message.coefficients,
            payload=message.payload,
            field_order=message.field_order,
            generation=message.generation,
        )
