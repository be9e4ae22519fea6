"""Tokens and their initial (adversarial) placement.

The k-token dissemination problem (Section 4.2): ``k <= n`` tokens of ``d``
bits each are distributed to nodes by the adversary before round 1 and must
become known to all nodes.

A token is a ``d``-bit payload together with an identifier.  Identifiers are
*not* consecutive indices — the paper stresses that assuming a global
indexing amounts to assuming the problem solved — so, as in Corollary 7.1,
a token's identifier is the pair ``(origin node UID, per-node sequence
number)``, which every node can create locally with ``O(log n)`` bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "TokenId",
    "Token",
    "TokenPlacement",
    "make_tokens",
    "place_tokens",
    "one_token_per_node",
]


@dataclass(frozen=True)
class TokenId:
    """Globally-unique token identifier: origin node UID + sequence number.

    Orders lexicographically, which gives all nodes a consistent way to sort
    identifiers (used for index assignment after gathering).

    Identifiers sit on the round loop's hot path — every sort, dict lookup
    and message-size check touches them — so the ordering key, hash and bit
    size are computed once per instance instead of per operation.
    """

    origin: int
    sequence: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", (self.origin, self.sequence))
        object.__setattr__(self, "_hash", hash((self.origin, self.sequence)))
        object.__setattr__(
            self,
            "_bits",
            max(1, int(self.origin).bit_length()) + max(1, int(self.sequence).bit_length()),
        )

    @property
    def bits(self) -> int:
        """Size of the identifier in bits, O(log n) as assumed by the paper."""
        return self._bits  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, TokenId):
            return NotImplemented
        return self._key < other._key  # type: ignore[attr-defined]

    def __le__(self, other: object) -> bool:
        if not isinstance(other, TokenId):
            return NotImplemented
        return self._key <= other._key  # type: ignore[attr-defined]

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, TokenId):
            return NotImplemented
        return self._key > other._key  # type: ignore[attr-defined]

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, TokenId):
            return NotImplemented
        return self._key >= other._key  # type: ignore[attr-defined]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TokenId({self.origin},{self.sequence})"


@dataclass(frozen=True)
class Token:
    """A ``d``-bit token.

    Attributes
    ----------
    token_id:
        Globally-unique identifier (origin UID + sequence number).
    payload:
        The token content as a non-negative integer of at most ``size_bits`` bits.
    size_bits:
        The token size ``d`` in bits.
    """

    token_id: TokenId
    payload: int
    size_bits: int

    def __post_init__(self) -> None:
        if self.size_bits < 1:
            raise ValueError(f"token size must be >= 1 bit, got {self.size_bits}")
        if self.payload < 0 or self.payload >= (1 << self.size_bits):
            raise ValueError(
                f"payload {self.payload} does not fit in {self.size_bits} bits"
            )

    def payload_bits(self) -> tuple[int, ...]:
        """The payload as a tuple of bits, least-significant first."""
        return tuple((self.payload >> i) & 1 for i in range(self.size_bits))


@dataclass(frozen=True)
class TokenPlacement:
    """The adversary's initial assignment of tokens to nodes.

    Attributes
    ----------
    tokens:
        All tokens in the instance.
    holders:
        Map from token id to the set of node UIDs initially holding it.
    """

    tokens: tuple[Token, ...]
    holders: Mapping[TokenId, frozenset]

    @property
    def k(self) -> int:
        """Number of distinct tokens in the instance."""
        return len(self.tokens)

    def tokens_at(self, node: int) -> list[Token]:
        """Tokens initially held by ``node``, in placement order."""
        return list(self._tokens_by_holder.get(node, ()))

    @cached_property
    def _tokens_by_holder(self) -> dict[int, list[Token]]:
        """Holder -> its tokens in placement order, built in one pass."""
        by_holder: dict[int, list[Token]] = {}
        for token in self.tokens:
            for node in self.holders[token.token_id]:
                by_holder.setdefault(node, []).append(token)
        return by_holder

    def by_id(self) -> dict[TokenId, Token]:
        """Map token id -> token."""
        return {t.token_id: t for t in self.tokens}

    def all_ids(self) -> frozenset:
        """All token identifiers."""
        return frozenset(t.token_id for t in self.tokens)


def make_tokens(
    k: int,
    size_bits: int,
    rng: np.random.Generator,
    origins: Sequence[int] | None = None,
) -> list[Token]:
    """Create ``k`` tokens of ``size_bits`` bits with random payloads.

    ``origins`` optionally assigns each token's originating node (used to
    form its identifier); by default token ``i`` originates at node ``i``.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if origins is None:
        origins = list(range(k))
    if len(origins) != k:
        raise ValueError(f"need {k} origins, got {len(origins)}")
    sequence_counters: dict[int, int] = {}
    tokens = []
    for origin in origins:
        seq = sequence_counters.get(origin, 0)
        sequence_counters[origin] = seq + 1
        payload = int(rng.integers(0, 2, size=size_bits) @ (1 << np.arange(size_bits)))
        tokens.append(
            Token(token_id=TokenId(int(origin), seq), payload=payload, size_bits=size_bits)
        )
    return tokens


def place_tokens(
    tokens: Iterable[Token],
    n: int,
    rng: np.random.Generator,
    copies: int = 1,
    at_origin: bool = True,
) -> TokenPlacement:
    """Distribute tokens to nodes.

    Parameters
    ----------
    tokens:
        The tokens to place.
    n:
        Number of nodes.
    rng:
        Randomness for non-origin placements.
    copies:
        How many initial holders each token gets (the problem only requires
        at least one).
    at_origin:
        If True, the token's origin node is always one of its holders
        (the natural instance where each node contributes its own tokens).
    """
    tokens = tuple(tokens)
    holders: dict[TokenId, frozenset] = {}
    for token in tokens:
        chosen: set[int] = set()
        if at_origin and 0 <= token.token_id.origin < n:
            chosen.add(token.token_id.origin)
        while len(chosen) < min(copies, n):
            chosen.add(int(rng.integers(0, n)))
        holders[token.token_id] = frozenset(chosen)
    return TokenPlacement(tokens=tokens, holders=holders)


def one_token_per_node(n: int, size_bits: int, rng: np.random.Generator) -> TokenPlacement:
    """The canonical ``k = n`` instance: every node starts with exactly one token."""
    tokens = make_tokens(n, size_bits, rng, origins=list(range(n)))
    holders = {t.token_id: frozenset({t.token_id.origin}) for t in tokens}
    return TokenPlacement(tokens=tuple(tokens), holders=holders)
