"""The radio reception rule, kept as an oracle for ``CollisionModel``.

In a radio round (the model of Czumaj and Davies) a node hears a message
exactly when one of its neighbours transmits; two or more transmitting
neighbours collide and it hears nothing.  With capture the strongest
signal, taken to be the lowest-uid transmitter, gets through instead.
Plain Python over neighbour lists; imports nothing from ``repro``.
"""

from __future__ import annotations


def heard(neighbours: list[list[int]], transmitting: list[bool], capture: bool) -> list:
    """The uid each node hears from (``None`` for silence or a collision)."""
    result = []
    for adjacent in neighbours:
        senders = sorted(u for u in adjacent if transmitting[u])
        result.append(senders[0] if len(senders) == 1 or (capture and senders) else None)
    return result
