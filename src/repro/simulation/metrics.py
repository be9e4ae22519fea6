"""Metrics collected by the simulation runner."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["RunMetrics"]


@dataclass
class RunMetrics:
    """Counters accumulated over one dissemination run.

    Attributes
    ----------
    rounds_executed:
        Total number of rounds the simulator ran.
    completion_round:
        First round (1-based count of completed rounds) after which every node
        knew every token; ``None`` if the run hit its round limit first.
    broadcasts:
        Number of non-silent broadcasts performed.
    silent_rounds:
        Number of (node, round) pairs in which a node chose to send nothing.
    total_message_bits:
        Sum of the bit sizes of all broadcast messages.
    max_message_bits:
        Largest single message observed.
    deliveries:
        Total number of (message, receiver) deliveries.
    useless_deliveries:
        Deliveries that did not change the receiver's knowledge (a direct
        measure of the "wasted broadcasts" the paper's Section 5.2 discusses);
        only protocols that report knowledge growth make this meaningful.
    dropped_deliveries:
        Deliveries erased by per-edge loss faults (would have happened
        otherwise: live sender, live receiver).
    duplicated_deliveries:
        Extra copies injected by per-edge duplication faults.
    corrupted_deliveries:
        Delivered copies whose content a Byzantine sender substituted
        (counted whether the receiver's span guard discarded them or
        accepted an in-span replay).
    collided_deliveries:
        Copies erased by radio-collision rounds: the receiver heard two or
        more simultaneous senders and the radio rule silenced these
        deliveries on the air.
    survivors:
        Number of honest nodes never scheduled to crash (fake quorum
        members excluded); ``None`` on benign runs.
    completed_survivors:
        How many survivors knew every token when the run ended; ``None``
        on benign runs.
    survivor_completion_round:
        First round after which every survivor knew every token (the
        faulted twin of ``completion_round``, which still demands the whole
        population — crashed nodes included — and so may never trigger).
    recoveries:
        Number of crash–recovery intervals whose node actually rejoined
        within the executed window; ``None`` on benign runs.
    reconvergence_rounds:
        Rounds between the last observed rejoin and the survivor
        completion round — how long the population needed to re-absorb the
        stale-state node; ``None`` when nothing recovered or the survivors
        never completed.
    fake_nodes:
        Number of fake quorum members a :class:`~repro.network.faults.QuorumModel`
        declared (they are excluded from every survivor figure above);
        ``None`` when no quorum model was active.
    progress:
        Optional per-round record of the minimum / mean number of known
        tokens across nodes (populated when progress tracking is enabled).
    """

    rounds_executed: int = 0
    completion_round: int | None = None
    broadcasts: int = 0
    silent_rounds: int = 0
    total_message_bits: int = 0
    max_message_bits: int = 0
    deliveries: int = 0
    useless_deliveries: int = 0
    dropped_deliveries: int = 0
    duplicated_deliveries: int = 0
    corrupted_deliveries: int = 0
    collided_deliveries: int = 0
    survivors: int | None = None
    completed_survivors: int | None = None
    survivor_completion_round: int | None = None
    recoveries: int | None = None
    reconvergence_rounds: int | None = None
    fake_nodes: int | None = None
    progress: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """True iff all nodes learned all tokens within the round limit."""
        return self.completion_round is not None

    @property
    def average_message_bits(self) -> float:
        """Mean size of a broadcast message."""
        if self.broadcasts == 0:
            return 0.0
        return self.total_message_bits / self.broadcasts

    @property
    def waste_fraction(self) -> float:
        """Fraction of deliveries that taught the receiver nothing."""
        if self.deliveries == 0:
            return 0.0
        return self.useless_deliveries / self.deliveries

    @property
    def surviving_completion_rate(self) -> float | None:
        """Fraction of never-crashed nodes that learned everything.

        ``None`` on benign runs (no fault axis), where ``completed`` is the
        population-wide answer — and when there are no survivors at all
        (every node scheduled to crash): a rate over an empty population is
        undefined, not 0.0, so averaged sweep outputs can tell "no
        survivors" apart from "no survivor completed".
        """
        if not self.survivors:
            return None
        return (self.completed_survivors or 0) / self.survivors

    def to_dict(self) -> dict:
        """Every field plus the derived properties, as JSON-safe values.

        Field coverage is by introspection, so a counter added to the
        dataclass lands here automatically; the derived read-only
        properties ride along under their property names.  ``progress``
        tuples become lists (JSON round-trips them as lists anyway).
        """
        data = {name.name: getattr(self, name.name) for name in fields(self)}
        data["progress"] = [list(entry) for entry in self.progress]
        data["completed"] = self.completed
        data["average_message_bits"] = self.average_message_bits
        data["waste_fraction"] = self.waste_fraction
        data["surviving_completion_rate"] = self.surviving_completion_rate
        return data
