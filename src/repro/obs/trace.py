"""Columnar per-round traces of dissemination runs.

The paper's claims are per-round statements (knowledge/rank growth, wasted
broadcasts — Section 5.2), but :class:`~repro.simulation.metrics.RunMetrics`
only aggregates end-of-run totals.  A :class:`TraceRecorder` attached via
``run_dissemination(trace=...)`` collects one columnar record per executed
round, vectorised — the engines hand it whole-network numpy arrays, never
per-node Python on the kernel hot path:

========================  =========================  ==========================
array                     shape / dtype              meaning
========================  =========================  ==========================
``knowledge_counts``      ``(rounds, n)`` uint16     per-node ``len(known)`` popcounts
``coded_ranks``           ``(rounds, n)`` uint16     per-node GF(2) subspace ranks
``down_nodes``            ``(rounds, words)`` u64    packed bitmap of crashed nodes
``broadcasts`` …          ``(rounds,)`` int64        per-round deltas of the
                                                     RunMetrics counters (see
                                                     ``ROUND_COUNTERS``)
``partition_active``      ``(rounds,)`` uint8        a partition window was open
``honest_survivors``      ``(rounds,)`` int64        honest-quorum survivor count
                                                     (fake members and crash
                                                     victims excluded)
========================  =========================  ==========================

``down_nodes`` rows use the bit-row layout of :mod:`repro.bits`; read them
back with :func:`repro.bits.unpack_bools`.

Trace *content* — every array above plus the manifest's ``content``
section — is engine-invariant: kernel and mask runs of the same
seeded instance produce byte-identical content (a much stronger standing
parity artifact than final ``RunMetrics``; pinned by
``tests/test_obs_trace.py``).  Wall-clock phase timings and the engine
name are *context*: they ride the manifest's ``context`` section and are
excluded from content identity.

Traces serialise to a single compressed ``.npz`` holding the columnar
arrays plus the JSON manifest (provenance: seed, config, protocol, fault
model, engine, source digest, phase profile).  ``python -m repro.obs``
summarises, diffs and profiles them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..bits import pack_bools, word_count
from .clock import Clock
from .profiler import PhaseProfiler
from .provenance import source_digest

if TYPE_CHECKING:  # imported for annotations only: obs must not import
    from ..simulation.metrics import RunMetrics  # simulation at runtime

__all__ = [
    "ROUND_COUNTERS",
    "Trace",
    "TraceRecorder",
    "load_trace",
    "save_trace",
]

#: Trace format version (bumped on any content-schema change).
#: 2: added the ``collided_deliveries`` counter column and the
#: ``honest_survivors`` content array (third-generation fault axis).
SCHEMA = 2

#: Cumulative RunMetrics counters recorded as per-round deltas, in column
#: order.  Every engine updates these identically per round — that is the
#: byte-identity contract the cross-engine trace tests pin.
ROUND_COUNTERS = (
    "broadcasts",
    "silent_rounds",
    "total_message_bits",
    "deliveries",
    "useless_deliveries",
    "dropped_deliveries",
    "duplicated_deliveries",
    "corrupted_deliveries",
    "collided_deliveries",
)

#: Arrays whose equality defines trace-content identity (everything; the
#: engine-varying parts live in the manifest's context section instead).
CONTENT_ARRAYS = (
    "knowledge_counts",
    "coded_ranks",
    "down_nodes",
    *ROUND_COUNTERS,
    "partition_active",
    "honest_survivors",
)


def _repro_version() -> str:
    # Late import: ``repro/__init__`` imports the simulation package, which
    # imports this module — a top-level import would be circular.
    import repro

    return getattr(repro, "__version__", "unknown")


@dataclass
class Trace:
    """An immutable-by-convention trace: columnar arrays plus manifest."""

    arrays: dict[str, np.ndarray]
    manifest: dict

    @property
    def content(self) -> dict:
        """The engine-invariant manifest section."""
        return self.manifest["content"]

    @property
    def context(self) -> dict:
        """The engine/timing manifest section (excluded from identity)."""
        return self.manifest["context"]

    @property
    def rounds(self) -> int:
        return int(self.arrays["knowledge_counts"].shape[0])

    @property
    def n(self) -> int:
        return int(self.content["n"])

    def content_digest(self) -> str:
        """SHA-256 over the content manifest and every content array.

        Two traces with equal digests have byte-identical content; the
        context section (engine name, wall-clock profile, source digest)
        deliberately does not participate.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(
            json.dumps(self.content, sort_keys=True, default=repr).encode()
        )
        for name in CONTENT_ARRAYS:
            array = np.ascontiguousarray(self.arrays[name])
            digest.update(name.encode())
            digest.update(str(array.dtype).encode())
            digest.update(repr(array.shape).encode())
            digest.update(array.tobytes())
        return digest.hexdigest()

    def save(self, path: str | Path) -> Path:
        return save_trace(self, path)


class TraceRecorder:
    """Collects one columnar record per executed round.

    Create one recorder per run and pass it to
    ``run_dissemination(trace=recorder)``; the engines call
    :meth:`begin_run` once and :meth:`observe_round` exactly once per
    executed round.  Pass a :class:`~repro.obs.clock.Clock` to also
    collect wall-clock phase timings (``compose`` / ``deliver`` /
    ``faults`` / ``insert`` / ``decode`` / ``materialise``); without one
    the profiler is inert and tracing adds only the columnar bookkeeping.
    """

    def __init__(self, *, clock: Clock | None = None, label: str | None = None):
        self.profiler = PhaseProfiler(clock)
        self.label = label
        self._content: dict | None = None
        self._context: dict = {}
        self._n = 0
        self._words = 0
        self._counts: list[np.ndarray] = []
        self._ranks: list[np.ndarray] = []
        self._down: list[np.ndarray] = []
        self._partition: list[int] = []
        self._honest: list[int] = []
        self._deltas: dict[str, list[int]] = {name: [] for name in ROUND_COUNTERS}
        self._previous: dict[str, int] = dict.fromkeys(ROUND_COUNTERS, 0)

    # ------------------------------------------------------------------
    @property
    def bound(self) -> bool:
        return self._content is not None

    def begin_run(
        self,
        *,
        config,
        seed: int,
        engine: str,
        factory,
        faults=None,
    ) -> None:
        """Bind the recorder to one run (engines call this, once).

        Everything except ``engine`` lands in the content section — it is
        identical across engines for the same seeded run.  A recorder
        records exactly one run; reuse raises instead of silently mixing
        two executions into one trace.
        """
        if self._content is not None:
            raise RuntimeError(
                "TraceRecorder already holds a run; create one recorder per run"
            )
        if config.k >= 2**16 or config.n >= 2**16:
            raise ValueError(
                "trace columns are uint16: n and k must stay below 65536, "
                f"got n={config.n}, k={config.k}"
            )
        self._n = int(config.n)
        self._words = word_count(self._n)
        self._content = {
            "schema": SCHEMA,
            "n": int(config.n),
            "k": int(config.k),
            "token_bits": int(config.token_bits),
            "seed": int(seed),
            "protocol": getattr(factory, "__name__", type(factory).__name__),
            "faults": "benign" if faults is None else repr(faults),
            "label": self.label,
        }
        self._context = {"engine": str(engine)}

    def observe_round(
        self,
        round_index: int,
        metrics: "RunMetrics",
        counts: np.ndarray,
        ranks: np.ndarray,
        plan=None,
    ) -> None:
        """Record one executed round (call at round end, after accounting).

        ``counts`` / ``ranks`` are whole-network int arrays (the kernel
        engine passes its packed popcount / batched-rank vectors straight
        through); ``plan`` is the round's
        :class:`~repro.network.faults.RoundFaultPlan` or None.  Per-round
        counter columns are deltas of the cumulative ``metrics`` fields,
        so the recorder needs exactly one call per round, in order.
        """
        if self._content is None:
            raise RuntimeError("begin_run must be called before observe_round")
        if round_index != len(self._counts):
            raise RuntimeError(
                f"rounds must be observed in order: expected "
                f"{len(self._counts)}, got {round_index}"
            )
        self._counts.append(np.asarray(counts).astype(np.uint16))
        self._ranks.append(np.asarray(ranks).astype(np.uint16))
        if plan is not None:
            self._down.append(pack_bools(plan.down))
            self._partition.append(int(plan.partition_active))
            self._honest.append(int(plan.bound.survivor_indices.size))
        else:
            self._down.append(np.zeros(self._words, dtype=np.uint64))
            self._partition.append(0)
            self._honest.append(self._n)
        for name in ROUND_COUNTERS:
            value = int(getattr(metrics, name))
            self._deltas[name].append(value - self._previous[name])
            self._previous[name] = value

    # ------------------------------------------------------------------
    def to_trace(self) -> Trace:
        """Snapshot the recorded rounds into a :class:`Trace`."""
        if self._content is None:
            raise RuntimeError("no run was recorded (begin_run never ran)")
        rounds = len(self._counts)
        arrays: dict[str, np.ndarray] = {
            "knowledge_counts": (
                np.stack(self._counts)
                if rounds
                else np.zeros((0, self._n), dtype=np.uint16)
            ),
            "coded_ranks": (
                np.stack(self._ranks)
                if rounds
                else np.zeros((0, self._n), dtype=np.uint16)
            ),
            "down_nodes": (
                np.stack(self._down)
                if rounds
                else np.zeros((0, self._words), dtype=np.uint64)
            ),
            "partition_active": np.asarray(self._partition, dtype=np.uint8),
            "honest_survivors": np.asarray(self._honest, dtype=np.int64),
        }
        for name in ROUND_COUNTERS:
            arrays[name] = np.asarray(self._deltas[name], dtype=np.int64)
        manifest = {
            "schema": SCHEMA,
            "content": dict(self._content, rounds=rounds),
            "context": dict(
                self._context,
                version=_repro_version(),
                source_digest=source_digest(),
                clocked=self.profiler.enabled,
                profile=self.profiler.report(),
            ),
        }
        return Trace(arrays=arrays, manifest=manifest)

    def save(self, path: str | Path) -> Path:
        return save_trace(self.to_trace(), path)


def save_trace(trace: Trace, path: str | Path) -> Path:
    """Write one trace as a compressed ``.npz`` (manifest embedded as JSON)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest_json = json.dumps(trace.manifest, sort_keys=True, default=repr)
    with open(path, "wb") as handle:
        np.savez_compressed(
            handle,
            manifest=np.frombuffer(manifest_json.encode(), dtype=np.uint8),
            **trace.arrays,
        )
    return path


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    with np.load(Path(path)) as data:
        names = set(data.files)
        if "manifest" not in names:
            raise ValueError(f"{path} is not a repro.obs trace (no manifest)")
        manifest = json.loads(bytes(data["manifest"]).decode())
        missing = [name for name in CONTENT_ARRAYS if name not in names]
        if missing:
            raise ValueError(f"{path} is missing trace arrays: {missing}")
        arrays = {name: data[name] for name in CONTENT_ARRAYS}
    return Trace(arrays=arrays, manifest=manifest)
