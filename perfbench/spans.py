"""Outside-in layer spans for the traced benchmark run.

The traced run wraps the public entry points of each ``src/repro`` layer
from here -- nothing inside ``src`` is edited -- and restores every wrapper
afterwards.  Spans nest on one stack: a span's *self time* is its wall time
minus the wall time of the spans opened inside it, so each interval is
counted once (``gf.insert`` inside ``kernel.deliver`` is charged to
``gf.insert`` only).  The root span is the ``run_dissemination`` call
itself; its self time is the runner's own round loop (``runner.other``),
and all self times together add up to the root's wall time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from types import FunctionType

_MISSING = object()


class SpanRecorder:
    """Per-layer self times, call counts and work counters of one run."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: Wall clock at each ``choose_topology`` entry: round boundaries.
        self.round_starts: list[float] = []
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside span ``name``; return its result."""
        frame = [0.0]  # wall time of spans nested inside this one
        self._stack.append(frame)
        self._depth[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._depth[name] -= 1
            self._stack.pop()
            self.self_s[name] += elapsed - frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed

    def outermost(self, name: str) -> bool:
        """Whether no span of this name is open (recursive calls nest)."""
        return self._depth[name] == 0


def _timed(recorder: SpanRecorder, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        outer = recorder.outermost(name)
        result = recorder.call(name, fn, *args, **kwargs)
        if after is not None and outer:
            after(recorder, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _count_insert(recorder, args, flags):
    recorder.counts["gf.insert_rows"] += len(flags)
    recorder.counts["gf.innovative_rows"] += int(flags.sum())


def _count_bind(recorder, args, result):
    recorder.counts["faults.base_entries"] += args[1].size
    recorder.counts["faults.effective_entries"] += result[0].size


class Patches:
    """Install timing wrappers on module and class attributes; undo them."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        saved = owner.__dict__.get(attr, _MISSING)
        fn = getattr(owner, attr)
        if not isinstance(fn, FunctionType):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        self._saved.append((owner, attr, saved))
        setattr(owner, attr, _timed(self.recorder, name, fn, after))

    def restore(self) -> bool:
        """Undo every wrapper; True iff each attribute is back as it was."""
        for owner, attr, saved in reversed(self._saved):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        return all(
            owner.__dict__.get(attr, _MISSING) is saved
            for owner, attr, saved in self._saved
        )


def install(recorder: SpanRecorder, factory, config) -> Patches:
    """Wrap the entry points of every layer a workload can reach."""
    from repro.gf import GF2BasisBatch
    from repro.network.faults import BoundFaults, RoundFaultPlan
    from repro.obs import TraceRecorder
    from repro.simulation import kernels, runner

    patches = Patches(recorder)
    patches.wrap(runner, "build_nodes", "runner.build_nodes")
    kernel_cls = kernels.kernel_for(factory, config)
    if kernel_cls is not None:
        patches.wrap(kernel_cls, "__init__", "kernel.build")
        patches.wrap(kernel_cls, "compose_all", "kernel.compose")
        patches.wrap(kernel_cls, "deliver_all", "kernel.deliver")
        patches.wrap(kernel_cls, "to_nodes", "kernel.materialise")
    patches.wrap(factory, "compose", "node.compose")
    patches.wrap(factory, "deliver", "node.deliver")
    patches.wrap(GF2BasisBatch, "insert_batch", "gf.insert", _count_insert)
    patches.wrap(GF2BasisBatch, "combine_sorted", "gf.combine")
    patches.wrap(GF2BasisBatch, "draw_random_picks", "gf.picks")
    patches.wrap(GF2BasisBatch, "decode_payload_masks_batch", "gf.decode")
    patches.wrap(BoundFaults, "begin_round", "faults.begin_round")
    patches.wrap(RoundFaultPlan, "bind_edges", "faults.bind_edges", _count_bind)
    patches.wrap(RoundFaultPlan, "account", "faults.account")
    patches.wrap(TraceRecorder, "observe_round", "obs.observe_round")
    return patches


def timed_adversary(recorder: SpanRecorder, inner):
    """A proxy adversary whose ``choose_topology`` is the dynamics span.

    The proxy also builds the round topology's CSR arrays (cached on the
    ``Topology``, so the engines reuse them), which charges the CSR build
    to ``dynamics.choose_topology`` with the schedule generation it serves.
    """
    from repro.network.adversary import Adversary

    class TimedAdversary(Adversary):
        @property
        def sees_messages(self) -> bool:  # type: ignore[override]
            return inner.sees_messages

        def reset(self) -> None:
            inner.reset()

        def choose_topology(self, round_index, n, states, *messages):
            recorder.round_starts.append(time.perf_counter())
            return recorder.call(
                "dynamics.choose_topology", self._choose, round_index, n, states, messages
            )

        def _choose(self, round_index, n, states, messages):
            topology = inner.choose_topology(round_index, n, states, *messages)
            indices, _ = topology.csr_adjacency()
            recorder.counts["topology.csr_entries"] += indices.size
            return topology

    return TimedAdversary()
