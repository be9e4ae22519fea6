"""Contract tests for the round-trace telemetry layer (``repro.obs``).

The standing guarantees pinned here:

1. **Inertness** — attaching a :class:`~repro.obs.trace.TraceRecorder`
   never changes the execution: metrics are bit-identical with and
   without one, clocked or not.
2. **Determinism** — two same-seed runs record byte-identical trace
   content (equal ``content_digest()``).
3. **Cross-engine identity** — kernel and mask runs of the same
   seeded instance produce byte-identical trace *content*; only the
   manifest's context section (engine name, timings) differs.  This is a
   per-round strengthening of the end-of-run ``RunMetrics`` parity the
   engine-equivalence tests pin.
4. **Diff precision** — :func:`~repro.obs.diff.diff_traces` says
   ``identical`` on matching traces and names the first divergent round
   (and node, for per-node columns) on perturbed ones.
5. **Round-trip** — ``save_trace`` / ``load_trace`` preserve content and
   manifest exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms import IndexedBroadcastNode, TokenForwardingNode
from repro.bits import unpack_bools
from repro.network.faults import FaultModel
from repro.obs import (
    Clock,
    PhaseProfiler,
    ROUND_COUNTERS,
    TraceRecorder,
    diff_traces,
    load_trace,
    source_digest,
)
from repro.obs.trace import CONTENT_ARRAYS
from repro.scenarios import fault_model_for, make_scenario
from repro.simulation import run_dissemination, standard_instance
from tests.conftest import make_config

ENGINES = ("kernel", "mask")


class ManualClock(Clock):
    """A deterministic clock the test advances by hand."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"clocks only move forward, got {seconds}")
        self._now += float(seconds)


def _traced_run(
    factory,
    n,
    scenario,
    *,
    engine,
    seed=3,
    k=None,
    faults=None,
    recorder=None,
    **kwargs,
):
    config = make_config(n, k=k)
    placement = standard_instance(config.n, config.k, config.token_bits, seed=seed)
    adversary = make_scenario(scenario, n, seed=seed)
    trace = TraceRecorder() if recorder is None else recorder
    result = run_dissemination(
        factory,
        config,
        placement,
        adversary,
        seed=seed,
        engine=engine,
        faults=faults,
        trace=trace,
        **kwargs,
    )
    return result, trace.to_trace()


# ----------------------------------------------------------------------
# determinism and inertness


def test_same_seed_traces_are_byte_identical():
    _, first = _traced_run(TokenForwardingNode, 12, "edge_markov", engine="auto")
    _, second = _traced_run(TokenForwardingNode, 12, "edge_markov", engine="auto")
    assert first.content_digest() == second.content_digest()
    diff = diff_traces(first, second)
    assert diff.identical
    assert diff.describe() == "identical"


@pytest.mark.parametrize("engine", ENGINES)
def test_tracing_is_inert(engine):
    config = make_config(12)
    placement = standard_instance(12, 12, 8, seed=5)

    def run(trace):
        return run_dissemination(
            TokenForwardingNode,
            config,
            placement,
            make_scenario("edge_markov", 12, seed=5),
            seed=5,
            engine=engine,
            trace=trace,
        )

    bare = run(None)
    traced = run(TraceRecorder())
    clocked = run(TraceRecorder(clock=ManualClock()))
    assert dataclasses.asdict(bare.metrics) == dataclasses.asdict(traced.metrics)
    assert dataclasses.asdict(bare.metrics) == dataclasses.asdict(clocked.metrics)


def test_counter_columns_sum_to_final_metrics():
    result, trace = _traced_run(IndexedBroadcastNode, 12, "hostile_mix", engine="kernel")
    metrics = result.metrics
    assert trace.rounds == metrics.rounds_executed
    for name in ROUND_COUNTERS:
        assert int(trace.arrays[name].sum()) == int(getattr(metrics, name)), name
    # knowledge is monotone per node under benign-to-hostile forwarding
    counts = trace.arrays["knowledge_counts"].astype(np.int64)
    assert counts.shape == (trace.rounds, 12)
    assert trace.arrays["coded_ranks"].shape == (trace.rounds, 12)


# ----------------------------------------------------------------------
# cross-engine content identity

CROSS_ENGINE_CASES = [
    pytest.param(TokenForwardingNode, "edge_markov", 12, None, id="forwarding-benign"),
    pytest.param(
        IndexedBroadcastNode, "edge_markov", 10, None, id="coded-benign"
    ),
    pytest.param(
        IndexedBroadcastNode, "hostile_mix", 12, None, id="coded-hostile-mix"
    ),
    pytest.param(
        TokenForwardingNode,
        "crash_recover_churn",
        12,
        "crash_recover_churn",
        id="forwarding-crash-recover",
    ),
    pytest.param(
        TokenForwardingNode,
        "lossy_edge_markov",
        12,
        "lossy_edge_markov",
        id="forwarding-lossy",
    ),
]


@pytest.mark.parametrize("factory,scenario,n,fault_scenario", CROSS_ENGINE_CASES)
def test_trace_content_identical_across_engines(factory, scenario, n, fault_scenario):
    faults = (
        fault_model_for(fault_scenario, n, seed=3) if fault_scenario else None
    )
    traces = {}
    for engine in ENGINES:
        _, traces[engine] = _traced_run(
            factory, n, scenario, engine=engine, faults=faults
        )
    kernel, mask = (traces[e] for e in ENGINES)
    assert kernel.content_digest() == mask.content_digest()
    # context still tells the runs apart
    assert {traces[e].context["engine"] for e in ENGINES} == set(ENGINES)
    assert diff_traces(kernel, mask).identical


def test_down_bitmap_and_partition_columns_record_fault_state():
    n = 12
    faults = fault_model_for("partition_heal_waypoint", n, seed=3)
    _, trace = _traced_run(
        IndexedBroadcastNode,
        n,
        "partition_heal_waypoint",
        engine="kernel",
        faults=faults,
    )
    partition = trace.arrays["partition_active"].astype(bool)
    windows = faults.partitions.windows
    for round_index in range(trace.rounds):
        expected = any(start <= round_index < end for start, end in windows)
        assert partition[round_index] == expected, round_index
    down = unpack_bools(trace.arrays["down_nodes"], n)
    assert down.shape == (trace.rounds, n)
    crash_faults = fault_model_for("crash_recover_churn", n, seed=3)
    _, crashed = _traced_run(
        TokenForwardingNode,
        n,
        "crash_recover_churn",
        engine="kernel",
        faults=crash_faults,
    )
    crashed_down = unpack_bools(crashed.arrays["down_nodes"], n)
    assert crashed_down.any(), "crash scenario recorded no down node"


# ----------------------------------------------------------------------
# diff precision


def test_diff_names_first_divergent_round_and_node():
    _, a = _traced_run(TokenForwardingNode, 12, "edge_markov", engine="kernel")
    _, b = _traced_run(TokenForwardingNode, 12, "edge_markov", engine="kernel")
    # perturb one per-node cell and one scalar counter
    b.arrays["knowledge_counts"] = b.arrays["knowledge_counts"].copy()
    b.arrays["knowledge_counts"][4, 7] += 1
    b.arrays["broadcasts"] = b.arrays["broadcasts"].copy()
    b.arrays["broadcasts"][6] += 3
    diff = diff_traces(a, b)
    assert not diff.identical
    assert diff.first.field == "knowledge_counts"
    assert diff.first.round_index == 4
    assert diff.first.node == 7
    fields = {d.field: d for d in diff.divergences}
    assert fields["broadcasts"].round_index == 6
    assert fields["broadcasts"].node is None
    assert "round 4, node 7" in diff.describe()


def test_diff_reports_manifest_and_length_mismatches():
    _, a = _traced_run(TokenForwardingNode, 12, "edge_markov", engine="kernel")
    _, b = _traced_run(TokenForwardingNode, 12, "edge_markov", engine="kernel", seed=4)
    diff = diff_traces(a, b)
    assert not diff.identical
    assert "seed" in diff.manifest_mismatches
    truncated_arrays = {
        name: array[:-1] if array.shape[0] == a.rounds else array
        for name, array in a.arrays.items()
    }
    truncated = dataclasses.replace(a, arrays=truncated_arrays)
    short = diff_traces(a, truncated)
    assert not short.identical
    assert short.length_mismatch == (a.rounds, a.rounds - 1)
    assert "different" in short.describe() and "lengths" in short.describe()


# ----------------------------------------------------------------------
# serialisation round-trip


def test_save_load_roundtrip(tmp_path):
    _, trace = _traced_run(IndexedBroadcastNode, 10, "edge_markov", engine="kernel")
    path = trace.save(tmp_path / "run.npz")
    loaded = load_trace(path)
    assert loaded.content_digest() == trace.content_digest()
    assert loaded.manifest == trace.manifest
    for name in CONTENT_ARRAYS:
        np.testing.assert_array_equal(loaded.arrays[name], trace.arrays[name])
    assert diff_traces(loaded, trace).identical


def test_save_appends_npz_suffix(tmp_path):
    _, trace = _traced_run(TokenForwardingNode, 12, "edge_markov", engine="kernel")
    path = trace.save(tmp_path / "bare")
    assert path.suffix == ".npz"
    assert load_trace(path).rounds == trace.rounds


def test_load_rejects_foreign_npz(tmp_path):
    path = tmp_path / "foreign.npz"
    np.savez(path, data=np.arange(4))
    with pytest.raises(ValueError, match="no manifest"):
        load_trace(path)


# ----------------------------------------------------------------------
# recorder contract


def test_recorder_refuses_reuse_and_out_of_order_rounds():
    recorder = TraceRecorder()
    _traced_run(
        TokenForwardingNode, 12, "edge_markov", engine="kernel", recorder=recorder
    )
    with pytest.raises(RuntimeError, match="one recorder per run"):
        _traced_run(
            TokenForwardingNode, 12, "edge_markov", engine="kernel", recorder=recorder
        )
    fresh = TraceRecorder()
    with pytest.raises(RuntimeError, match="begin_run"):
        fresh.to_trace()


def test_recorder_rejects_untraceable_widths():
    recorder = TraceRecorder()
    config = make_config(4)
    wide = dataclasses.replace(config, n=2**16, k=2**16)
    with pytest.raises(ValueError, match="uint16"):
        recorder.begin_run(
            config=wide, seed=0, engine="kernel", factory=TokenForwardingNode
        )


def test_manifest_splits_content_from_context():
    faults = FaultModel(loss=0.25)
    recorder = TraceRecorder(label="pinned")
    _, trace = _traced_run(
        TokenForwardingNode,
        12,
        "edge_markov",
        engine="kernel",
        faults=faults,
        recorder=recorder,
    )
    content = trace.content
    assert content["protocol"] == "TokenForwardingNode"
    assert content["label"] == "pinned"
    assert content["faults"] == repr(faults)
    assert content["rounds"] == trace.rounds
    context = trace.context
    assert context["engine"] == "kernel"
    assert context["clocked"] is False
    assert context["profile"] == {}
    assert context["source_digest"] == source_digest()


def test_manifest_digest_hashes_the_package_sources():
    """sha256 over ``src/repro/**/*.py``: sorted paths relative to ``src``, then bytes."""
    src = Path(repro.__file__).resolve().parents[1]
    files = []
    for directory, _, names in os.walk(src / "repro"):
        for name in names:
            if name.endswith(".py"):
                relative = os.path.relpath(os.path.join(directory, name), src)
                files.append(relative.split(os.sep))
    digest = hashlib.sha256()
    for parts in sorted(files):
        digest.update("/".join(parts).encode())
        digest.update(src.joinpath(*parts).read_bytes())
    assert source_digest() == digest.hexdigest()[:12]


# ----------------------------------------------------------------------
# clock seam and phase profiler


def test_manual_clock_profiler_records_phases():
    clock = ManualClock()
    profiler = PhaseProfiler(clock)
    assert profiler.enabled
    with profiler.span("compose"):
        clock.advance(0.5)
        with profiler.span("insert"):
            clock.advance(0.25)
    with profiler.span("compose"):
        clock.advance(1.0)
    report = profiler.report()
    assert report["compose"] == {"seconds": 1.75, "calls": 2}
    assert report["insert"] == {"seconds": 0.25, "calls": 1}
    with pytest.raises(ValueError, match="forward"):
        clock.advance(-1.0)


def test_clockless_profiler_is_inert():
    profiler = PhaseProfiler()
    assert not profiler.enabled
    first = profiler.span("compose")
    second = profiler.span("deliver")
    assert first is second, "clockless spans must share one no-op object"
    with first:
        pass
    assert profiler.report() == {}


def test_clocked_trace_reports_engine_phases():
    recorder = TraceRecorder(clock=ManualClock())
    _, trace = _traced_run(
        IndexedBroadcastNode,
        10,
        "edge_markov",
        engine="kernel",
        faults=FaultModel(loss=0.1),  # the faults span needs a bound plan
        recorder=recorder,
    )
    assert trace.context["clocked"] is True
    profile = trace.context["profile"]
    for phase in ("compose", "faults", "deliver", "insert", "decode", "materialise"):
        assert phase in profile, phase
        assert profile[phase]["calls"] >= 1


# ----------------------------------------------------------------------
# RunMetrics.to_dict coverage


def test_metrics_to_dict_covers_every_field():
    result, _ = _traced_run(TokenForwardingNode, 12, "edge_markov", engine="kernel")
    metrics = result.metrics
    data = metrics.to_dict()
    for field in dataclasses.fields(metrics):
        assert field.name in data, field.name
    for derived in (
        "completed",
        "average_message_bits",
        "waste_fraction",
        "surviving_completion_rate",
    ):
        assert derived in data, derived
    assert data["progress"] == [list(entry) for entry in metrics.progress]
