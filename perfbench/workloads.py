"""The four benchmark workloads and the inputs each one builds from a seed.

Each workload runs one ``run_dissemination`` call whose time is dominated
by a different layer of ``src/repro``:

* ``coded_broadcast`` -- the paper's indexed-broadcast network coding on the
  kernel engine; the batched GF(2) core (``gf.packed``) does most of the work.
* ``adaptive_faults`` -- token forwarding under the adaptive bridge-loss
  adversary with a trace recorder attached; the per-round fault pass
  (``network.faults``) dominates and the trace layer (``obs``) is on.
* ``forwarding_dynamics`` -- token forwarding, the paper's baseline, on the
  kernel engine; many cheap rounds, so schedule generation
  (``network.dynamics`` / ``network.topology``) dominates.
* ``object_engine`` -- token forwarding on the per-node object ("mask")
  engine under 20 % loss; the runner's own round loop dominates.

Largest self-time shares of the traced run (``--trace 1``) at seeds 0 and 1,
on a 2-core x86-64 Linux machine with Python 3.11 and numpy 2.4:

=====================  =============================  =============================
workload               seed 0                         seed 1
=====================  =============================  =============================
coded_broadcast        gf.insert 74 %                 gf.insert 73 %
adaptive_faults        faults.bind_edges 83 %         faults.bind_edges 82 %
forwarding_dynamics    dynamics.choose_topology 75 %  dynamics.choose_topology 75 %
object_engine          runner.other 52 %              runner.other 52 %
=====================  =============================  =============================

Only :func:`build_inputs` imports ``repro``, so the parent process that
drives the runs stays light.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a protocol on a catalog scenario at a size."""

    name: str
    protocol: str
    n: int
    k: int
    scenario: str
    engine: str
    #: The engine ``run_dissemination`` must report; anything else means a
    #: silent fallback changed what is being measured.
    expected_engine: str
    #: Attach a clock-free ``TraceRecorder`` (round-trace telemetry).
    record_trace: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="coded_broadcast",
            protocol="IndexedBroadcastNode",
            n=256,
            k=256,
            scenario="edge_markov",
            engine="auto",
            expected_engine="kernel",
        ),
        Workload(
            name="adaptive_faults",
            protocol="TokenForwardingNode",
            n=128,
            k=16,
            scenario="bridge_loss_markov",
            engine="auto",
            expected_engine="kernel",
            record_trace=True,
        ),
        Workload(
            name="forwarding_dynamics",
            protocol="TokenForwardingNode",
            n=128,
            k=128,
            scenario="edge_markov",
            engine="auto",
            expected_engine="kernel",
        ),
        Workload(
            name="object_engine",
            protocol="TokenForwardingNode",
            n=64,
            k=64,
            scenario="lossy_edge_markov",
            engine="mask",
            expected_engine="mask",
        ),
    )
}

#: Bits per token payload in every workload.
TOKEN_BITS = 8


def build_inputs(workload: Workload, seed: int) -> dict:
    """The keyword arguments of one ``run_dissemination`` call.

    Every input -- placement, adversary, fault model and the run seed --
    derives from ``seed``, so the same seed always builds the same run.
    """
    import repro.algorithms
    from repro.algorithms.base import ProtocolConfig
    from repro.obs import TraceRecorder
    from repro.scenarios import fault_model_for, make_scenario
    from repro.simulation import standard_instance
    from repro.tokens import MessageBudget

    config = ProtocolConfig(
        n=workload.n,
        k=workload.k,
        token_bits=TOKEN_BITS,
        budget=MessageBudget(b=workload.n + 16),
    )
    return {
        "factory": getattr(repro.algorithms, workload.protocol),
        "config": config,
        "placement": standard_instance(workload.n, workload.k, TOKEN_BITS, seed=seed),
        "adversary": make_scenario(workload.scenario, workload.n, seed=seed),
        "seed": seed,
        "engine": workload.engine,
        "faults": fault_model_for(workload.scenario, workload.n, seed=seed),
        "trace": TraceRecorder() if workload.record_trace else None,
    }
