"""Quickstart: disseminate n tokens in a fully dynamic network, with and without coding.

Runs the paper's headline comparison at a small scale: every node starts
with one token, an adaptive adversary rewires the (always connected) network
every round, and we compare random linear network coding against the
knowledge-based token-forwarding baseline.  A second section demonstrates
execution-engine selection: the same run on the vectorised kernel engine
and the per-node mask engine — identical results, very different
wall-clock.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    BottleneckAdversary,
    IndexedBroadcastNode,
    MessageBudget,
    ProtocolConfig,
    TokenForwardingNode,
    one_token_per_node,
    run_dissemination,
)


def engine_selection_demo() -> None:
    """One protocol, two engines: same metrics, different speed.

    ``engine="auto"`` (the default) picks the packed-array kernel engine
    for protocols that ship a RoundKernel and the per-node mask engine
    otherwise.
    """
    from repro.network import ShiftedRingAdversary

    n = 128
    config = ProtocolConfig(n=n, k=n, token_bits=8, budget=MessageBudget(b=48))
    placement = one_token_per_node(n, 8, np.random.default_rng(0))

    print(f"\nengine selection (token forwarding, n = k = {n}, shifted rings):")
    for engine in ("kernel", "mask"):
        start = time.perf_counter()
        result = run_dissemination(
            TokenForwardingNode,
            config,
            placement,
            ShiftedRingAdversary(),
            seed=1,
            engine=engine,
            max_rounds=600,
        )
        elapsed = time.perf_counter() - start
        print(
            f"  engine={engine!r:9}: {result.metrics.rounds_executed:4d} rounds "
            f"in {elapsed:6.3f}s (broadcasts={result.metrics.broadcasts})"
        )
    auto = run_dissemination(
        TokenForwardingNode,
        config,
        placement,
        ShiftedRingAdversary(),
        seed=1,
        engine="auto",
        max_rounds=600,
    )
    print(f"  engine='auto' resolved to {auto.engine!r}")


def main() -> None:
    n = 32                      # number of nodes (and tokens: one per node)
    token_bits = 8              # token size d
    budget = MessageBudget(b=n + 32)   # message size b (covers the coding header)

    config = ProtocolConfig(n=n, k=n, token_bits=token_bits, budget=budget)
    placement = one_token_per_node(n, token_bits, np.random.default_rng(0))

    print(f"n = k = {n}, d = {token_bits} bits, b = {budget.b} bits")
    print("adversary: adaptive bottleneck (reconnects the least-informed cut every round)\n")

    coded = run_dissemination(IndexedBroadcastNode, config, placement, BottleneckAdversary(), seed=1)
    forwarding = run_dissemination(TokenForwardingNode, config, placement, BottleneckAdversary(), seed=1)

    print(f"network coding (Lemma 5.3)     : {coded.rounds:5d} rounds, "
          f"correct={coded.correct}, avg message = {coded.metrics.average_message_bits:.0f} bits")
    print(f"token forwarding (Theorem 2.1) : {forwarding.rounds:5d} rounds, "
          f"correct={forwarding.correct}, avg message = {forwarding.metrics.average_message_bits:.0f} bits")
    print(f"\nspeedup from coding: {forwarding.rounds / coded.rounds:.1f}x "
          f"(grows with n — see benchmarks/bench_e07_coding_vs_forwarding.py)")

    engine_selection_demo()


if __name__ == "__main__":
    main()
