"""The runtime path needs no networkx.

networkx is a test-only dependency: it is the independent oracle for the
topology builders, bridges and Section 8.1 patching.  A fresh interpreter
with ``sys.modules["networkx"] = None`` (so any ``import networkx`` raises)
imports the package's entry points and runs one dissemination on each
engine plus one T-stable patch-sharing run; a stray top-level import of
networkx anywhere on that path fails this test.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys

sys.modules["networkx"] = None

import repro
import repro.obs
import repro.scenarios
import repro.simulation
from repro import (
    IndexedBroadcastNode,
    RandomConnectedAdversary,
    TokenForwardingNode,
    TStableAdversary,
    run_dissemination,
)
from repro.algorithms import make_tstable_factory
from repro.algorithms.base import ProtocolConfig
from repro.network import BottleneckAdversary
from repro.simulation import standard_instance
from repro.tokens import MessageBudget

n = 12
config = ProtocolConfig(n=n, k=n, token_bits=8, budget=MessageBudget(b=n + 16))
placement = standard_instance(n, n, 8, seed=0)
runs = {
    "kernel": run_dissemination(
        IndexedBroadcastNode, config, placement, BottleneckAdversary(), seed=0, engine="kernel"
    ),
    "mask": run_dissemination(
        TokenForwardingNode, config, placement, BottleneckAdversary(), seed=0, engine="mask"
    ),
}
stable = ProtocolConfig(n=n, k=n, token_bits=8, budget=MessageBudget(b=n + 16), stability=8)
runs["tstable"] = run_dissemination(
    make_tstable_factory(stable, seed=0),
    stable,
    placement,
    TStableAdversary(RandomConnectedAdversary(seed=1), 8),
    seed=0,
)
for name, result in runs.items():
    assert result.completed and result.correct, name
assert sys.modules["networkx"] is None
print(" ".join(f"{name}:{result.engine}" for name, result in runs.items()))
"""


def test_runs_with_networkx_blocked():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["kernel:kernel", "mask:mask", "tstable:mask"]
