"""A fixed CPU loop that measures how fast this machine runs right now.

On a shared machine the speed of a core drifts.  On a shared 2-core x86-64
Linux machine, one object-engine run took anywhere from 0.55 s
to 1.06 s within two minutes, with user CPU time tracking wall time (no
waiting, no steal), and the medians of five 25-second benchmark runs
spread by more than half of their value.  Repeats inside one run cannot
average a drift that slow away.

So the benchmark times this loop between consecutive runs and reports each
run's times rescaled to the loop's reference speed:
``seconds * REFERENCE_S / loop`` where ``loop`` is the mean of the passes
just before and just after that run.  The loop mixes, in about equal
parts, the kinds of work the simulator does -- Python bytecode over small
ints and dicts, Python objects scattered over a heap, short numpy calls on
packed ``uint64`` rows, gathers over a cache-sized array and streams over
a larger one -- and uses no ``repro`` code, so a change to the simulator
never moves the yardstick.  Over five minutes of alternating runs,
rescaling cut the spread (quartile distance over median) of 25-second
medians from 0.21 to 0.12 on ``object_engine`` and from 0.11 to 0.07 on
``coded_broadcast``.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds one :func:`loop_seconds` pass takes at the reference speed.
REFERENCE_S = 0.15


def _python_ints() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(160_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
    return acc + len(table)


def _python_heap() -> int:
    objects = [{"id": i, "pair": (i, i + 1), "list": [i]} for i in range(20_000)]
    order = np.random.default_rng(0).permutation(len(objects)).tolist()
    acc = 0
    for i in order:
        item = objects[i]
        acc += item["id"] + item["pair"][1] + len(item["list"])
    return acc


def _numpy_rows() -> int:
    rows = np.arange(64 * 8, dtype=np.uint64).reshape(64, 8)
    total = 0
    for i in range(5_000):
        rows = (rows ^ (rows >> np.uint64(3))) | np.uint64(i)
        total += int(np.bitwise_count(rows[i & 63]).sum())
    return total


def _numpy_gather() -> int:
    words = np.arange(1 << 19, dtype=np.uint64)  # 4 MiB
    picks = (np.arange(1 << 17, dtype=np.int64) * 7919) % words.size
    for i in range(8):
        words ^= words >> np.uint64(5)
        words[picks] = words[picks] | np.uint64(i)
    return int(words[-1])


def _numpy_stream() -> int:
    words = np.ones(1 << 22, dtype=np.uint64)  # 32 MiB
    for _ in range(2):
        words ^= words >> np.uint64(1)
    return int(words[-1])


def loop_seconds() -> float:
    """Wall seconds of one pass of the fixed loop."""
    start = time.perf_counter()
    _python_ints()
    _python_heap()
    _numpy_rows()
    _numpy_gather()
    _numpy_stream()
    return time.perf_counter() - start
