"""Fixture: the packed bit-row layout outside repro/bits.py (REP404)."""

import numpy as np


def words(n):
    return max(1, (n + 63) // 64)


def bit(row, i):
    return (int(row[i >> 6]) >> (i & 63)) & 1


def offset_constant_first(i):
    return 63 & i


def masks(data, stride, u):
    return int.from_bytes(data[u * stride : (u + 1) * stride], "little")


def pack(mask, words):
    return mask.to_bytes(words * 8, "little")


bools = np.unpackbits(np.packbits([1, 0, 1], bitorder="little"), bitorder="little")


def words_allowed(n):
    return (n + 63) // 64  # repro: allow[REP404] fixture proves suppression works


def byte_arithmetic_is_fine(x):
    return (x + 7) // 8, x >> 3, x & 7
