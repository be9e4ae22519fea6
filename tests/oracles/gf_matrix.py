"""Dense matrix algebra over prime fields: the GF(q) reference.

Textbook Gauss-Jordan elimination on numpy arrays of canonical field
elements (integers in ``[0, q)``), with the field passed explicitly:
reduced row echelon form, rank, solving, inverses, null spaces, random
and Vandermonde matrices, and the matrix product the tests use to check
``solve`` and ``inverse``.  It uses only ``repro.gf.GF``'s scalar and
elementwise arithmetic, never the package's own elimination
(``Subspace``, ``GF2Basis``, ``GF2BasisBatch``), so tests can hold those
against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.gf import GF

__all__ = [
    "matmul",
    "rref",
    "rank",
    "row_space_basis",
    "null_space_basis",
    "solve",
    "inverse",
    "is_invertible",
    "random_matrix",
    "random_invertible_matrix",
    "identity",
    "vandermonde",
    "RrefResult",
]


@dataclass(frozen=True)
class RrefResult:
    """Result of a reduced-row-echelon-form computation.

    Attributes
    ----------
    matrix:
        The matrix in RREF, same shape as the input.
    pivot_columns:
        Tuple of column indices containing pivots, in row order.
    rank:
        Number of pivots (== number of non-zero rows).
    """

    matrix: np.ndarray
    pivot_columns: tuple[int, ...]
    rank: int


def matmul(field: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over the field."""
    a = np.asarray(a)
    b = np.asarray(b)
    if field.uses_object_dtype or max(a.shape[-1], 1) * (field.q - 1) ** 2 >= 2**62:
        # Exact Python-int path where int64 products could overflow.
        a2 = np.atleast_2d(a)
        b2 = np.atleast_2d(b)
        rows, inner = a2.shape
        inner2, cols = b2.shape
        if inner != inner2:
            raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
        out = np.empty((rows, cols), dtype=object)
        for i in range(rows):
            for j in range(cols):
                total = 0
                for t in range(inner):
                    total = (total + int(a2[i, t]) * int(b2[t, j])) % field.q
                out[i, j] = total
        return out
    return np.mod(a @ b, field.q)


def _as_field_matrix(field: GF, matrix: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    arr = field.asarray(matrix)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr.copy()


def rref(field: GF, matrix: np.ndarray | Sequence[Sequence[int]]) -> RrefResult:
    """Compute the reduced row echelon form of ``matrix`` over ``field``.

    Runs standard Gauss-Jordan elimination with exact field arithmetic.
    """
    a = _as_field_matrix(field, matrix)
    rows, cols = a.shape
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        # Find a row with a non-zero entry in this column at or below pivot_row.
        pivot_candidates = [r for r in range(pivot_row, rows) if int(a[r, col]) != 0]
        if not pivot_candidates:
            continue
        chosen = pivot_candidates[0]
        if chosen != pivot_row:
            a[[pivot_row, chosen]] = a[[chosen, pivot_row]]
        # Normalize the pivot row so the pivot is 1.
        pivot_value = int(a[pivot_row, col])
        if pivot_value != 1:
            a[pivot_row] = field.scale(a[pivot_row], field.inv(pivot_value))
        # Eliminate the column from every other row.
        for r in range(rows):
            if r == pivot_row:
                continue
            factor = int(a[r, col])
            if factor != 0:
                a[r] = field.sub_arrays(a[r], field.scale(a[pivot_row], factor))
        pivot_cols.append(col)
        pivot_row += 1
    return RrefResult(matrix=a, pivot_columns=tuple(pivot_cols), rank=len(pivot_cols))


def rank(field: GF, matrix: np.ndarray | Sequence[Sequence[int]]) -> int:
    """Rank of ``matrix`` over ``field``."""
    arr = np.asarray(matrix)
    if arr.size == 0:
        return 0
    return rref(field, arr).rank


def row_space_basis(field: GF, matrix: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """A canonical basis (RREF non-zero rows) of the row space of ``matrix``."""
    arr = np.asarray(matrix)
    if arr.size == 0:
        return field.zeros((0, arr.shape[-1] if arr.ndim == 2 else 0))
    result = rref(field, arr)
    return result.matrix[: result.rank].copy()


def null_space_basis(field: GF, matrix: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """A basis of the (right) null space ``{x : M x = 0}`` over ``field``."""
    a = _as_field_matrix(field, matrix)
    rows, cols = a.shape
    result = rref(field, a)
    pivots = set(result.pivot_columns)
    free_cols = [c for c in range(cols) if c not in pivots]
    if not free_cols:
        return field.zeros((0, cols))
    basis = field.zeros((len(free_cols), cols))
    pivot_list = list(result.pivot_columns)
    for i, free in enumerate(free_cols):
        basis[i, free] = 1
        for row_idx, pivot_col in enumerate(pivot_list):
            coeff = int(result.matrix[row_idx, free])
            if coeff != 0:
                basis[i, pivot_col] = field.neg(coeff)
    return basis


def solve(
    field: GF,
    matrix: np.ndarray | Sequence[Sequence[int]],
    rhs: np.ndarray | Sequence[int],
) -> np.ndarray | None:
    """Solve ``M x = rhs`` over the field; return one solution or None.

    ``rhs`` may be a vector or a matrix of stacked right-hand-side columns.
    """
    a = _as_field_matrix(field, matrix)
    b = field.asarray(rhs)
    vector_rhs = b.ndim == 1
    if vector_rhs:
        b = b.reshape(-1, 1)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    augmented = np.concatenate([a, b], axis=1)
    result = rref(field, augmented)
    n_cols = a.shape[1]
    # Inconsistent if a pivot lands in the RHS block.
    if any(p >= n_cols for p in result.pivot_columns):
        return None
    solution = field.zeros((n_cols, b.shape[1]))
    for row_idx, pivot_col in enumerate(result.pivot_columns):
        solution[pivot_col] = result.matrix[row_idx, n_cols:]
    if vector_rhs:
        return solution[:, 0]
    return solution


def identity(field: GF, n: int) -> np.ndarray:
    """The ``n x n`` identity matrix over ``field``."""
    eye = field.zeros((n, n))
    for i in range(n):
        eye[i, i] = 1
    return eye


def is_invertible(field: GF, matrix: np.ndarray | Sequence[Sequence[int]]) -> bool:
    """True iff ``matrix`` is square and has full rank over ``field``."""
    a = _as_field_matrix(field, matrix)
    if a.shape[0] != a.shape[1]:
        return False
    return rank(field, a) == a.shape[0]


def inverse(field: GF, matrix: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """Matrix inverse over the field.

    Raises
    ------
    ValueError
        If the matrix is not square or is singular.
    """
    a = _as_field_matrix(field, matrix)
    n, m = a.shape
    if n != m:
        raise ValueError(f"cannot invert a non-square matrix of shape {a.shape}")
    augmented = np.concatenate([a, identity(field, n)], axis=1)
    result = rref(field, augmented)
    if result.rank < n or any(p >= n for p in result.pivot_columns[:n]):
        raise ValueError("matrix is singular over the field")
    return result.matrix[:, n:].copy()


def random_matrix(field: GF, rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A uniformly random ``rows x cols`` matrix over the field."""
    return field.random_elements(rng, (rows, cols))


def random_invertible_matrix(field: GF, rng: np.random.Generator, n: int) -> np.ndarray:
    """A uniformly-random-ish invertible ``n x n`` matrix (rejection sampling)."""
    while True:
        candidate = random_matrix(field, rng, n, n)
        if is_invertible(field, candidate):
            return candidate


def vandermonde(field: GF, points: Sequence[int], cols: int) -> np.ndarray:
    """Vandermonde matrix ``V[i, j] = points[i]**j`` over the field.

    Useful for constructing deterministic coefficient schedules (Section 6):
    any ``k`` rows of a Vandermonde matrix over distinct points are linearly
    independent when the field is large enough.
    """
    pts = [field.normalize(p) for p in points]
    out = field.zeros((len(pts), cols))
    for i, p in enumerate(pts):
        value = 1
        for j in range(cols):
            out[i, j] = value
            value = field.mul(value, p)
    return out
