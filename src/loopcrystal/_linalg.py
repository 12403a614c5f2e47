"""Dense exact linear algebra over Q and over prime fields.

Matrices are plain lists of row lists.  Every function takes the field as
``p``: a prime for GF(p), by default the 61-bit Mersenne prime
``DEFAULT_PRIME`` used by the oracle's randomized sampling, or ``None`` for
exact arithmetic over Q (Gram matrix inversion, audit passes of the oracle).
Integer entries are valid in both fields; over GF(p) results are reduced
residues, over Q they are ``Fraction`` or ``int``.

Row reduction mod p is the hot path of the oracle.  A compiled kernel
(:mod:`loopcrystal._rowreduce`, built from the committed C source when a
compiler is available) is selected at import time for primes below 2^62;
otherwise the pure-Python elimination below, with the same output, is used.
``BACKEND`` reports which one is active.
"""

from __future__ import annotations

from fractions import Fraction

DEFAULT_PRIME = (1 << 61) - 1  # Mersenne prime 2^61 - 1

try:  # pragma: no cover - exercised indirectly depending on the build
    from . import _rowreduce as _compiled
    BACKEND = "compiled"
except ImportError:  # pragma: no cover
    _compiled = None
    BACKEND = "python"


def rref_mod(rows, p=DEFAULT_PRIME):
    """Reduced row echelon form over GF(p), or over Q when ``p`` is None.

    Returns ``(reduced_rows, pivot_columns)``.  Entries are reduced on input,
    rows below the rank are zero, and the number of pivots is the rank.
    """
    # the kernel raises TypeError on a matrix without columns
    if _compiled is not None and p is not None and p < (1 << 62) and rows and rows[0]:
        return _compiled.rref_mod(rows, p)
    if p is None:
        m = [[Fraction(x) for x in r] for r in rows]
    else:
        m = [[x % p for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        for piv in range(r, nrows):
            if m[piv][c]:
                break
        else:
            continue
        m[r], m[piv] = m[piv], m[r]
        if p is None:
            inv = 1 / m[r][c]
            m[r] = row_r = [x * inv for x in m[r]]
        else:
            inv = pow(m[r][c], p - 2, p)
            m[r] = row_r = [x * inv % p for x in m[r]]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                if p is None:
                    m[i] = [a - f * b for a, b in zip(m[i], row_r)]
                else:
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank_mod(rows, p=DEFAULT_PRIME):
    return len(rref_mod(rows, p)[1])


def nullspace_mod(rows, ncols, p=DEFAULT_PRIME):
    """Basis of the right kernel of the ``len(rows)`` x ``ncols`` matrix.

    The basis is in the standard back-substitution form: one vector per free
    column, with a 1 in that column.  Empty ``rows`` give the standard basis.
    """
    red, pivots = rref_mod(rows, p)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc] if p is None else -red[i][fc] % p
        basis.append(v)
    return basis


def invert_frac(rows):
    """Exact inverse over Q of a square matrix; raises on singular input."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref_mod(aug, None)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [r[n:] for r in red[:n]]


def mat_mul_mod(a, b, p=DEFAULT_PRIME):
    """Matrix product ``a @ b``, reduced mod p unless ``p`` is None."""
    cols = list(zip(*b))
    if p is None:
        return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def mat_vec_mod(a, v, p=DEFAULT_PRIME):
    """Matrix-vector product ``a @ v``, reduced mod p unless ``p`` is None."""
    if p is None:
        return [sum(x * y for x, y in zip(row, v)) for row in a]
    return [sum(x * y for x, y in zip(row, v)) % p for row in a]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(nrows, ncols):
    return [[0] * ncols for _ in range(nrows)]


def transpose(a):
    return [list(col) for col in zip(*a)]
