"""Dense exact linear algebra over Q and over prime fields.

Matrices are plain lists of row lists.  Every function takes the field as
``p``: a prime for GF(p), by default the 61-bit Mersenne prime
``DEFAULT_PRIME`` used by the oracle's randomized sampling, or ``None`` for
exact arithmetic over Q (the audit passes of the oracle).  Integer entries
are valid in both fields; over GF(p) results are reduced residues.  Over Q
the input may also hold rationals (anything with ``numerator`` and
``denominator``), and the results are integers: row reduction is
fraction-free (Bareiss), so ranks, kernels and echelon forms carry no
denominators, and no function returns a ``Fraction``.

Row reduction mod p is the hot path of the oracle.  It is pure Python: one
Gauss-Jordan loop over GF(p) and one fraction-free loop over Q.
"""

from __future__ import annotations

import math

DEFAULT_PRIME = (1 << 61) - 1  # Mersenne prime 2^61 - 1

#: the only backend; ``perfbench/worker.py`` records it in every result
BACKEND = "python"


def rref_mod(rows, p=DEFAULT_PRIME):
    """Reduced row echelon form over GF(p), or over Q when ``p`` is None.

    Returns ``(reduced_rows, pivot_columns)``.  Rows below the rank are zero,
    and the number of pivots is the rank.  Over GF(p) entries are reduced on
    input and every pivot is 1.  Over Q the rows are integers and hold the
    reduced echelon form up to one common pivot scale: every pivot is the
    same nonzero integer ``d``, and each pivot column is zero outside its
    pivot row.
    """
    if p is None:
        return _rref_fraction_free(rows)
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
        inv = pow(m[r][c], -1, p)
        m[r] = row_r = [x * inv % p for x in m[r]]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _rref_fraction_free(rows):
    """:func:`rref_mod` over Q by fraction-free Gauss-Jordan elimination.

    Each row's denominators are cleared first.  Each step multiplies every
    other row by the new pivot, subtracts the pivot row, and divides by the
    previous pivot (Bareiss, *Math. Comp.* 22, 1968).  The division is exact,
    since every entry is then a minor of the cleared input, and it leaves the
    earlier pivots equal to the new one.
    """
    m = []
    for r in rows:
        den = math.lcm(*(x.denominator for x in r))
        m.append([x.numerator * (den // x.denominator) for x in r])
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        for piv in range(r, nrows):
            if m[piv][c]:
                break
        else:
            continue
        m[r], m[piv] = m[piv], m[r]
        row_r = m[r]
        d = row_r[c]
        for i in range(nrows):
            if i != r:
                f = m[i][c]
                m[i] = [(d * a - f * b) // prev for a, b in zip(m[i], row_r)]
        prev = d
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
    column, with a 1 in that column over GF(p), and over Q the common pivot
    ``d`` of :func:`rref_mod`, which keeps the vector integral.  Empty
    ``rows`` give the standard basis.
    """
    red, pivots = rref_mod(rows, p)
    pivot_set = set(pivots)
    d = red[0][pivots[0]] if p is None and pivots else 1
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = d
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc] if p is None else -red[i][fc] % p
        basis.append(v)
    return basis


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
