"""Field-generic linear algebra: GF(p) for a prime ``p`` and Q for ``p=None``.

Results are compared entry for entry with references computed here: a
unit-pivot Gauss-Jordan elimination that inverts pivots by Fermat over
GF(p), and one in ``Fraction``s over Q (whose results ``rref_mod`` returns
as integers, by fraction-free elimination).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcrystal._linalg import (
    DEFAULT_PRIME,
    identity,
    mat_mul_mod,
    mat_vec_mod,
    nullspace_mod,
    rank_mod,
    rref_mod,
)

PRIMES = (2, 3, 5, DEFAULT_PRIME)
FIELDS = (*PRIMES, None)


def entries(p):
    """Integers with small residues mod p (so pivots vanish and ranks drop),
    negative and >= p ones included."""
    if p is None:
        return st.integers(-5, 5)
    near_multiple = st.builds(
        lambda k, r: k * p + r, st.integers(-2, 2), st.integers(-3, 3)
    )
    return near_multiple | st.integers(-3 * p, 3 * p)


#: rationals with small numerators and denominators, integers included
RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def matrices(p, ncols, min_rows=0, max_rows=6, elements=None):
    row = st.lists(entries(p) if elements is None else elements, min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=min_rows, max_size=max_rows)


@st.composite
def shaped_matrices(draw, p, elements=None):
    ncols = draw(st.integers(0, 6))
    return draw(matrices(p, ncols, elements=elements)), ncols


def rref_reference(rows, p=None):
    """Reduced row echelon form with unit pivots, as ``(reduced_rows,
    pivot_columns)``: over Q in ``Fraction``s, over GF(p) in residues, with
    each pivot inverted by Fermat's little theorem."""
    if p is None:
        m = [[Fraction(x) for x in row] for row in rows]
        inverse, reduce = (lambda x: 1 / x), (lambda x: x)
    else:
        m = [[x % p for x in row] for row in rows]
        inverse, reduce = (lambda x: pow(x, p - 2, p)), (lambda x: x % p)
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = inverse(m[r][c])
        m[r] = [reduce(x * inv) for x in m[r]]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [reduce(a - f * b) for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


class TestRref:
    @pytest.mark.parametrize("p", FIELDS)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_echelon_form(self, p, data):
        rows, _ = data.draw(shaped_matrices(p))
        red, pivots = rref_mod(rows, p)
        assert pivots == sorted(set(pivots))
        # every pivot is 1 over GF(p), one common nonzero integer d over Q
        d = red[0][pivots[0]] if p is None and pivots else 1
        assert d != 0
        for i, pc in enumerate(pivots):
            assert [row[pc] for row in red] == [d * (k == i) for k in range(len(red))]
        assert all(x == 0 for row in red[len(pivots):] for x in row)
        if p is not None:
            assert all(0 <= x < p for row in red for x in row)
        else:
            assert all(type(x) is int for row in red for x in row)
            ref, ref_pivots = rref_reference(rows)
            assert pivots == ref_pivots
            assert red == [[d * x for x in row] for row in ref]

    @pytest.mark.parametrize("p", PRIMES)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_fermat_reference(self, p, data):
        rows, _ = data.draw(shaped_matrices(p))
        assert rref_mod(rows, p) == rref_reference(rows, p)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_rational_input(self, data):
        rows, _ = data.draw(shaped_matrices(None, RATIONALS))
        red, pivots = rref_mod(rows, None)
        ref, ref_pivots = rref_reference(rows)
        assert pivots == ref_pivots
        d = red[0][pivots[0]] if pivots else 1
        assert all(type(x) is int for row in red for x in row)
        assert red == [[d * x for x in row] for row in ref]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_rank_over_q_matches_reference(self, data):
        rows, _ = data.draw(shaped_matrices(None, RATIONALS | entries(None)))
        assert rank_mod(rows, None) == len(rref_reference(rows)[1])

    def test_empty_inputs(self):
        for p in FIELDS:
            assert rref_mod([], p) == ([], [])
            assert rref_mod([[], []], p) == ([[], []], [])
            assert rank_mod([], p) == 0


class TestNullspace:
    @pytest.mark.parametrize("p", FIELDS)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_kernel_basis(self, p, data):
        rows, ncols = data.draw(shaped_matrices(p))
        basis = nullspace_mod(rows, ncols, p)
        assert rank_mod(rows, p) + len(basis) == ncols
        for v in basis:
            assert len(v) == ncols
            assert mat_vec_mod(rows, v, p) == [0] * len(rows)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_integral_kernel_basis_over_q(self, data):
        rows, ncols = data.draw(shaped_matrices(None, RATIONALS))
        basis = nullspace_mod(rows, ncols, None)
        assert all(type(x) is int for v in basis for x in v)
        assert all(mat_vec_mod(rows, v, None) == [0] * len(rows) for v in basis)
        # independent, and as many as the kernel's dimension: a spanning set
        assert rank_mod(basis, None) == len(basis) == ncols - rank_mod(rows, None)

    @pytest.mark.parametrize("p", FIELDS)
    def test_no_rows_gives_standard_basis(self, p):
        for n in range(5):
            assert nullspace_mod([], n, p) == identity(n)


class TestProducts:
    def test_reduce_only_with_a_prime(self):
        big = 1 << 70
        assert mat_mul_mod([[big]], [[big]], None) == [[big * big]]
        assert mat_mul_mod([[big]], [[big]], 7) == [[big * big % 7]]
        assert mat_vec_mod([[big, -1]], [big, 1], None) == [big * big - 1]
        assert mat_vec_mod([[big, -1]], [big, 1], 7) == [(big * big - 1) % 7]

    def test_empty_factors(self):
        assert mat_mul_mod([], [[1, 2]]) == []
        assert mat_mul_mod([[], []], []) == [[], []]
