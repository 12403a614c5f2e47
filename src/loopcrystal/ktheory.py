"""Numerical Grothendieck lattice of a weighted projective line.

Classes are written in the standard basis

    [O],  delta,  alpha_{i,j}  (weighted points i, 1 <= j <= p_i - 1),

where ``delta`` is the class of an ordinary point sheaf and ``alpha_{i,j}``
the class of the exceptional simple ``S_{i,j}``.  The class of the zeroth
simple is dependent: ``[S_{i,0}] = delta - sum_j alpha_{i,j}``.  So a torsion
sheaf at point ``i`` with ``c_j`` composition factors ``S_{i,j}`` has class

    c_0 * delta + sum_{j >= 1} (c_j - c_0) * alpha_{i,j},

which :func:`class_of_counts` writes down for simples, serial sheaves and
multisegments alike.

The Euler form ``<a, b> = dim Hom - dim Ext^1`` is bilinear, and on this
basis it has the closed form of Geigle-Lenzing (1987):

    <[O], [O]> = <[O], delta> = 1,          <delta, [O]> = -1,
    <alpha_{i,j}, alpha_{i,j}> = 1,         <alpha_{i,j}, alpha_{i,j-1}> = -1,
    <alpha_{i,1}, [O]> = -1,

and 0 on every other pair of basis vectors: delta pairs to 0 with itself
and with every alpha, and simples at different points are orthogonal.  On
line bundles it agrees with the section counts

    <[O(x)], [O(y)]> = dim S_{y-x} - dim S_{x + omega - y},

which ``tests/test_ktheory.py`` checks on the Z-basis
``{[O(x)] : 0 <= x <= c}`` of K_0.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from functools import partial

from .starlattice import LElement, Record, WeightData, json_fields, json_ints

INFINITE_SLOPE = math.inf


class KClass(Record):
    """A class ``r*[O] + d*delta + sum m[i][j-1]*alpha_{i,j}``.

    ``m`` has one tuple per marked point; weight-1 points carry empty tuples.
    """

    __slots__ = ("r", "d", "m")
    r: int
    d: int
    m: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        entries = {}
        for i, row in enumerate(self.m):
            for j, v in enumerate(row, start=1):
                if v:
                    entries[f"{i + 1},{j}"] = v
        return {"r": self.r, "d": self.d, "m": entries}

    @staticmethod
    def from_json(data: dict, curve: WeightData) -> "KClass":
        (entries,) = json_fields(
            {"m": {}, **data} if type(data) is dict else data, "class", m=dict
        )
        r, d, *_ = json_ints(
            [data.get("r"), data.get("d"), *entries.values()], "class entries"
        )
        m = [[0] * (p - 1) for p in curve.weights]
        for key, v in entries.items():
            try:
                i_s, j_s = key.split(",")
                i, j = int(i_s) - 1, int(j_s)
            except ValueError:
                raise ValueError(f"invalid simple index {key}") from None
            if not (0 <= i < curve.n) or not (1 <= j <= curve.weights[i] - 1):
                raise ValueError(f"invalid simple index {key}")
            m[i][j - 1] = v
        return KClass(r, d, tuple(tuple(row) for row in m))


def zero_class(curve: WeightData) -> KClass:
    return KClass(0, 0, tuple((0,) * (p - 1) for p in curve.weights))


def structure_class(curve: WeightData) -> KClass:
    return KClass(1, 0, tuple((0,) * (p - 1) for p in curve.weights))


def delta_class(curve: WeightData) -> KClass:
    return KClass(0, 1, tuple((0,) * (p - 1) for p in curve.weights))


def lattice_rank(curve: WeightData) -> int:
    return 2 + sum(p - 1 for p in curve.weights)


def add(a: KClass, b: KClass) -> KClass:
    return KClass(
        a.r + b.r,
        a.d + b.d,
        tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.m, b.m)),
    )


def sub(a: KClass, b: KClass) -> KClass:
    return add(a, scale(-1, b))


def scale(k: int, a: KClass) -> KClass:
    return KClass(k * a.r, k * a.d, tuple(tuple(k * x for x in row) for row in a.m))


def to_vector(a: KClass) -> list[int]:
    v = [a.r, a.d]
    for row in a.m:
        v.extend(row)
    return v


def from_vector(curve: WeightData, v: Sequence[int]) -> KClass:
    if len(v) != lattice_rank(curve):
        raise ValueError("coordinate vector has the wrong length")
    m = []
    pos = 2
    for p in curve.weights:
        m.append(tuple(v[pos : pos + p - 1]))
        pos += p - 1
    return KClass(int(v[0]), int(v[1]), tuple(m))


# ---------------------------------------------------------------------------
# classes of standard sheaves
# ---------------------------------------------------------------------------

def segment_coverage(p: int, j: int, l: int) -> tuple[int, ...]:
    """How many composition factors of [j; l) sit at each vertex of Z/p."""
    cov = [l // p] * p
    for k in range(l % p):
        cov[(j - k) % p] += 1
    return tuple(cov)


def class_of_counts(curve: WeightData, i: int, counts: Sequence[int]) -> KClass:
    """Class of a torsion sheaf at point ``i`` with ``counts[j]`` composition
    factors ``S_{i,j}``, by the rule of the module docstring."""
    if curve.weights[i] == 1:
        raise ValueError("point has weight 1; its simple is the ordinary delta")
    head = counts[0]
    rows = tuple(
        tuple(c - head for c in counts[1:]) if k == i else (0,) * (p - 1)
        for k, p in enumerate(curve.weights)
    )
    return KClass(0, head, rows)


def class_of_simple(curve: WeightData, i: int, j: int) -> KClass:
    """Class of the exceptional simple ``S_{i,j}`` (j taken mod p_i)."""
    return class_of_serial(curve, i, j, 1)


def class_of_serial(curve: WeightData, i: int, j: int, length: int) -> KClass:
    """Class of the serial torsion sheaf with head ``S_{i,j}`` and given length."""
    if length < 1:
        raise ValueError("length must be positive")
    return class_of_counts(curve, i, segment_coverage(curve.weights[i], j, length))


def class_of_line_bundle(curve: WeightData, x: LElement) -> KClass:
    """Class of ``O(x)``: rank 1, degree ``l``, and a 1 in each slot ``j <= l_i``."""
    m = []
    for i, p in enumerate(curve.weights):
        row = [0] * (p - 1)
        for j in range(1, x.residues[i] + 1):
            row[j - 1] = 1
        m.append(tuple(row))
    return KClass(1, x.l, tuple(m))


def class_of_ordinary_torsion(curve: WeightData, length: int) -> KClass:
    return scale(length, delta_class(curve))


# ---------------------------------------------------------------------------
# Euler form
# ---------------------------------------------------------------------------

def euler_form(curve: WeightData, a: KClass, b: KClass) -> int:
    """The Euler pairing ``<a, b> = sum hom - sum ext`` on classes, in the
    closed form of the module docstring."""
    val = a.r * (b.r + b.d) - a.d * b.r
    for ra, rb in zip(a.m, b.m):
        # alpha_{i,j} pairs 1 with itself and -1 with the basis vector before
        # it: alpha_{i,j-1}, or [O] for j = 1
        val += sum(x * (y - z) for x, y, z in zip(ra, rb, (b.r, *rb)))
    return val


# ---------------------------------------------------------------------------
# positivity, degree, slope
# ---------------------------------------------------------------------------

def is_positive(curve: WeightData, a: KClass) -> bool:
    """Whether ``a`` is the class of a sheaf (including the zero sheaf).

    Rank >= 1 classes are always positive (line bundles realize every degree
    and twist pattern); rank-0 classes need each point's serial content to be
    completable: with ``t_i = max(0, max_j(-m_{i,j}))`` the condition is
    ``d >= sum_i t_i``.  Negative rank is never positive.
    """
    if a.r < 0:
        return False
    if a.r > 0:
        return True
    t_total = 0
    for row in a.m:
        t_total += max(0, max((-v for v in row), default=0))
    return a.d >= t_total


def degree_d(curve: WeightData, a: KClass) -> int:
    """Linearized degree: p on delta, p/p_i on alpha_{i,j}, 0 on [O]."""
    val = a.d * curve.p
    for i, row in enumerate(a.m):
        val += sum(row) * (curve.p // curve.weights[i])
    return val


def slope(curve: WeightData, a: KClass):
    """Slope ``degree_d / r``; infinite for nonzero rank-0 classes."""
    if a == zero_class(curve):
        raise ValueError("zero class has no slope")
    if a.r == 0:
        return INFINITE_SLOPE
    from fractions import Fraction
    return Fraction(degree_d(curve, a), a.r)


# ---------------------------------------------------------------------------
# twists
# ---------------------------------------------------------------------------

def twist_class(curve: WeightData, a: KClass, x: LElement) -> KClass:
    """Class of ``F(x)`` for ``[F] = a``.

    Twisting by ``x_i`` shifts the heads of the point-``i`` simples up by one
    (``alpha_{i,j} -> alpha_{i,j+1}``, wrapping through the dependent
    ``[S_{i,0}] = delta - sum alpha``), and each rank unit contributes the
    class of ``O(x_i)``; twisting by ``c`` adds ``r`` to the delta slot.
    """
    r, d = a.r, a.d
    m = [list(row) for row in a.m]
    for i, p in enumerate(curve.weights):
        for _ in range(x.residues[i] % p if p > 1 else 0):
            wrap = m[i][p - 2] if p > 1 else 0
            new_row = [0] * (p - 1)
            new_row[0] = r - wrap
            for j in range(1, p - 1):
                new_row[j] = m[i][j - 1] - wrap
            m[i] = new_row
            d += wrap
    d += r * x.l
    return KClass(r, d, tuple(tuple(row) for row in m))


# ---------------------------------------------------------------------------
# Harder-Narasimhan types (tubular weight sequences)
# ---------------------------------------------------------------------------

def check_hn_options(slope_window: tuple | None, max_parts: int) -> None:
    """Refuse the :func:`hn_types` options that admit no sequence, whatever
    the class: ``max_parts < 1``, a window without a finite lower bound, and
    an empty window.  ``None`` leaves the slopes unbounded."""
    if max_parts < 1:
        raise ValueError(f"max_parts must be at least 1, got {max_parts}")
    if slope_window is not None:
        lo, hi = slope_window
        if lo == -math.inf:
            raise ValueError("slope window needs a finite lower bound")
        if lo > hi:
            raise ValueError(f"empty slope window: {lo} > {hi}")


def hn_types(
    curve: WeightData,
    a: KClass,
    slope_window: tuple | None = None,
    max_parts: int = 4,
) -> list[tuple[KClass, ...]]:
    """Sequences of positive classes with strictly decreasing slopes summing to ``a``.

    A single optional leading rank-0 part (slope infinity) is always admitted;
    all further parts have rank >= 1 and slope inside ``slope_window =
    (lo, hi)``.  The lower bound must be finite (it also bounds the leading
    torsion part through degree conservation); ``hi`` may be ``math.inf``.
    The per-point torsion coordinates of rank >= 1 parts are constrained
    componentwise between ``min(0, m_a)`` and ``max(0, m_a)``.  Rank > 0 input
    without a window raises, since the unconstrained family is infinite, and
    so do ``max_parts < 1`` and an empty window, which admit no sequence.
    """
    if not is_positive(curve, a) or a == zero_class(curve):
        raise ValueError("input must be a nonzero positive class")
    check_hn_options(slope_window, max_parts)
    if a.r == 0:
        return [(a,)]
    if slope_window is None:
        raise ValueError(
            "unbounded: rank > 0 classes admit infinitely many splittings; "
            "pass slope_window=(lo, hi) with finite lo"
        )
    lo, hi = slope_window
    from fractions import Fraction
    lo = Fraction(lo)
    hi = hi if hi == math.inf else Fraction(hi)
    p = curve.p
    # each torsion coordinate vector with the degree it adds to a part
    combos = [
        (combo, degree_d(curve, from_vector(curve, [0, 0, *combo])))
        for combo in itertools.product(
            *[range(min(0, v), max(0, v) + 1) for row in a.m for v in row]
        )
    ]
    results: set[tuple[KClass, ...]] = set()

    def rank_part_candidates(rem: KClass, prev_slope) -> Iterator[KClass]:
        for r in range(1, rem.r + 1):
            for combo, frac in combos:
                # slope bounds -> degree-coordinate bounds for this part; the
                # remainder's parts all have slope >= lo, which caps d above.
                deg_cap = degree_d(curve, rem) - lo * (rem.r - r)
                hi_deg = deg_cap if hi == math.inf else min(hi * r, deg_cap)
                if prev_slope != math.inf:
                    hi_deg = min(hi_deg, prev_slope * r)
                d_lo = math.ceil(Fraction(lo * r - frac, p))
                d_hi = math.floor(Fraction(hi_deg - frac, p))
                for d in range(d_lo, d_hi + 1):
                    cand = from_vector(curve, [r, d, *combo])
                    sl = slope(curve, cand)
                    if lo <= sl and (hi == math.inf or sl <= hi) and sl < prev_slope:
                        yield cand

    extend = partial(_extend_hn, curve, rank_part_candidates, max_parts)
    extend(a, math.inf, (), results)
    # optional leading rank-0 part, bounded by degree conservation
    deg_budget = degree_d(curve, a) - lo * a.r
    for combo, frac in combos:
        for d in range(0, math.floor(Fraction(deg_budget - frac, p)) + 1):
            t = from_vector(curve, [0, d, *combo])
            if t == zero_class(curve) or not is_positive(curve, t):
                continue
            extend(sub(a, t), INFINITE_SLOPE, (t,), results)

    return sorted(results, key=lambda seq: (len(seq), [to_vector(c) for c in seq]))


def _extend_hn(curve, candidates, max_parts, rem, prev_slope, acc, results) -> None:
    """Add to ``results`` the :func:`hn_types` sequences that complete ``acc``
    by parts from ``candidates(rem, prev_slope)`` summing to ``rem``."""
    if rem == zero_class(curve):
        results.add(acc)
        return
    if len(acc) >= max_parts or rem.r <= 0:
        return
    for cand in candidates(rem, prev_slope):
        rest = sub(rem, cand)
        if rest != zero_class(curve) and rest.r == 0:
            continue
        _extend_hn(
            curve, candidates, max_parts, rest, slope(curve, cand), acc + (cand,),
            results,
        )
