"""Sheaf labels: classes, Hom/Ext dimensions, rigidity, twisting."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcrystal import _linalg, catalog as cat, ktheory as kt
from loopcrystal.starlattice import WeightData


@pytest.fixture
def p1():
    return WeightData((1, 1, 1))


@pytest.fixture
def w222():
    return WeightData((2, 2, 2))


@pytest.fixture
def w237():
    return WeightData((2, 3, 7))


def serial_hom_bruteforce(p, j, l, j2, l2):
    """Intertwiner-space dimension between two serial cyclic-quiver modules.

    Module with head j and length l has basis b_0..b_{l-1}, b_k sitting at
    vertex (j - k) mod p, with the arrow action b_k -> b_{k+1}.  The space of
    graded maps commuting with the action is solved exactly.
    """
    va = [(j - k) % p for k in range(l)]
    vb = [(j2 - k) % p for k in range(l2)]
    # unknowns phi[s][t]: coefficient of b'_t in phi(b_s), nonzero only when
    # vertices match
    unknowns = [
        (s, t) for s in range(l) for t in range(l2) if va[s] == vb[t]
    ]
    idx = {u: k for k, u in enumerate(unknowns)}
    rows = []
    # commuting condition: phi(A b_s) = A' phi(b_s) for every s
    for s in range(l):
        for t in range(l2):
            # coefficient of b'_t in phi(b_{s+1}) - A' phi(b_s)
            row = [0] * len(unknowns)
            nonzero = False
            if s + 1 < l and (s + 1, t) in idx:
                row[idx[(s + 1, t)]] += 1
                nonzero = True
            if t >= 1 and (s, t - 1) in idx:
                row[idx[(s, t - 1)]] -= 1
                nonzero = True
            if nonzero:
                rows.append(row)
    return len(_linalg.nullspace_mod(rows, len(unknowns), None))


def spellings(value: Fraction, k: int, sign: str) -> list[str]:
    """Spellings of ``value`` in the exact-point grammar, each led by
    ``sign`` (which agrees with the sign of ``value``): ``kp/kq``; the
    integer when ``q = 1`` (``-0`` for zero with ``-``); and when ``q`` has
    no prime factor but 2 and 5, the exact decimal with ``k - 1`` trailing
    zeros."""
    p, q = abs(value.numerator), value.denominator
    names = [f"{sign}{k * p}/{k * q}"]
    if q == 1:
        names.append(f"{sign}{p}")
    places = next((e for e in range(1, 8) if 10 ** e % q == 0), None)
    if places is not None:
        digits = str(p * 10 ** places // q).rjust(places + 1, "0")
        names.append(f"{sign}{digits[:-places]}.{digits[-places:]}" + "0" * (k - 1))
    return names


class TestClasses:
    def test_simple_class(self, w237):
        lab = cat.ExcTorsion(0, 1, 1)
        assert cat.class_of(w237, lab) == kt.class_of_simple(w237, 0, 1)

    def test_full_period_is_delta(self, w237):
        for i, p in enumerate(w237.weights):
            lab = cat.ExcTorsion(i, 0, p)
            assert cat.class_of(w237, lab) == kt.delta_class(w237)

    def test_ordinary_class(self, w237):
        lab = cat.OrdTorsion("q", 3)
        assert cat.class_of(w237, lab) == kt.scale(3, kt.delta_class(w237))

    def test_line_bundle_class(self, w237):
        x = w237.normalize([1, 1, 0], l=2)
        assert cat.class_of(w237, cat.LineBundle(x)) == kt.class_of_line_bundle(
            w237, x
        )

    def test_validate_errors(self, w237, w222, p1):
        with pytest.raises(ValueError):
            cat.validate(p1, cat.ExcTorsion(0, 0, 1))  # weight-1 point
        with pytest.raises(ValueError):
            cat.exc_torsion(w237, 0, 0, 0)  # zero length
        with pytest.raises(ValueError):
            cat.validate(w237, cat.RealBundle(kt.structure_class(w237)))  # g >= 1
        with pytest.raises(ValueError, match="real root"):
            cat.validate(
                w222, cat.RealBundle(kt.scale(2, kt.structure_class(w222)))
            )

    @pytest.mark.parametrize(
        "weights, label, error, message",
        [
            ((2, 3, 7), cat.ExcTorsion(0, 0, 0), ValueError, "length must be positive"),
            ((2, 3, 7), cat.OrdTorsion("q", 0), ValueError, "length must be positive"),
            ((2, 2, 2), cat.RealBundle(kt.zero_class(WeightData((2, 2, 2)))),
             ValueError, "positive rank"),
            ((2, 2, 2), cat.RealBundle(kt.scale(-1, kt.structure_class(WeightData((2, 2, 2))))),
             ValueError, "positive rank"),
            ((2, 2, 2), cat.RealBundle(kt.structure_class(WeightData((2, 2, 2)))),
             ValueError, r"rank 1 is a line bundle: write it O\(\.\.\.\)"),
            ((2, 3, 7), "O", TypeError, "not an indecomposable label"),
            ((2, 3, 7), kt.structure_class(WeightData((2, 3, 7))), TypeError,
             "not an indecomposable label"),
        ],
        ids=["exc-length", "ord-length", "real-rank-0", "real-rank-negative", "real-rank-1",
             "text", "class"],
    )
    def test_validate_refusals(self, weights, label, error, message):
        with pytest.raises(error, match=message):
            cat.validate(WeightData(weights), label)

    def test_ordinary_torsion_at_weighted_point_refused(self, w237, p1):
        w211 = WeightData((2, 1, 1))
        for curve, pt in [(w237, "0"), (w237, "inf"), (w237, "1"), (w211, "0")]:
            with pytest.raises(ValueError, match=r"S\[i,j\]\(l\)"):
                cat.validate(curve, cat.OrdTorsion(pt, 1))
        # weight-1 points and unmarked names stay ordinary points
        for curve, pt in [(p1, "0"), (w211, "inf"), (w211, "1"), (w237, "q")]:
            cat.validate(curve, cat.OrdTorsion(pt, 1))

    def test_json_roundtrip(self, w237):
        labels = [
            cat.LineBundle(w237.normalize([1, 2, 3], l=-1)),
            cat.ExcTorsion(2, 4, 9),
            cat.OrdTorsion("q0", 2),
        ]
        for lab in labels:
            assert cat.label_from_json(cat.label_to_json(lab), w237) == lab

    def test_real_bundle_json_roundtrip(self, w222):
        lab = cat.enumerate_real_bundles(w222, 2)[0]
        assert cat.label_from_json(cat.label_to_json(lab), w222) == lab


class TestHomDims:
    def test_line_bundle_pairs(self, w237):
        o = cat.LineBundle(w237.zero())
        ox1 = cat.LineBundle(w237.x(0))
        assert cat.hom_dim(w237, o, ox1) == 1
        assert cat.hom_dim(w237, ox1, o) == 0
        oc = cat.LineBundle(w237.c())
        assert cat.hom_dim(w237, o, oc) == 2

    def test_simple_pairs(self, w237):
        s11 = cat.ExcTorsion(0, 1, 1)
        assert cat.hom_dim(w237, s11, s11) == 1
        s01 = cat.ExcTorsion(0, 0, 1)
        assert cat.hom_dim(w237, s01, s11) == 0
        assert cat.hom_dim(w237, s11, s01) == 0

    def test_serial_formula_against_bruteforce(self):
        for p in (2, 3, 4, 5):
            curve = WeightData((p, 1, 1))
            for j, j2 in itertools.product(range(p), repeat=2):
                for l, l2 in itertools.product(range(1, 7), repeat=2):
                    a = cat.ExcTorsion(0, j, l)
                    b = cat.ExcTorsion(0, j2, l2)
                    assert cat.hom_dim(curve, a, b) == serial_hom_bruteforce(
                        p, j, l, j2, l2
                    ), (p, j, l, j2, l2)

    def test_line_to_torsion(self, w237):
        o = cat.LineBundle(w237.zero())
        # length-7 serial at the weight-7 point covers each residue once
        assert cat.hom_dim(w237, o, cat.ExcTorsion(2, 3, 7)) == 1
        # length 14 covers each twice
        assert cat.hom_dim(w237, o, cat.ExcTorsion(2, 3, 14)) == 2
        # short serial not containing S_0 receives nothing from O
        assert cat.hom_dim(w237, o, cat.ExcTorsion(2, 2, 2)) == 0
        # ... and containing it once
        assert cat.hom_dim(w237, o, cat.ExcTorsion(2, 1, 2)) == 1
        assert cat.hom_dim(w237, o, cat.OrdTorsion("q", 5)) == 5

    def test_torsion_to_line_is_zero(self, w237):
        o = cat.LineBundle(w237.zero())
        assert cat.hom_dim(w237, cat.ExcTorsion(1, 0, 2), o) == 0
        assert cat.hom_dim(w237, cat.OrdTorsion("q", 1), o) == 0

    def test_cross_point_torsion(self, w237):
        a = cat.ExcTorsion(0, 0, 1)
        b = cat.ExcTorsion(1, 0, 1)
        assert cat.hom_dim(w237, a, b) == 0
        assert cat.ext_dim(w237, a, b) == 0
        q1, q2 = cat.OrdTorsion("q1", 2), cat.OrdTorsion("q2", 2)
        assert cat.hom_dim(w237, q1, q2) == 0
        assert cat.hom_dim(w237, q1, q1) == 2

    def test_ordinary_same_point(self, w237):
        a, b = cat.OrdTorsion("q", 2), cat.OrdTorsion("q", 5)
        assert cat.hom_dim(w237, a, b) == 2
        assert cat.hom_dim(w237, b, a) == 2
        assert cat.ext_dim(w237, a, b) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12), st.integers(1, 12), st.integers(1, 4), st.sampled_from(["", "+", "-"]))
    def test_every_spelling_names_one_point(self, num, den, k, sign):
        # a point is its value: each spelling of sign*num/den gets the answer
        # of every other from validate and hom_dim
        value = Fraction(num, den) * (-1 if sign == "-" else 1)
        names = spellings(value, k, sign)
        curves = [WeightData((2, 2, 2, 2), ["0", "inf", "1", "1/2"]), WeightData((2, 1, 1))]
        for curve in curves:
            marked = {Fraction(0): 0, Fraction(1): 2, Fraction(1, 2): 3}.get(value)
            weighted = marked is not None and marked < curve.n and curve.weights[marked] > 1
            for name in names:
                if weighted:
                    with pytest.raises(ValueError, match=r"S\[i,j\]\(l\)"):
                        cat.validate(curve, cat.OrdTorsion(name, 1))
                else:
                    cat.validate(curve, cat.OrdTorsion(name, 1))
                for other in names:
                    assert cat.hom_dim(
                        curve, cat.OrdTorsion(name, 2), cat.OrdTorsion(other, 3)
                    ) == 2, (name, other)
                elsewhere = cat.OrdTorsion(str(value + 1), 1)
                assert cat.hom_dim(curve, cat.OrdTorsion(name, 1), elsewhere) == 0

    def test_hom_diagonal_at_least_one(self, w237):
        battery = [
            cat.LineBundle(w237.normalize([1, 0, 4], l=-2)),
            cat.ExcTorsion(2, 5, 3),
            cat.ExcTorsion(0, 1, 6),
            cat.OrdTorsion("q", 4),
        ]
        for lab in battery:
            assert cat.hom_dim(w237, lab, lab) >= 1

    def test_real_bundle_pairs(self, w222):
        rb, other = cat.enumerate_real_bundles(w222, 2)[:2]
        assert cat.hom_dim(w222, rb, rb) == 1
        assert cat.ext_dim(w222, rb, rb) == 0
        with pytest.raises(ValueError, match="unsupported pair"):
            cat.hom_dim(w222, rb, other)
        with pytest.raises(ValueError, match="unsupported pair"):
            cat.hom_dim(w222, rb, cat.OrdTorsion("q", 1))
        with pytest.raises(ValueError, match="unsupported pair"):
            cat.ext_dim(w222, cat.LineBundle(w222.zero()), rb)


class TestEulerConsistency:
    def label_battery(self, curve, rng, count=60):
        labs = []
        for _ in range(count):
            kind = rng.randrange(3)
            if kind == 0:
                coeffs = [rng.randint(-2, 2) for _ in range(curve.n)]
                labs.append(
                    cat.LineBundle(curve.normalize(coeffs, l=rng.randint(-2, 2)))
                )
            elif kind == 1:
                weighted = [i for i, p in enumerate(curve.weights) if p > 1]
                if not weighted:
                    continue
                i = rng.choice(weighted)
                labs.append(
                    cat.ExcTorsion(
                        i,
                        rng.randrange(curve.weights[i]),
                        rng.randint(1, 2 * curve.weights[i]),
                    )
                )
            else:
                labs.append(cat.OrdTorsion(rng.choice("qr"), rng.randint(1, 4)))
        return labs

    def test_euler_equals_hom_minus_ext(self, w237, w222, p1):
        rng = random.Random(101)
        for curve in (w237, w222, p1):
            labs = self.label_battery(curve, rng)
            for a, b in itertools.product(labs[:25], repeat=2):
                lhs = kt.euler_form(
                    curve, cat.class_of(curve, a), cat.class_of(curve, b)
                )
                rhs = cat.hom_dim(curve, a, b) - cat.ext_dim(curve, a, b)
                assert lhs == rhs, (a, b)


class TestRigidity:
    def test_line_bundles_rigid(self, w237, w222):
        for curve in (w237, w222):
            for l in (-2, 0, 3):
                lab = cat.LineBundle(curve.normalize([1, 0, 1], l=l))
                assert cat.is_rigid(curve, lab)

    def test_exc_torsion_rigid_iff_short(self, w237):
        for i, p in enumerate(w237.weights):
            for j in range(p):
                for l in range(1, 2 * p + 1):
                    lab = cat.ExcTorsion(i, j, l)
                    assert cat.is_rigid(w237, lab) == (l < p), (i, j, l)

    def test_ordinary_never_rigid(self, w237):
        for d in range(1, 5):
            assert not cat.is_rigid(w237, cat.OrdTorsion("q", d))

    def test_real_bundles_rigid(self, w222):
        for rb in cat.enumerate_real_bundles(w222, 2):
            assert cat.is_rigid(w222, rb)


class TestTwisting:
    def test_twist_matches_class_twist(self, w237):
        rng = random.Random(7)
        labs = [
            cat.LineBundle(w237.normalize([0, 1, 2], l=1)),
            cat.ExcTorsion(1, 2, 4),
            cat.OrdTorsion("q", 2),
        ]
        for lab in labs:
            for _ in range(10):
                x = w237.normalize(
                    [rng.randint(-2, 2) for _ in range(3)], l=rng.randint(-2, 2)
                )
                assert cat.class_of(
                    w237, cat.twist(w237, lab, x)
                ) == kt.twist_class(w237, cat.class_of(w237, lab), x)

    def test_omega_twist_rotates_heads_down(self, w237):
        om = w237.omega()
        lab = cat.ExcTorsion(1, 0, 2)
        assert cat.twist(w237, lab, om) == cat.ExcTorsion(1, 2, 2)

    def test_twist_equivariance_of_hom(self, w237):
        rng = random.Random(13)
        pairs = [
            (
                cat.LineBundle(w237.normalize([1, 0, 3], l=0)),
                cat.LineBundle(w237.normalize([0, 2, 1], l=1)),
            ),
            (cat.ExcTorsion(2, 1, 3), cat.ExcTorsion(2, 5, 2)),
            (
                cat.LineBundle(w237.normalize([0, 0, 0], l=0)),
                cat.ExcTorsion(0, 1, 2),
            ),
        ]
        for a, b in pairs:
            for _ in range(8):
                x = w237.normalize(
                    [rng.randint(-3, 3) for _ in range(3)], l=rng.randint(-2, 2)
                )
                assert cat.hom_dim(
                    w237, cat.twist(w237, a, x), cat.twist(w237, b, x)
                ) == cat.hom_dim(w237, a, b)


class TestRealBundleEnumeration:
    def test_box_search_on_222(self, w222):
        # rank-2 roots exist at three weighted points; a rank-1 root is a
        # line bundle and is not listed
        roots = cat.enumerate_real_bundles(w222, coord_bound=2)
        assert len(roots) == 5
        for rb in roots:
            cat.validate(w222, rb)
            assert rb.a.r == 2
            assert kt.euler_form(w222, rb.a, rb.a) == 1

    def test_rejected_for_genus_at_least_one(self, w237):
        with pytest.raises(ValueError):
            cat.enumerate_real_bundles(w237, coord_bound=1)
