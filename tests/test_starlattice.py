"""Tests for the degree lattice: normal forms, invariants, section counts."""

import itertools
import re
from fractions import Fraction

import pytest

from loopcrystal.starlattice import LElement, WeightData


P1 = WeightData([1, 1, 1])
W222 = WeightData([2, 2, 2])
W237 = WeightData([2, 3, 7])
W2222 = WeightData([2, 2, 2, 2])


class TestConstruction:
    def test_padding_to_three_points(self):
        w = WeightData([5])
        assert w.weights == (5, 1, 1)
        assert w.n == 3

    def test_default_labels(self):
        assert W2222.labels == ("0", "inf", "1", "lam4")

    def test_custom_extra_labels(self):
        w = WeightData([2, 2, 2, 2], labels=["q"])
        assert w.labels == ("0", "inf", "1", "q")

    def test_full_labels_must_start_fixed(self):
        with pytest.raises(ValueError):
            WeightData([2, 2, 2], labels=["0", "1", "inf"])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            WeightData([2, 2, 2, 2, 2], labels=["q", "q"])

    @pytest.mark.parametrize(
        "weights, labels, message",
        [
            ((2, 2, 2, 2), ["0", "inf", "1", "2/2"], "marked points '1' and '2/2' coincide"),
            ((2, 2, 2, 2, 2), ["1/2", "0.5"], "marked points '1/2' and '0.5' coincide"),
            ((2, 2, 2, 2), ["-0"], "marked points '0' and '-0' coincide"),
        ],
        ids=["fraction-of-one", "decimal-half", "negative-zero"],
    )
    def test_coincident_labels_rejected(self, weights, labels, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            WeightData(weights, labels)

    def test_point_index_reads_values(self):
        w = WeightData([2, 2, 2, 2, 2], labels=["3/2", "q"])
        for name, index in [("0", 0), ("-0", 0), ("0.0", 0), ("inf", 1), ("1.00", 2),
                            ("2/2", 2), ("3/2", 3), ("1.5", 3), ("-6/-4", None),
                            ("q", 4), ("Q", None), ("1/3", None), ("1e0", None)]:
            assert w.point_index(name) == index, name
        # only a str names a point
        assert w.point_index(0) is None

    @pytest.mark.parametrize(
        "weights, regime",
        [((1, 1, 1), "finite"), ((2, 2, 2), "finite"), ((2, 2, 2, 2), "tubular"),
         ((3, 3, 3), "tubular"), ((2, 3, 7), "wild")],
    )
    def test_regime(self, weights, regime):
        assert WeightData(weights).regime == regime

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError, match="at least one weight"):
            WeightData([])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightData([2, 0, 2])

    def test_lcm(self):
        assert W237.p == 42
        assert W2222.p == 2
        assert P1.p == 1


class TestNormalForm:
    def test_generator_normalization(self):
        # x_1 - x_2 on (2,2,2): borrowing one c.
        a = W222.normalize([1, -1, 0])
        assert a == LElement(-1, (1, 1, 0))

    def test_weight_one_generator_is_c(self):
        assert P1.x(0) == P1.c()

    def test_carry(self):
        a = W237.normalize([2, 4, 9])
        # 2 = p_1 -> carry 1; 4 = 3 + 1 -> carry 1; 9 = 7 + 2 -> carry 1.
        assert a == LElement(3, (0, 1, 2))

    def test_add_sub_roundtrip(self):
        a = W237.normalize([1, 2, 3])
        b = W237.normalize([1, 1, 6])
        s = W237.add(a, b)
        assert W237.sub(s, b) == a

    def test_scale_matches_repeated_add(self):
        a = W2222.normalize([1, 0, 1, 1], l=-1)
        acc = W2222.zero()
        for _ in range(5):
            acc = W2222.add(acc, a)
        assert W2222.scale(5, a) == acc

    def test_omega_normal_form_has_l_minus_two(self):
        # (n-2)c - sum x_i always borrows n times: the c-part is exactly -2.
        for w in (P1, W222, W237, W2222, WeightData([3, 4, 5, 7, 2])):
            om = w.omega()
            assert om.l == -2
            assert om.residues == tuple(p - 1 for p in w.weights)

    def test_json_roundtrip(self):
        a = W237.normalize([1, 2, 3], l=-2)
        assert LElement.from_json(a.to_json()) == a


class TestInvariants:
    @pytest.mark.parametrize(
        "weights,expected",
        [
            ((1, 1, 1), Fraction(0)),
            ((2, 2, 2, 2), Fraction(1)),
            ((3, 3, 3), Fraction(1)),
            ((2, 3, 7), Fraction(3, 2)),
            ((2, 2, 2), Fraction(1, 2)),
        ],
    )
    def test_genus(self, weights, expected):
        assert WeightData(weights).genus() == expected

    def test_degree_of_c_and_generators(self):
        assert W237.degree_partial(W237.c()) == 42
        assert W237.degree_partial(W237.x(0)) == 21
        assert W237.degree_partial(W237.x(1)) == 14
        assert W237.degree_partial(W237.x(2)) == 6

    def test_degree_omega_is_euler_characteristic_slope(self):
        # degree(omega) = 2g - 2 for every weight sequence.
        for w in (P1, W222, W237, W2222, WeightData([3, 3, 3])):
            assert w.degree_partial(w.omega()) == 2 * w.genus() - 2

    def test_degree_additive(self):
        a = W2222.normalize([1, 1, 0, 1], l=2)
        b = W2222.normalize([0, 1, 1, 1], l=-3)
        assert W2222.degree_partial(W2222.add(a, b)) == W2222.degree_partial(
            a
        ) + W2222.degree_partial(b)


class TestSections:
    def test_effectivity_is_nonnegative_c_part(self):
        assert W222.is_effective(W222.zero())
        assert W222.is_effective(W222.x(0))
        assert not W222.is_effective(W222.normalize([1, -1, 0]))
        assert not W222.is_effective(W222.omega())

    def test_omega_has_no_sections(self):
        for w in (P1, W222, W237, W2222):
            assert w.dim_sections(w.omega()) == 0

    def test_dim_on_multiples_of_c(self):
        for k in range(5):
            assert W237.dim_sections(W237.scale(k, W237.c())) == k + 1

    def test_effectivity_matches_monomial_existence(self):
        # Independent reachability check: a is effective iff some monomial has
        # degree a.
        w = W237
        for l in range(-3, 4):
            for r1, r2, r3 in itertools.product(range(2), range(3), range(7)):
                a = LElement(l, (r1, r2, r3))
                assert w.is_effective(a) == (w.monomial_count_oracle(a) > 0)

    @pytest.mark.parametrize("w", [P1, W222, W237, W2222])
    def test_dim_sections_against_oracle_small(self, w):
        residue_ranges = [range(p) for p in w.weights]
        for l in range(-2, 3):
            for rs in itertools.product(*residue_ranges):
                a = LElement(l, tuple(rs))
                assert w.dim_sections(a) == w.monomial_count_oracle(a), a
