"""Lattice arithmetic, Euler form, twists, slopes, HN types."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from loopcrystal import components as comp, ktheory as kt
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


@pytest.fixture
def w2222():
    return WeightData((2, 2, 2, 2))


def random_element(curve, rng, span=4):
    coeffs = [rng.randint(-span, span) for _ in range(curve.n)]
    return curve.normalize(coeffs, l=rng.randint(-span, span))


#: weight sequences the Euler form is checked on: P^1, a finite, the four
#: tubular and a wild one
REFERENCE_CURVES = tuple(
    WeightData(ws)
    for ws in [(1, 1, 1), (2, 2, 2), (2, 2, 2, 2), (3, 3, 3), (2, 3, 6), (2, 4, 4), (2, 3, 7)]
)


def line_bundle_basis(curve):
    """The exponents ``0 <= x <= c``: 0, c, and ``l x_i`` for ``0 < l < p_i``."""
    out = [curve.zero(), curve.c()]
    for i, p in enumerate(curve.weights):
        for l in range(1, p):
            coeffs = [0] * curve.n
            coeffs[i] = l
            out.append(curve.normalize(coeffs))
    return out


def random_class(curve, rng, span=5):
    v = [rng.randint(-span, span) for _ in range(kt.lattice_rank(curve))]
    return kt.from_vector(curve, v)


class TestBasics:
    def test_lattice_rank(self, p1, w222, w237):
        assert kt.lattice_rank(p1) == 2
        assert kt.lattice_rank(w222) == 5
        assert kt.lattice_rank(w237) == 11

    def test_vector_roundtrip(self, w237):
        rng = random.Random(1)
        for _ in range(20):
            a = random_class(w237, rng)
            assert kt.from_vector(w237, kt.to_vector(a)) == a

    def test_json_roundtrip(self, w237):
        rng = random.Random(2)
        for _ in range(20):
            a = random_class(w237, rng)
            assert kt.KClass.from_json(a.to_json(), w237) == a

    def test_json_rejects_bad_index(self, w222):
        with pytest.raises(ValueError):
            kt.KClass.from_json({"r": 0, "d": 0, "m": {"1,5": 1}}, w222)

    def test_module_arithmetic(self, w222):
        rng = random.Random(3)
        for _ in range(20):
            a, b = random_class(w222, rng), random_class(w222, rng)
            assert kt.sub(kt.add(a, b), b) == a
            assert kt.scale(3, a) == kt.add(a, kt.add(a, a))

    def test_serial_full_period_is_delta(self, w237):
        for i, p in enumerate(w237.weights):
            if p == 1:
                continue
            for j in range(p):
                assert kt.class_of_serial(w237, i, j, p) == kt.delta_class(w237)

    def test_serial_class_is_sum_of_composition_factors(self, w237):
        for i, p in enumerate(w237.weights):
            for j in range(p):
                acc = kt.zero_class(w237)
                for length in range(1, 3 * p + 2):
                    acc = kt.add(acc, kt.class_of_simple(w237, i, j - length + 1))
                    assert kt.class_of_serial(w237, i, j, length) == acc

    def test_serial_class_at_weight_one_point_rejected(self):
        with pytest.raises(ValueError):
            kt.class_of_serial(WeightData((2, 1, 1)), 1, 0, 3)

    def test_serial_class_of_huge_length(self, w237):
        # whole periods are delta each, so this must not add 10**12 simples
        length = 10**12 + 1
        want = kt.add(
            kt.scale(10**12 // 7, kt.delta_class(w237)),
            kt.class_of_serial(w237, 2, 3, 10**12 % 7 + 1),
        )
        assert kt.class_of_serial(w237, 2, 3, length) == want

    def test_line_bundle_class(self, w237):
        x = w237.normalize([1, 2, 3], l=1)
        c = kt.class_of_line_bundle(w237, x)
        assert c.r == 1 and c.d == 1
        assert c.m[0] == (1,)
        assert c.m[1] == (1, 1)
        assert c.m[2] == (1, 1, 1, 0, 0, 0)


class TestClassOfCounts:
    @pytest.mark.parametrize("weights", [(2, 3, 7), (2, 2, 2, 2)])
    def test_matches_simples_from_coordinates(self, weights):
        # reference: [S_{i,0}] = delta - sum_j alpha_{i,j} and [S_{i,j}] =
        # alpha_{i,j}, written in coordinates and summed with multiplicities
        curve = WeightData(weights)
        rank = kt.lattice_rank(curve)

        def unit(pos):
            return kt.from_vector(curve, [int(k == pos) for k in range(rank)])

        delta = unit(1)
        start = 2
        for i, p in enumerate(weights):
            alphas = [unit(start + j) for j in range(p - 1)]
            start += p - 1
            head = delta
            for alpha in alphas:
                head = kt.sub(head, alpha)
            simples = [kt.to_vector(s) for s in (head, *alphas)]
            for counts in itertools.product(range(4), repeat=p):
                want = [
                    sum(c * v[k] for c, v in zip(counts, simples)) for k in range(rank)
                ]
                got = kt.class_of_counts(curve, i, counts)
                assert got == kt.from_vector(curve, want), (i, counts)

    def test_weight_one_point_refused(self):
        with pytest.raises(
            ValueError, match="^point has weight 1; its simple is the ordinary delta$"
        ):
            kt.class_of_counts(WeightData((2, 1, 1)), 1, (3,))


class TestEulerForm:
    def test_structure_and_point_pairings(self, p1, w222, w237, w2222):
        for curve in (p1, w222, w237, w2222):
            o = kt.structure_class(curve)
            dl = kt.delta_class(curve)
            assert kt.euler_form(curve, o, o) == 1
            assert kt.euler_form(curve, o, dl) == 1
            assert kt.euler_form(curve, dl, o) == -1
            assert kt.euler_form(curve, dl, dl) == 0

    def test_simple_pairings(self):
        # Hom/Ext of exceptional simples: End is one-dimensional, the only
        # extension is onto the next head down, and S_{i,1} maps out of O.
        for curve in REFERENCE_CURVES:
            o = kt.structure_class(curve)
            dl = kt.delta_class(curve)
            for i, p in enumerate(curve.weights):
                if p == 1:
                    continue
                for j in range(1, p):
                    a = kt.class_of_simple(curve, i, j)
                    assert kt.euler_form(curve, a, a) == 1
                    for k in range(1, p):
                        expected = 1 if k == j else (-1 if k == j - 1 else 0)
                        b = kt.class_of_simple(curve, i, k)
                        assert kt.euler_form(curve, a, b) == expected
                    assert kt.euler_form(curve, a, o) == (-1 if j == 1 else 0)
                    assert kt.euler_form(curve, o, a) == 0
                    assert kt.euler_form(curve, a, dl) == 0
                    assert kt.euler_form(curve, dl, a) == 0

    def test_cross_point_simples_orthogonal(self, w237):
        a = kt.class_of_simple(w237, 0, 1)
        b = kt.class_of_simple(w237, 1, 2)
        assert kt.euler_form(w237, a, b) == 0
        assert kt.euler_form(w237, b, a) == 0

    def test_line_bundle_pairing_matches_section_counts(self):
        # <[O(x)], [O(y)]> = dim S_{y-x} - dim S_{x+w-y}: on every pair of the
        # Z-basis {O(x) : 0 <= x <= c}, which fixes the whole bilinear form,
        # and on random pairs of exponents besides.
        rng = random.Random(7)
        for curve in REFERENCE_CURVES:
            omega = curve.omega()
            randoms = [
                (random_element(curve, rng, span=3), random_element(curve, rng, span=3))
                for _ in range(40)
            ]
            basis = line_bundle_basis(curve)
            assert len(basis) == kt.lattice_rank(curve)
            for x, y in [*itertools.product(basis, repeat=2), *randoms]:
                lhs = kt.euler_form(
                    curve,
                    kt.class_of_line_bundle(curve, x),
                    kt.class_of_line_bundle(curve, y),
                )
                rhs = curve.dim_sections(curve.sub(y, x)) - curve.dim_sections(
                    curve.sub(curve.add(x, omega), y)
                )
                assert lhs == rhs

    def test_bilinearity(self, w237):
        rng = random.Random(11)
        for _ in range(50):
            a, b, c = (random_class(w237, rng) for _ in range(3))
            assert kt.euler_form(w237, kt.add(a, b), c) == kt.euler_form(
                w237, a, c
            ) + kt.euler_form(w237, b, c)
            assert kt.euler_form(w237, a, kt.add(b, c)) == kt.euler_form(
                w237, a, b
            ) + kt.euler_form(w237, a, c)


class TestDegreeSlopePositivity:
    def test_degree_values(self, w237):
        assert kt.degree_d(w237, kt.delta_class(w237)) == 42
        assert kt.degree_d(w237, kt.class_of_simple(w237, 0, 1)) == 21
        assert kt.degree_d(w237, kt.class_of_simple(w237, 1, 1)) == 14
        assert kt.degree_d(w237, kt.class_of_simple(w237, 2, 1)) == 6
        # the zeroth simple has the complementary degree within delta
        assert kt.degree_d(w237, kt.class_of_simple(w237, 2, 0)) == 6

    def test_degree_matches_line_bundle_degree(self, w237):
        rng = random.Random(13)
        for _ in range(20):
            x = random_element(w237, rng)
            assert kt.degree_d(
                w237, kt.class_of_line_bundle(w237, x)
            ) == w237.degree_partial(x)

    def test_slope(self, w237):
        assert kt.slope(w237, kt.delta_class(w237)) == math.inf
        assert kt.slope(w237, kt.structure_class(w237)) == 0
        x = w237.normalize([1, 0, 0], l=0)
        assert kt.slope(w237, kt.class_of_line_bundle(w237, x)) == Fraction(21)
        two_o = kt.scale(2, kt.structure_class(w237))
        assert kt.slope(w237, kt.add(two_o, kt.delta_class(w237))) == Fraction(42, 2)

    def test_slope_zero_class_raises(self, w237):
        with pytest.raises(ValueError, match="zero class"):
            kt.slope(w237, kt.zero_class(w237))

    def test_positivity(self, w237):
        assert kt.is_positive(w237, kt.zero_class(w237))
        assert kt.is_positive(w237, kt.structure_class(w237))
        assert not kt.is_positive(w237, kt.scale(-1, kt.structure_class(w237)))
        assert kt.is_positive(w237, kt.delta_class(w237))
        assert kt.is_positive(w237, kt.class_of_simple(w237, 1, 0))
        assert not kt.is_positive(
            w237, kt.scale(-1, kt.class_of_simple(w237, 1, 1))
        )
        # d covers one missing head but not two
        s10 = kt.class_of_simple(w237, 1, 0)
        s20 = kt.class_of_simple(w237, 2, 0)
        both = kt.add(s10, s20)
        assert kt.is_positive(w237, both)
        assert not kt.is_positive(w237, kt.sub(both, kt.delta_class(w237)))

    def test_rank0_positive_iff_serial_sum(self, w222):
        # brute force: rank-0 positive classes of small degree are exactly the
        # sums of serial-sheaf classes
        realizable = set()
        serials = [
            kt.class_of_serial(w222, i, j, l)
            for i in range(3)
            for j in range(2)
            for l in (1, 2)
        ] + [kt.delta_class(w222)]
        def in_box(a):
            return a.d <= 2 and max(abs(v) for row in a.m for v in row) <= 3

        frontier = {kt.zero_class(w222)}
        for _ in range(9):
            frontier = {
                c for c in (kt.add(a, s) for a in frontier for s in serials)
                if in_box(c)
            }
            realizable |= frontier
        for v in itertools.product(range(-2, 4), repeat=4):
            a = kt.from_vector(w222, [0, v[0], v[1], v[2], v[3]])
            if a == kt.zero_class(w222):
                continue
            if 0 <= a.d <= 2 and max(map(abs, v[1:])) <= 2:
                assert kt.is_positive(w222, a) == (a in realizable), a


class TestTwists:
    def test_twist_structure_gives_line_bundle(self, w237):
        rng = random.Random(17)
        for _ in range(20):
            x = random_element(w237, rng)
            assert kt.twist_class(
                w237, kt.structure_class(w237), x
            ) == kt.class_of_line_bundle(w237, x)

    def test_twist_composes_on_line_bundles(self, w237, w222):
        rng = random.Random(19)
        for curve in (w237, w222):
            for _ in range(25):
                x = random_element(curve, rng, span=3)
                y = random_element(curve, rng, span=3)
                assert kt.twist_class(
                    curve, kt.class_of_line_bundle(curve, x), y
                ) == kt.class_of_line_bundle(curve, curve.add(x, y))

    def test_twist_by_generator_shifts_simples(self, w237):
        for i, p in enumerate(w237.weights):
            xi = w237.x(i)
            for j in range(p):
                assert kt.twist_class(
                    w237, kt.class_of_simple(w237, i, j), xi
                ) == kt.class_of_simple(w237, i, j + 1)

    def test_twist_fixes_other_points(self, w237):
        xi = w237.x(0)
        a = kt.class_of_simple(w237, 2, 4)
        assert kt.twist_class(w237, a, xi) == a

    def test_twist_by_canonical_shifts_heads_down(self, w237):
        om = w237.omega()
        for i, p in enumerate(w237.weights):
            for j in range(p):
                assert kt.twist_class(
                    w237, kt.class_of_simple(w237, i, j), om
                ) == kt.class_of_simple(w237, i, j - 1)

    def test_twist_by_c_adds_rank_to_delta(self, w237):
        rng = random.Random(23)
        for _ in range(10):
            a = random_class(w237, rng)
            tw = kt.twist_class(w237, a, w237.c())
            assert tw == kt.add(a, kt.scale(a.r, kt.delta_class(w237)))

    def test_twist_preserves_euler_form(self, w222):
        rng = random.Random(29)
        for _ in range(15):
            a, b = random_class(w222, rng), random_class(w222, rng)
            x = random_element(w222, rng, span=2)
            assert kt.euler_form(
                w222, kt.twist_class(w222, a, x), kt.twist_class(w222, b, x)
            ) == kt.euler_form(w222, a, b)


class TestHNTypes:
    def test_rank_zero_is_single_part(self, p1):
        dl = kt.delta_class(p1)
        assert kt.hn_types(p1, dl) == [(dl,)]

    def test_requires_window_for_positive_rank(self, p1):
        with pytest.raises(ValueError, match="unbounded"):
            kt.hn_types(p1, kt.structure_class(p1))

    def test_structure_sheaf_window(self, p1):
        o = kt.structure_class(p1)
        dl = kt.delta_class(p1)
        got = kt.hn_types(p1, o, slope_window=(-1, 1), max_parts=2)
        assert set(got) == {(o,), (dl, kt.sub(o, dl))}

    def test_structure_plus_point(self, p1):
        o = kt.structure_class(p1)
        dl = kt.delta_class(p1)
        a = kt.add(o, dl)
        got = kt.hn_types(p1, a, slope_window=(0, math.inf), max_parts=2)
        assert set(got) == {(a,), (dl, o)}

    def test_parts_sum_and_slopes_decrease(self, w222):
        a = kt.add(
            kt.scale(2, kt.structure_class(w222)), kt.delta_class(w222)
        )
        for parts in kt.hn_types(w222, a, slope_window=(-2, 3), max_parts=3):
            total = kt.zero_class(w222)
            slopes = []
            for part in parts:
                assert kt.is_positive(w222, part)
                total = kt.add(total, part)
                slopes.append(kt.slope(w222, part))
            assert total == a
            assert all(s0 > s1 for s0, s1 in zip(slopes, slopes[1:]))

    def test_invalid_inputs(self, p1):
        with pytest.raises(ValueError):
            kt.hn_types(p1, kt.zero_class(p1), slope_window=(0, 1))
        with pytest.raises(ValueError, match="finite lower bound"):
            kt.hn_types(
                p1, kt.structure_class(p1), slope_window=(-math.inf, 0)
            )

    @pytest.mark.parametrize("max_parts", [0, -1])
    def test_no_parts_refused(self, w2222, max_parts):
        # refused instead of answered with []; the rank-0 shortcut too
        for a in (kt.scale(2, kt.structure_class(w2222)), kt.delta_class(w2222)):
            with pytest.raises(ValueError, match="max_parts must be at least 1"):
                kt.hn_types(w2222, a, slope_window=(-1, 1), max_parts=max_parts)

    @pytest.mark.parametrize("window", [(1, 0), (Fraction(1, 2), Fraction(1, 3))])
    def test_empty_window_refused(self, w2222, window):
        with pytest.raises(ValueError, match="empty slope window"):
            kt.hn_types(w2222, kt.structure_class(w2222), slope_window=window)


class TestHNTypesPin:
    """The lists themselves, not only their properties: ``hn_types`` and
    ``enumerate_components_tubular`` on the four tubular weight sequences,
    for seven classes, four slope windows and three part limits."""

    #: sha256 of :meth:`pin_lines`, taken before ``hn_types`` built its
    #: candidates through ``from_vector`` and ``degree_d``
    PIN_SHA256 = "d98efee669cae9f9f7cfe7dc81b44629e4990ef7047147ec9472438586201ee6"

    @staticmethod
    def pin_lines() -> list[str]:
        windows = [(-1, 1), (-1, 2), (0, math.inf), (Fraction(-1, 2), Fraction(3, 2))]
        lines = []
        for ws in [(2, 2, 2, 2), (3, 3, 3), (2, 4, 4), (2, 3, 6)]:
            curve = WeightData(ws)
            o, dl = kt.structure_class(curve), kt.delta_class(curve)
            alpha = kt.class_of_simple(curve, 0, 1)
            two_o_dl = kt.add(kt.scale(2, o), dl)
            classes = [o, kt.add(o, dl), kt.scale(2, o), two_o_dl,
                       kt.add(o, alpha), kt.sub(two_o_dl, alpha)]
            for a, window, max_parts in itertools.product(classes, windows, (1, 2, 4)):
                types = kt.hn_types(curve, a, window, max_parts)
                lines.append(
                    f"{ws} {kt.to_vector(a)} {window} {max_parts}: "
                    f"{[[kt.to_vector(c) for c in parts] for parts in types]}"
                )
                lines.extend(
                    comp.format_label(curve, z)
                    for z in comp.enumerate_components_tubular(curve, a, window, max_parts)
                )
        return lines

    def test_pinned_lists(self):
        lines = self.pin_lines()
        assert len(lines) == 3381
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.PIN_SHA256
