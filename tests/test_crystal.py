"""Crystal operators: closed rules, oracle cross-checks, graphs, connectivity.

Expected values fall in three groups: direct consequences of the definitions
(empty labels, epsilon-zero behavior), worked examples on the projective line
whose kernels and quotients were derived by hand from the splitting degrees,
and batteries where the combinatorial rules are replayed against the sampling
oracle on the same inputs.
"""

import functools
import hashlib
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cyclic_garbage, perfbench_workloads
from counting_oracle import kostant_partition_count
from loopcrystal import _linalg
from loopcrystal import catalog as cat
from loopcrystal import components as comp
from loopcrystal import crystal as cr
from loopcrystal import ktheory as kt
from loopcrystal import oracle as orc
from loopcrystal.starlattice import WeightData


P1 = WeightData((1, 1, 1))
W2 = WeightData((2, 1, 1))
W3 = WeightData((3, 1, 1))
W222 = WeightData((2, 2, 2))
TUB = WeightData((2, 2, 2, 2))


def lb(curve, k):
    return cat.LineBundle(curve.normalize([0] * curve.n, l=k))


def O(k):
    return lb(P1, k)


def gl(degs, nu=()):
    """Grid label on the projective line: sum of O(d) plus a partition."""
    return comp.component_label(P1, [O(d) for d in degs], nu, ())


def ms(curve, *segs):
    return comp.multisegment(curve, 0, segs)


def tl(curve, *segs):
    """Pure torsion label carried by the multisegment at point 0."""
    return comp.component_label(curve, (), (), [ms(curve, *segs)])


def S(curve, j, l=1):
    return cat.exc_torsion(curve, 0, j, l)


E = comp.EMPTY


# ---------------------------------------------------------------------------
# dispatch and refusal
# ---------------------------------------------------------------------------

class TestDispatch:
    def test_non_rigid_color_refused(self):
        with pytest.raises(ValueError, match="non-rigid operator index"):
            cr.epsilon(W2, E, cat.OrdTorsion(0, 1))

    def test_overlong_serial_color_refused(self):
        with pytest.raises(ValueError, match="non-rigid operator index"):
            cr.epsilon(W2, E, cat.ExcTorsion(0, 0, 2))

    def test_real_bundle_color_refused(self):
        color = cat.enumerate_real_bundles(W222, 2)[0]
        assert cat.is_rigid(W222, color)
        with pytest.raises(ValueError, match="unsupported component family"):
            cr.epsilon(W222, E, color)

    def test_line_color_on_torsion_point_label_refused(self):
        with pytest.raises(ValueError, match="unsupported component family"):
            cr.epsilon(W2, tl(W2, (0, 1)), lb(W2, 0))

    def test_fractional_line_color_refused(self):
        color = cat.LineBundle(W2.x(0))
        assert cat.is_rigid(W2, color)
        with pytest.raises(ValueError, match="unsupported component family"):
            cr.epsilon(W2, E, color)

    def test_hn_tree_label_refused(self):
        tub = WeightData((2, 2, 2, 2))
        z = comp.ComponentLabel(
            comp.HNTree((comp.HNLeaf(kt.structure_class(tub)),)), (), ()
        )
        with pytest.raises(ValueError, match="unsupported component family"):
            cr.epsilon(tub, z, lb(tub, 0))

    #: every public operator, called as ``op(curve, z, color)``
    OPERATORS = {
        "epsilon": cr.epsilon,
        "phi": cr.phi,
        "hom_into_kernel": cr.hom_into_kernel,
        "f_max": cr.f_max,
        "e_s0": lambda curve, z, color: cr.e_s(curve, z, color, 0),
        "e_s1": lambda curve, z, color: cr.e_s(curve, z, color, 1),
        "f": cr.f,
        "e": cr.e,
    }

    #: each refused ``(curve, label, colour)`` with the text of its refusal
    REFUSALS = {
        "non-rigid": lambda: (W2, E, cat.OrdTorsion(0, 1), "non-rigid operator index"),
        "overlong-serial": lambda: (W2, E, cat.ExcTorsion(0, 0, 2), "non-rigid operator index"),
        "real-bundle": lambda: (
            W222, E, cat.enumerate_real_bundles(W222, 2)[0], "unsupported component family"
        ),
        "line-on-torsion": lambda: (
            W2, tl(W2, (0, 1)), lb(W2, 0), "unsupported component family"
        ),
        "fractional-line": lambda: (
            W2, E, cat.LineBundle(W2.x(0)), "unsupported component family"
        ),
        "hn-tree": lambda: (
            TUB,
            comp.ComponentLabel(comp.HNTree((comp.HNLeaf(kt.structure_class(TUB)),)), (), ()),
            lb(TUB, 0),
            "unsupported component family",
        ),
        "residue-summand": lambda: (
            W2,
            comp.component_label(W2, [cat.LineBundle(W2.x(0))], (), ()),
            lb(W2, 0),
            "unsupported component family",
        ),
    }

    @pytest.mark.parametrize("case", REFUSALS)
    @pytest.mark.parametrize("op", OPERATORS)
    def test_every_operator_refuses(self, op, case):
        curve, z, color, message = self.REFUSALS[case]()
        with pytest.raises(ValueError, match=message):
            self.OPERATORS[op](curve, z, color)

    def test_exceptional_color_ignores_bundle_part(self):
        z = comp.component_label(W2, [lb(W2, 0)], (1,), [ms(W2, (0, 2))])
        assert cr.epsilon(W2, z, S(W2, 1)) == 1
        out = cr.f_max(W2, z, S(W2, 1))
        assert out.bundle == z.bundle
        assert out.ordinary == z.ordinary
        assert out.exceptional == (ms(W2, (0, 1)),)


# ---------------------------------------------------------------------------
# grid engine: epsilon / phi
# ---------------------------------------------------------------------------

class TestGridEpsilon:
    def test_empty_label(self):
        for k in (-2, 0, 3):
            assert cr.epsilon(P1, E, O(k)) == 0

    def test_structure_stack(self):
        for n in range(1, 6):
            assert cr.epsilon(P1, gl([0] * n), O(0)) == n
            assert cr.epsilon(P1, gl([0] * n), O(1)) == 0
            assert cr.epsilon(P1, gl([0] * n), O(-1)) == n

    def test_mixed_stack(self):
        for l in range(0, 4):
            for n in range(0, 4):
                if l + n == 0:
                    continue
                z = gl([1] * l + [0] * n)
                assert cr.epsilon(P1, z, O(-1)) == n + l

    def test_spread_chain_sees_only_top(self):
        z = gl([4, 2, 0])
        assert cr.epsilon(P1, z, O(4)) == 1
        assert cr.epsilon(P1, z, O(2)) == 1
        assert cr.epsilon(P1, z, O(5)) == 0

    def test_ordinary_part_lowers_kernel(self):
        assert cr.epsilon(P1, gl([0], (2,)), O(-1)) == 1
        assert cr.epsilon(P1, gl([0], (1, 1)), O(-1)) == 0
        assert cr.epsilon(P1, gl([2, 2], (1, 1)), O(1)) == 2

    def test_rank_zero_label(self):
        assert cr.epsilon(P1, gl([], (2, 1)), O(0)) == 0

    def test_phi_on_structure_stack(self):
        for n in range(1, 5):
            assert cr.phi(P1, gl([0] * n), O(0)) == 2 * n

    def test_hom_into_kernel_dominates_epsilon(self):
        for z in [gl([0, 0]), gl([2, 0]), gl([1], (1,)), gl([3, 1, 1])]:
            for k in (-1, 0, 1):
                assert cr.hom_into_kernel(P1, z, O(k)) >= cr.epsilon(P1, z, O(k))


# ---------------------------------------------------------------------------
# grid engine: f_max and single steps (worked examples)
# ---------------------------------------------------------------------------

class TestGridQuotients:
    def test_fmax_at_epsilon_zero_is_identity(self):
        z = gl([0], (1, 1))
        assert cr.epsilon(P1, z, O(-1)) == 0
        assert cr.f_max(P1, z, O(-1)) == z

    def test_structure_stack_collapses(self):
        for n in range(1, 6):
            assert cr.f_max(P1, gl([0] * n), O(0)) == E

    def test_point_scatter(self):
        for n in range(1, 6):
            assert cr.f_max(P1, gl([0] * n), O(-1)) == gl([], (1,) * n)

    def test_mixed_stack_scatter(self):
        for l in range(0, 4):
            for n in range(0, 4):
                if l + n == 0:
                    continue
                z = gl([1] * l + [0] * n)
                assert cr.f_max(P1, z, O(-1)) == gl([], (1,) * (n + 2 * l))

    def test_single_step_on_mixed_stacks(self):
        for l in range(0, 4):
            for n in range(2, 4):
                z = gl([1] * l + [0] * n)
                want = gl([1] * (l + 1) + [0] * (n - 2))
                assert cr.f(P1, z, O(-1)) == want
        for l in range(1, 4):
            z = gl([1] * l + [0])
            want = gl([2] + [1] * (l - 1))
            assert cr.f(P1, z, O(-1)) == want
        assert cr.f(P1, gl([0]), O(-1)) == gl([], (1,))

    def test_stack_row_moves(self):
        for n in range(2, 5):
            assert cr.f(P1, gl([0] * n), O(0)) == gl([0] * (n - 1))
            assert cr.e(P1, gl([0] * n), O(0)) == gl([0] * (n + 1))
        assert cr.f(P1, gl([1, 1]), O(0)) == gl([2])
        assert cr.f(P1, gl([2]), O(0)) == gl([], (1, 1))

    def test_up_left_diagonal_moves(self):
        assert cr.e(P1, E, O(1)) == gl([1])
        assert cr.e(P1, gl([0]), O(1)) == gl([1, 0])
        assert cr.e(P1, gl([1]), O(1)) == gl([1, 1])
        assert cr.e(P1, gl([], (1,)), O(1)) == gl([2])
        assert cr.e(P1, gl([2]), O(1)) == gl([2, 1])
        assert cr.e(P1, gl([], (1, 1)), O(1)) == gl([3])

    def test_interlacing_branch(self):
        # two participants of degrees (2, 0) consumed by O(1): one summand of
        # degree 1 survives in between
        z = gl([2, 0], (1,))
        assert cr.f(P1, z, O(1)) == gl([0], (2,))


class TestLadderFan:
    """Branches out of the even ladder O(4) + O(2) + O."""

    def test_top_consumption(self):
        assert cr.f(P1, gl([4, 2, 0]), O(4)) == gl([2, 0])
        assert cr.f(P1, gl([2, 0]), O(2)) == gl([0])
        assert cr.f(P1, gl([0]), O(0)) == E

    def test_below_top_raises_points(self):
        assert cr.f(P1, gl([4, 2, 0]), O(3)) == gl([2, 0], (1,))
        assert cr.f(P1, gl([2, 0], (1,)), O(1)) == gl([0], (2,))
        assert cr.f(P1, gl([2, 0], (1,)), O(0)) == gl([0], (2, 1))

    def test_final_descents(self):
        assert cr.f(P1, gl([0]), O(-1)) == gl([], (1,))
        assert cr.f(P1, gl([0]), O(-2)) == gl([], (1, 1))
        assert cr.f(P1, gl([0], (2,)), O(-1)) == gl([], (3,))
        assert cr.f(P1, gl([0], (2, 1)), O(-2)) == gl([], (3, 2))

    def test_edges_invert(self):
        edges = [
            (gl([4, 2, 0]), O(4), gl([2, 0])),
            (gl([4, 2, 0]), O(3), gl([2, 0], (1,))),
            (gl([2, 0], (1,)), O(1), gl([0], (2,))),
            (gl([0], (2,)), O(-1), gl([], (3,))),
            (gl([0], (2, 1)), O(-2), gl([], (3, 2))),
        ]
        for src, color, tgt in edges:
            assert cr.e(P1, tgt, color) == src


# ---------------------------------------------------------------------------
# grid engine: e_s inversion
# ---------------------------------------------------------------------------

class TestGridRaising:
    def test_e_zero_is_identity(self):
        z = gl([1, 0])
        assert cr.e_s(P1, z, O(0), 0) == z

    def test_restack_from_points(self):
        assert cr.e_s(P1, gl([], (1, 1)), O(-1), 2) == gl([0, 0])
        assert cr.e_s(P1, gl([], (1,) * 4), O(-1), 2) == gl([1, 1])

    def test_e_then_f_round_trip(self):
        labels = [E, gl([0]), gl([1, 0]), gl([2]), gl([], (2,)), gl([0], (1,))]
        for z in labels:
            for k in (-1, 0, 1):
                up = cr.e(P1, z, O(k))
                assert cr.f(P1, up, O(k)) == z, (
                    comp.format_label(P1, z), k,
                )

    def test_f_then_e_round_trip(self):
        labels = [gl([0, 0]), gl([1, 1]), gl([2, 0]), gl([0], (2,))]
        for z in labels:
            for k in (-1, 0, 1):
                if cr.epsilon(P1, z, O(k)) == 0:
                    continue
                down = cr.f(P1, z, O(k))
                assert cr.e(P1, down, O(k)) == z

    def test_wide_spread_raising(self):
        # single calls that once sampled hundreds of kernels (seconds each)
        got = cr.e(P1, gl([4, 4, 4, 1, -3]), O(-3))
        assert comp.format_label(P1, got) == (
            "(O(-3c) + O(c) + O(2c) + O(2c) + O(2c) + O(3c))"
        )
        got = cr.e(P1, gl([4, 4, 3, 3, -1], (1,)), O(-3))
        assert comp.format_label(P1, got) == (
            "(O(-1c) + O(2c) + O(2c) + O(2c) + O(2c) + O(3c), nu=(1,))"
        )

    def test_negative_copy_count_refused(self):
        with pytest.raises(ValueError, match="negative copy count"):
            cr.e_s(P1, gl([0]), O(0), -1)

    def test_no_preimage_reported(self):
        # full quotients always land at epsilon zero, so a target that still
        # carries a copy of the color has no preimage under f_max
        targets = [
            (gl(degs, (1,) * points), O(a))
            for n in range(1, 4)
            for degs in itertools.combinations_with_replacement(range(-1, 3), n)
            for points in range(3)
            for a in (-1, 0, 1)
        ]
        targets = [(z, color) for z, color in targets if cr.epsilon(P1, z, color) > 0]
        assert len(targets) == 234
        targets.append((tl(W2, (0, 2)), S(W2, 1)))
        assert cr.epsilon(W2, *targets[-1]) == 1
        for (z, color), s in itertools.product(targets, (1, 2)):
            curve = W2 if z.exceptional else P1
            with pytest.raises(ValueError, match="no preimage found"):
                cr.e_s(curve, z, color, s)


p1_labels = st.builds(
    gl,
    st.lists(st.integers(-3, 4), min_size=1, max_size=5),
    st.integers(0, 3).map(lambda k: (1,) * k),
)


class TestGridAnswerOrRefuse:
    # single e queries can take seconds (up to 49 s for O(4)^2+O(3)^2+O(-1)
    # with nu=(1,) and colour O(-3)), so the example count stays small
    @settings(max_examples=25, deadline=None)
    @given(p1_labels, st.integers(-3, 3), st.sampled_from(["epsilon", "f", "e", "f_max"]))
    def test_weight_drop_or_value_error(self, z, a, op):
        color = O(a)
        try:
            s = cr.epsilon(P1, z, color)
            value = getattr(cr, op)(P1, z, color)
        except ValueError:
            return
        if op == "epsilon":
            assert value == s >= 0
            return
        if op == "f" and s == 0:
            assert value is None
            return
        cls = cat.class_of(P1, color)
        drop = kt.sub(comp.weight(P1, z), comp.weight(P1, value))
        want = {"f": cls, "e": kt.scale(-1, cls), "f_max": kt.scale(s, cls)}[op]
        assert drop == want, (op, comp.format_label(P1, z), a)


#: sha256 of the newline-joined answers to perfbench's ``p1_queries(2000)``:
#: each answer's repr, or ``"<class>: <message>"`` for a raise.
P1_QUERIES_SHA256 = "0662f779f245ccd84a6cf8696e859d45bffec97915af6a342f79fc6e8acb6e60"

#: the raises among those answers, by operator and text
P1_QUERIES_RAISES = {
    ("e", "ValueError: no preimage found"): 16,
    ("e", "ValueError: unsupported component family"): 15,
    ("e", "ValueError: ambiguous preimage"): 9,
    ("f", "ValueError: unsupported component family"): 11,
    ("f", "ValueError: ambiguous preimage"): 5,
    ("f_max", "ValueError: unsupported component family"): 3,
}


class TestP1QueriesPin:
    def test_answers_and_raises(self):
        bench = perfbench_workloads()
        cr.clear_memos()
        answers, raises = [], Counter()
        for op, z, color in bench.p1_queries(2000):
            try:
                answer = repr(getattr(cr, op)(bench.P1, z, color))
            except ValueError as err:
                answer = f"{type(err).__name__}: {err}"
                raises[op, answer] += 1
            answers.append(answer)
        assert raises == P1_QUERIES_RAISES
        digest = hashlib.sha256("\n".join(answers).encode()).hexdigest()
        assert digest == P1_QUERIES_SHA256

    def test_one_kernel_pass_per_quotient_step(self, monkeypatch):
        # f, e and f_max read epsilon off the quotient rule's first step, and
        # each quotient step's epsilon off the next step: the grid rules used
        # to run _decremented once for epsilon and twice per step (20,275)
        calls = Counter()
        decremented = cr._decremented

        def counted(*args):
            calls["decremented"] += 1
            return decremented(*args)

        monkeypatch.setattr(cr, "_decremented", counted)
        bench = perfbench_workloads()
        cr.clear_memos()
        for op, z, color in bench.p1_queries(2000):
            try:
                getattr(cr, op)(bench.P1, z, color)
            except ValueError:
                pass
        assert calls["decremented"] <= 16_592, calls


def outcome(op, *args):
    """The operator's answer, or ``"<class>: <message>"`` for a raise."""
    try:
        return op(*args)
    except Exception as err:
        return f"{type(err).__name__}: {err}"


def composed(curve, z, color, k):
    """``f`` (``k = -1``) and ``e`` (``k = 1``) by their definition
    ``e_s(f_max(z), epsilon + k)``, with ``None`` when ``epsilon + k < 0``."""
    s = cr.epsilon(curve, z, color)
    if s + k < 0:
        return None
    return cr.e_s(curve, cr.f_max(curve, z, color), color, s + k)


@st.composite
def torsion_cases(draw, rigid=False):
    """A label with an aperiodic multisegment at the point of weight p = 2-4,
    and a colour of length 1-3 there (length >= p is refused as non-rigid),
    or of length 1 to p - 1 when ``rigid``."""
    p = draw(st.integers(2, 4))
    curve = WeightData((p, 1, 1))
    dims = draw(st.lists(st.integers(0, 2), min_size=p, max_size=p))
    m = draw(st.sampled_from(comp.aperiodic_multisegments(curve, 0, dims) or (ms(curve),)))
    bundle = [lb(curve, 0)] if draw(st.booleans()) else []
    z = comp.component_label(curve, bundle, (), [m] if m.pairs else [])
    length = draw(st.integers(1, p - 1 if rigid else 3))
    return curve, z, cat.ExcTorsion(0, draw(st.integers(0, p - 1)), length)


class TestStepsFollowTheirDefinition:
    """``f`` and ``e`` answer and refuse as ``e_s(f_max(z), epsilon -/+ 1)``."""

    @settings(max_examples=60, deadline=None)
    @given(torsion_cases(), st.sampled_from([(cr.f, -1), (cr.e, 1)]))
    def test_torsion_labels(self, case, step):
        curve, z, color = case
        op, k = step
        assert outcome(op, curve, z, color) == outcome(composed, curve, z, color, k)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-2, 3), min_size=1, max_size=4),
        st.integers(0, 3),
        st.integers(-2, 2),
        st.sampled_from([(cr.f, -1), (cr.e, 1)]),
    )
    def test_grid_labels(self, degs, points, a, step):
        z, op, k = gl(degs, (1,) * points), *step
        assert outcome(op, P1, z, O(a)) == outcome(composed, P1, z, O(a), k)

    def test_p1_queries(self):
        # every f and e query of the pinned workload, its 56 raises included
        bench = perfbench_workloads()
        raises = Counter()
        for op, z, color in bench.p1_queries(2000):
            if op in ("f", "e"):
                want = outcome(composed, bench.P1, z, color, -1 if op == "f" else 1)
                assert outcome(getattr(cr, op), bench.P1, z, color) == want
                if isinstance(want, str):
                    raises[op, want] += 1
        assert raises == {key: n for key, n in P1_QUERIES_RAISES.items() if key[0] != "f_max"}


def f_chain(curve, z, color):
    """``f`` applied epsilon times, or ``None`` when one of them refuses."""
    for _ in range(cr.epsilon(curve, z, color)):
        try:
            z = cr.f(curve, z, color)
        except ValueError:
            return None
    return z


class TestFmaxIsRepeatedF:
    """``f_max(z) = f^epsilon(z)`` wherever every ``f`` of the chain answers:
    each ``f`` takes one copy off, and ``f_max`` takes them all."""

    @settings(max_examples=60, deadline=None)
    @given(torsion_cases(rigid=True))
    def test_torsion_labels(self, case):
        curve, z, color = case
        chain = f_chain(curve, z, color)
        if chain is not None:
            assert cr.f_max(curve, z, color) == chain

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-2, 3), min_size=1, max_size=4),
        st.integers(0, 3),
        st.integers(-2, 2),
    )
    def test_grid_labels(self, degs, points, a):
        z = gl(degs, (1,) * points)
        chain = f_chain(P1, z, O(a))
        if chain is not None:
            assert cr.f_max(P1, z, O(a)) == chain

    def test_p1_queries(self):
        # every distinct (label, colour) pair of the pinned workload (1,953,
        # 22 and 25 of its 2,000 queries fall in the three groups below)
        bench = perfbench_workloads()
        outcomes = Counter()
        for z, color in dict.fromkeys((z, color) for _, z, color in bench.p1_queries(2000)):
            chain = f_chain(bench.P1, z, color)
            fmax = outcome(cr.f_max, bench.P1, z, color)
            if chain is not None:
                assert fmax == chain
            outcomes[chain is not None, isinstance(fmax, str)] += 1
        # keyed (the chain answers, f_max refuses): where an f of the chain
        # refuses, f_max answers 17 pairs and refuses 21
        assert outcomes == {(True, False): 1195, (False, False): 17, (False, True): 21}


# ---------------------------------------------------------------------------
# multisegment engine
# ---------------------------------------------------------------------------

class TestMultisegmentEpsilon:
    def test_socle_vertex_counts(self):
        assert cr.epsilon(W2, tl(W2, (0, 2)), S(W2, 1)) == 1
        assert cr.epsilon(W2, tl(W2, (0, 2)), S(W2, 0)) == 0
        assert cr.epsilon(W2, tl(W2, (0, 2), (0, 2)), S(W2, 1)) == 2

    def test_protection(self):
        # the length-2 segment with socle at 1 shields the simple at 0
        assert cr.epsilon(W2, tl(W2, (0, 2), (0, 1)), S(W2, 0)) == 0
        assert cr.epsilon(W3, tl(W3, (0, 1), (1, 1)), S(W3, 0)) == 0
        # but a shorter potential protector cannot reach a longer removable
        assert cr.epsilon(W2, tl(W2, (0, 1), (1, 2)), S(W2, 0)) == 2

    def test_long_serial_color(self):
        assert cr.epsilon(W3, tl(W3, (0, 2)), S(W3, 0, 2)) == 1
        assert cr.epsilon(W3, tl(W3, (0, 2)), S(W3, 1, 2)) == 0

    def test_empty_label(self):
        assert cr.epsilon(W3, E, S(W3, 0)) == 0
        assert cr.epsilon(W3, E, S(W3, 2, 2)) == 0


class TestMultisegmentQuotients:
    def test_strip_socle(self):
        assert cr.f_max(W2, tl(W2, (0, 2)), S(W2, 1)) == tl(W2, (0, 1))
        assert cr.f_max(W3, tl(W3, (0, 2), (1, 1)), S(W3, 2)) == tl(
            W3, (0, 1), (1, 1)
        )

    def test_simples_drop_out(self):
        assert cr.f_max(W2, tl(W2, (0, 1), (0, 1)), S(W2, 0)) == E
        assert cr.f_max(W2, tl(W2, (0, 1), (1, 2)), S(W2, 0)) == tl(W2, (1, 1))

    def test_single_step_keeps_other_copies(self):
        z = tl(W2, (0, 2), (0, 2))
        assert cr.f(W2, z, S(W2, 1)) == tl(W2, (0, 2), (0, 1))

    def test_long_color_quotient(self):
        assert cr.f_max(W3, tl(W3, (0, 2)), S(W3, 0, 2)) == E

    def test_epsilon_zero_vanishes(self):
        assert cr.f(W2, tl(W2, (0, 2)), S(W2, 0)) is None

    def test_shared_image_is_ambiguous(self, monkeypatch):
        # (1,3)+(2,1) and (2,4) both have epsilon 1 under the sampled colour
        # S(0, 2); give both one image
        target = ms(W3, (2, 2))
        cr.clear_memos()
        monkeypatch.setattr(cr, "_exc_fmax", lambda curve, m, color, s: target)
        try:
            with pytest.raises(ValueError, match="ambiguous preimage"):
                cr.e_s(W3, tl(W3, (2, 2)), S(W3, 0, 2), 1)
        finally:
            cr._ms_inverse.cache_clear()

    def test_length_one_colours_sample_nothing(self):
        # the signature rule answers every length-1 operator without the
        # inversion table or the oracle
        cr.clear_memos()
        for z in [E, tl(W3, (0, 2), (1, 1)), tl(W3, (0, 3), (2, 1), (2, 1))]:
            for j in range(3):
                c = S(W3, j)
                cr.epsilon(W3, z, c)
                cr.f_max(W3, z, c)
                cr.f(W3, z, c)
                cr.e(W3, z, c)
                cr.e_s(W3, cr.f_max(W3, z, c), c, 2)
        for memo in (cr._ms_inverse, cr._exc_fmax, cr._ms_kernel_type):
            assert memo.cache_info().currsize == 0

    def test_raising_at_epsilon_zero_stores_no_quotient(self):
        # f_max is the identity at epsilon 0, so e leaves it out; the first
        # call builds the inversion table, whose candidates do fill the memo
        z, c = tl(W3, (0, 2)), S(W3, 1, 2)
        cr.clear_memos()
        assert cr.epsilon(W3, z, c) == 0
        up = cr.e(W3, z, c)
        cr._exc_fmax.cache_clear()
        assert cr.e(W3, z, c) == up
        assert cr._exc_fmax.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "curve, z, color",
        [(W2, tl(W2, (0, 2)), S(W2, 0)), (W3, tl(W3, (0, 2)), S(W3, 1, 2))],
        ids=["bracketing", "sampled"],
    )
    def test_fmax_at_epsilon_zero_returns_the_label(self, curve, z, color):
        # f_max decides this for every family, so no rule runs and the
        # sampled family stores no quotient
        cr.clear_memos()
        assert cr.epsilon(curve, z, color) == 0
        assert cr.f_max(curve, z, color) is z
        assert cr._exc_fmax.cache_info().currsize == 0

    def test_sampled_target_with_a_copy_has_no_preimage(self):
        z, c = tl(W3, (0, 2)), S(W3, 0, 2)
        assert cr.epsilon(W3, z, c) == 1
        for s in (1, 2):
            with pytest.raises(ValueError, match="no preimage found"):
                cr.e_s(W3, z, c, s)

    def test_raising_from_empty(self):
        assert cr.e(W2, E, S(W2, 0)) == tl(W2, (0, 1))
        two = cr.e(W2, tl(W2, (0, 1)), S(W2, 0))
        assert two == tl(W2, (0, 1), (0, 1))

    def test_raising_glues_onto_socle(self):
        # adding a simple at vertex 1 below [0;1) extends the segment at its
        # socle to [0;2); the disjoint pair { [0;1), [1;1) } is periodic,
        # hence not a component label at all
        up = cr.e(W2, tl(W2, (0, 1)), S(W2, 1))
        assert up == tl(W2, (0, 2))

    def test_round_trips(self):
        labels = [
            tl(W3, (0, 2)),
            tl(W3, (0, 2), (1, 1)),
            tl(W3, (0, 3)),
            tl(W3, (0, 1), (2, 2)),
        ]
        for z in labels:
            for j in range(3):
                up = cr.e(W3, z, S(W3, j))
                assert cr.f(W3, up, S(W3, j)) == z, (z, j)


class TestMultisegmentOracleAgreement:
    """Replay the bracketing rule against the sampler on a full battery."""

    def battery(self, curve, max_total):
        out = []
        for total in range(1, max_total + 1):
            p = curve.weights[0]
            for dims in itertools.product(range(total + 1), repeat=p):
                if sum(dims) != total:
                    continue
                out.extend(comp.aperiodic_multisegments(curve, 0, dims))
        return out

    @pytest.mark.parametrize("curve", [W2, W3], ids=["p2", "p3"])
    def test_epsilon_matches_sampler(self, curve):
        for m in self.battery(curve, 4):
            z = comp.component_label(curve, (), (), [m])
            for v in range(curve.weights[0]):
                got = cr.epsilon(curve, z, S(curve, v))
                want = orc.eps_sample(curve, m, v, 1, trials=4, seed=11)
                assert got == want, (m, v)

    def test_serial_epsilon_matches_sampler(self):
        # length-2 colors go through the crystal's kernel-type memo, which
        # samples with its own seeds
        for m in self.battery(W3, 4):
            z = comp.component_label(W3, (), (), [m])
            for v in range(3):
                got = cr.epsilon(W3, z, S(W3, v, 2))
                want = orc.eps_sample(W3, m, v, 2, trials=4, seed=11)
                assert got == want, (m, v)

    def test_one_kernel_sample_per_multisegment(self, monkeypatch):
        cr.clear_memos()
        calls = []
        sample = orc.sample_generic

        def counted(*args, **kwargs):
            calls.append(args[1])
            return sample(*args, **kwargs)

        monkeypatch.setattr(orc, "sample_generic", counted)
        z = tl(W3, (0, 2), (1, 1))
        for v in range(3):
            cr.epsilon(W3, z, S(W3, v, 2))
        cr.hom_into_kernel(W3, z, S(W3, 0, 2))
        assert calls == [z.exceptional[0]] * cr.ORACLE_TRIALS

    @pytest.mark.parametrize("curve", [W2, W3], ids=["p2", "p3"])
    def test_quotient_matches_sampler(self, curve):
        for m in self.battery(curve, 4):
            z = comp.component_label(curve, (), (), [m])
            for v in range(curve.weights[0]):
                s = cr.epsilon(curve, z, S(curve, v))
                if s == 0:
                    continue
                got = cr.f_max(curve, z, S(curve, v))
                want = orc.quotient_type_sample(
                    curve, m, v, 1, s, trials=4, seed=13
                )
                assert got.exceptional in ((), (want,)), (m, v)
                if got.exceptional == ():
                    assert want.is_empty()


class TestEpsilonCensus:
    """How many labels of each dimension vector have each value of epsilon.

    ``f_max`` maps the labels of dimension vector ``d`` with ``epsilon_I =
    k`` one to one onto the labels of ``d - k b`` with ``epsilon_I = 0``,
    and ``e_s`` inverts it, where ``b`` is the dimension vector of the
    colour ``I``.  So the count is ``P(d - k b) - P(d - (k + 1) b)``, with
    ``P`` the Kostant partition function of affine sl_p (the number of
    aperiodic multisegments), zero off the positive orthant.  The colours of
    length 2 and 3 are answered by sampling, and this count is not a sample.

    Limits: a permutation of the epsilon values among the labels of one
    ``d`` leaves every count unchanged (the battery digests pin those), and
    the census covers torsion only, since the projective line has infinitely
    many labels per class.
    """

    #: the box 0 <= d_j <= top checked at each weight p
    BOXES = {2: 4, 3: 3, 4: 2}

    def test_counts_match_kostant_differences(self):
        cases = 0
        for p, top in self.BOXES.items():
            curve = WeightData((p, 1, 1))

            def count(d):
                return kostant_partition_count(p, d) if min(d) >= 0 else 0

            for d in itertools.product(range(top + 1), repeat=p):
                labels = [
                    comp.component_label(curve, (), (), [m])
                    for m in comp.aperiodic_multisegments(curve, 0, d)
                ]
                for j, l in itertools.product(range(p), range(1, p)):
                    b = comp.segment_coverage(p, j, l)
                    got = Counter(cr.epsilon(curve, z, S(curve, j, l)) for z in labels)
                    k = 0
                    while min(d[v] - k * b[v] for v in range(p)) >= 0:
                        want = count([x - k * y for x, y in zip(d, b)]) - count(
                            [x - (k + 1) * y for x, y in zip(d, b)]
                        )
                        assert got.pop(k, 0) == want, (p, d, j, l, k)
                        k += 1
                        cases += 1
                    assert not got, (p, d, j, l)
        assert cases == 2574


class TestBracketingPin:
    """The length-1 colours on every aperiodic multisegment of a battery.

    One line per (multisegment, vertex) with ``epsilon``, ``f_max`` and
    ``e`` (p = 2 and 3 up to total 6, p = 4 up to 5, p = 5 up to 4: 4,372
    lines), then one per ``epsilon = 0`` target and ``s = 1..3`` with
    ``e_s`` (p = 2 and 3 up to total 5, p = 4 up to 4: 2,283 lines).
    """

    OPS = ((2, 6), (3, 6), (4, 5), (5, 4))
    RAISES = ((2, 5), (3, 5), (4, 4))

    SHA256 = "d9d0f742127b012515acfda8168a840c93c4167a670ad4e0f790a26d104f068f"

    @staticmethod
    def battery(p, max_total):
        curve = WeightData((p, 1, 1))
        for total in range(max_total + 1):
            for dims in itertools.product(range(total + 1), repeat=p):
                if sum(dims) == total:
                    for m in comp.aperiodic_multisegments(curve, 0, dims):
                        z = comp.component_label(curve, (), (), [m])
                        for v in range(p):
                            yield curve, m, z, S(curve, v)

    @classmethod
    def lines(cls):
        lines = []
        for p, top in cls.OPS:
            for curve, m, z, c in cls.battery(p, top):
                lines.append(
                    f"{p} {m.pairs} {c.j} {cr.epsilon(curve, z, c)} "
                    f"{cr.f_max(curve, z, c).exceptional} {cr.e(curve, z, c).exceptional}"
                )
        for p, top in cls.RAISES:
            for curve, m, z, c in cls.battery(p, top):
                if cr.epsilon(curve, z, c) == 0:
                    for s in (1, 2, 3):
                        lines.append(
                            f"es {p} {m.pairs} {c.j} {s} "
                            f"{cr.e_s(curve, z, c, s).exceptional}"
                        )
        return lines

    def test_digest(self):
        cr.clear_memos()
        lines = self.lines()
        assert len(lines) == 4372 + 2283
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.SHA256


# ---------------------------------------------------------------------------
# grid engine versus the line sampler
# ---------------------------------------------------------------------------

class TestGridOracleAgreement:
    def shapes(self):
        out = []
        for size in range(1, 4):
            for degs in itertools.combinations_with_replacement(
                range(-1, 3), size
            ):
                out.append(tuple(sorted(degs, reverse=True)))
        return sorted(set(out), reverse=True)

    def test_epsilon_matches_sampler(self):
        for degs in self.shapes():
            z = gl(degs)
            for a in (-1, 0, 1):
                got = cr.epsilon(P1, z, O(a))
                want = orc.p1_eps_sample(degs, a, trials=4, seed=17)
                assert got == want, (degs, a)

    def test_fmax_matches_quotient_oracle(self):
        # every answer of the grid f_max on the nu-free shapes with 1-3
        # summands of degree -2..3 (colours O(a), |a| <= 2, epsilon > 0)
        # against a generic quotient V / O(a)^epsilon built by the oracle
        cases = 0
        for degs in TestP1ShapeBattery.shapes():
            if len(degs) > 3:
                continue
            z = gl(degs)
            for a in range(-2, 3):
                s = cr.epsilon(P1, z, O(a))
                if s == 0:
                    continue
                try:
                    image = cr.f_max(P1, z, O(a))
                except ValueError as err:
                    assert str(err) == cr.UNSUPPORTED, (degs, a)
                    continue
                h = orc.p1_sample(degs, seed=f"fmax:{degs}")
                cls, (bundle, torsion) = orc.p1_quotient_invariants(
                    h, a, s, seed=f"fmax:{degs}:{a}"
                )
                got_degs, got_nu = cr._grid_parts(image)
                assert (got_degs, sum(got_nu)) == (bundle, torsion), (degs, a)
                assert comp.weight(P1, image) == cls, (degs, a)
                cases += 1
        assert cases == 346

    def test_numeric_kernel_shape(self):
        # mixed shape: neither adjacent nor a spread chain
        assert cr.epsilon(P1, gl([3, 1, 1]), O(1)) == 2
        assert cr.epsilon(P1, gl([3, 1, 1]), O(2)) == 1
        assert cr.epsilon(P1, gl([3, 1, 1]), O(3)) == 1


class TestP1ShapeBattery:
    """Every operator on every nu-free projective-line shape with 1-4
    summands of degree -2..3, for the colours O(a) with |a| <= 2."""

    #: sha256 of :meth:`battery_lines`, taken when shapes outside the special
    #: families were sampled; the closed kernel rule must not move it
    BATTERY_SHA256 = "423b23c03a7922f4f0036e547f8653693f8d3a417cf72af00172eaa1e8090060"

    @staticmethod
    def shapes():
        return [
            degs
            for size in range(1, 5)
            for degs in itertools.combinations_with_replacement(range(3, -3, -1), size)
        ]

    @staticmethod
    def battery_lines():
        """One line per call: the answer, or the text of the refusal."""
        lines = []
        for degs in TestP1ShapeBattery.shapes():
            z = gl(degs)
            for a, op in itertools.product(range(-2, 3), ("epsilon", "f", "e", "f_max")):
                try:
                    value = getattr(cr, op)(P1, z, O(a))
                except ValueError as err:
                    answer = f"ValueError: {err}"
                else:
                    if isinstance(value, comp.ComponentLabel):
                        answer = comp.format_label(P1, value)
                    else:
                        answer = repr(value)
                lines.append(f"{op} {degs} {a} {answer}")
        return lines

    def test_battery_digest(self):
        lines = self.battery_lines()
        assert len(self.shapes()) == 209
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.BATTERY_SHA256

    def test_kernel_twist_invariance(self):
        # Hom(V(k), V(k)(-2)) = Hom(V, V(-2)): a twist shifts the kernel
        for degs in self.shapes():
            kernel = cr._kernel_degrees(P1, degs)
            for k in range(-3, 4):
                twisted = tuple(d + k for d in degs)
                assert cr._kernel_degrees(P1, twisted) == tuple(d + k for d in kernel), (
                    degs, k
                )

    def test_no_higgs_field_drawn(self, monkeypatch):
        # the kernel is closed: no operator samples a Higgs field on the line
        def refuse(*args, **kwargs):
            raise AssertionError("P1 Higgs field sampled")

        monkeypatch.setattr(orc, "p1_sample", refuse)
        monkeypatch.setattr(orc, "p1_kernel_profile", refuse)
        cr.clear_memos()
        digest = hashlib.sha256("\n".join(self.battery_lines()).encode()).hexdigest()
        assert digest == self.BATTERY_SHA256


class TestHomIntoKernelPin:
    """``hom_into_kernel`` on the shapes of :class:`TestP1ShapeBattery` and
    on every multisegment of total at most 4 on (2,1,1) and (3,1,1), under
    each colour of length 1 and 2 there."""

    HOM_SHA256 = "411600f8a861a9c9eb71cdeafd8aa60c0683caad0fad6d06b49dc4f39dde1c09"

    @staticmethod
    def lines():
        lines = []
        for degs in TestP1ShapeBattery.shapes():
            for a in range(-2, 3):
                lines.append(f"{degs} {a} {cr.hom_into_kernel(P1, gl(degs), O(a))}")
        for curve in (W2, W3):
            p = curve.weights[0]
            for dims in itertools.product(range(5), repeat=p):
                if sum(dims) > 4:
                    continue
                for m in comp.aperiodic_multisegments(curve, 0, dims):
                    z = comp.component_label(curve, (), (), [m])
                    for j, l in itertools.product(range(p), range(1, min(p, 3))):
                        got = cr.hom_into_kernel(curve, z, S(curve, j, l))
                        lines.append(f"{p} {m.pairs} {j} {l} {got}")
        return lines

    def test_digest(self):
        cr.clear_memos()
        lines = self.lines()
        assert len(lines) == 1595
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.HOM_SHA256


def sampled_kernel(shape, seed=0):
    return orc.p1_kernel_profile(orc.p1_sample(shape, seed=seed))[0]


class TestP1KernelRule:
    """The closed kernel rule of ``_kernel_degrees`` against sampled fields."""

    def test_all_small_shapes(self):
        # every shape with 1-5 summands and spread <= 7, up to twist
        shapes = [
            rest + (0,)
            for n in range(1, 6)
            for rest in itertools.combinations_with_replacement(range(7, -1, -1), n - 1)
        ]
        assert len(shapes) == 495
        for shape in shapes:
            assert cr._kernel_degrees(P1, shape) == sampled_kernel(shape), shape

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 12), min_size=1, max_size=8),
        st.integers(0, 2**32),
    )
    def test_random_shapes(self, degs, seed):
        shape = tuple(sorted(degs, reverse=True))
        assert cr._kernel_degrees(P1, shape) == sampled_kernel(shape, seed)

    def test_special_shapes(self):
        assert cr._kernel_degrees(P1, (5,)) == (5,)
        assert cr._kernel_degrees(P1, (3, 3, 2, 2)) == (3, 3, 2, 2)
        assert cr._kernel_degrees(P1, (7, 4, 2, -1)) == (7,)
        for a, b in [(3, 1), (4, 2), (6, 1), (2, -3)]:
            assert cr._kernel_degrees(P1, (a, b, b)) == (a, 2 * b - a + 2)

    def test_weighted_curves_keep_the_special_shapes(self):
        assert cr._kernel_degrees(W2, (3, 3, 2)) == (3, 3, 2)
        assert cr._kernel_degrees(W2, (5, 2, 0)) == (5,)
        with pytest.raises(ValueError, match=cr.UNSUPPORTED):
            cr._kernel_degrees(W2, (3, 1, 1))


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def line_graph(max_rank=2, max_deg=2):
    return cr.build_graph(
        P1, [E], [O(0), O(1), O(-1)],
        cr.Budget(max_rank=max_rank, max_deg=max_deg),
    )


def torsion_graph(curve, bound, lengths=None):
    p = curve.weights[0]
    colors = [
        S(curve, j, l)
        for l in (lengths or range(1, p))
        for j in range(p)
    ]
    return cr.build_graph(curve, [E], colors, cr.Budget(max_delta=bound))


@functools.cache
def complete_torsion_graph(curve=W2, bound=3):
    """The torsion graph of the empty seed under ``bound`` delta, as
    criterion 05 builds it: by default the (2,1,1) graph under 3 delta."""
    return torsion_graph(curve, bound)


#: colour classes on (3,1,1) for the budget tests: line bundles of rank 1
#: and degree 0 or not, rank-0 torsion classes and the ordinary-point class;
#: scaled by -2..2 they give zero rows and proportional rows too
BUDGET_CLASSES = [
    cat.class_of(W3, c) for c in (lb(W3, 0), lb(W3, -1), lb(W3, 2), S(W3, 0), S(W3, 1, 2))
] + [kt.delta_class(W3)]


class TestBuildGraph:
    def test_no_colors(self):
        g = cr.build_graph(P1, [E], [], cr.Budget())
        assert g.nodes == (E,)
        assert g.edges == ()
        assert g.complete

    def test_line_graph_contains_stack_rows(self):
        g = line_graph()
        for want in [
            E, gl([0]), gl([0, 0]), gl([1]), gl([1, 0]), gl([1, 1]),
            gl([2]), gl([], (1,)), gl([], (1, 1)),
        ]:
            assert want in g.nodes, comp.format_label(P1, want)
        assert g.complete

    def test_budget_respected(self):
        g = line_graph()
        for z in g.nodes:
            w = comp.weight(P1, z)
            assert w.r <= 2
            assert abs(kt.degree_d(P1, w)) <= 2 * P1.p

    def test_node_cap_flags_incomplete(self):
        g = cr.build_graph(
            P1, [E], [O(0), O(1), O(-1)],
            cr.Budget(max_rank=2, max_deg=2, max_nodes=4),
        )
        assert not g.complete
        assert len(g.nodes) >= 4

    @pytest.mark.parametrize(
        "curve, color, budget",
        [
            (P1, O(0), cr.Budget()),
            (P1, O(0), cr.Budget(max_deg=2)),
            (W3, S(W3, 0), cr.Budget(max_rank=1)),
        ],
        ids=["no-budget", "degree-zero-color", "torsion-color-rank-cap"],
    )
    def test_unending_raising_chain_rejected(self, curve, color, budget):
        with pytest.raises(ValueError, match="no budget bound stops raising"):
            cr.build_graph(curve, [E], [color], budget)

    @pytest.mark.parametrize(
        "fields", list(itertools.product((None, 2), repeat=4)),
        ids=lambda fields: "".join("-" if v is None else "x" for v in fields),
    )
    @settings(max_examples=60, deadline=None)
    @given(
        classes=st.lists(
            st.builds(kt.scale, st.integers(-2, 2), st.sampled_from(BUDGET_CLASSES)),
            max_size=4,
        )
    )
    def test_stops_raising_matches_q_rank(self, fields, classes):
        # the reference: the rows (rank, degree) have the same rank over Q
        # as their columns that a set field keeps
        budget = cr.Budget(*fields)
        want = True
        if budget.max_nodes is None and budget.max_delta is None:
            rows = [[a.r, kt.degree_d(W3, a)] for a in classes]
            kept = [
                [x for x, b in zip(row, (budget.max_rank, budget.max_deg)) if b is not None]
                for row in rows
            ]
            want = _linalg.rank_mod(rows, None) == _linalg.rank_mod(kept, None)
        assert budget.stops_raising(W3, classes) == want

    def test_negative_node_cap_rejected(self):
        with pytest.raises(ValueError, match="max_nodes"):
            cr.build_graph(P1, [E], [], cr.Budget(max_nodes=-1))

    def test_seed_outside_budget_rejected(self):
        with pytest.raises(ValueError, match="seed outside the budget"):
            cr.build_graph(P1, [gl([5])], [O(0)], cr.Budget(max_deg=2))

    @pytest.mark.parametrize("curve, bound", [(W2, 3), (W3, 2)], ids=["p2-delta3", "p3-delta2"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_seeds_inside_the_graph_give_the_graph(self, curve, bound, data):
        # every node lowers to the empty label inside the window, so any
        # seeds reach the whole graph
        g = complete_torsion_graph(curve, bound)
        seeds = data.draw(st.lists(st.sampled_from(g.nodes), min_size=1, max_size=2))
        h = cr.build_graph(curve, seeds, g.colors, cr.Budget(max_delta=bound))
        assert (h.nodes, h.edges, h.complete) == (g.nodes, g.edges, True)
        assert cr.verify_axioms(h) == []

    def test_deterministic(self):
        a = line_graph()
        b = line_graph()
        assert a == b

    def test_weight_shifted_seed_stays_isolated(self):
        # a color whose repeated raising leaves the budget immediately: the
        # graph is just the closure of the seed, not everything in the window
        g = cr.build_graph(
            W2, [comp.component_label(W2, (), (1,), ())], [S(W2, 0)],
            cr.Budget(max_delta=2),
        )
        names = {comp.format_label(W2, z) for z in g.nodes}
        assert "(nu=(1,))" in names
        # class-delta multisegment nodes are in the window but unreachable:
        # every walk from the seed shifts the class by multiples of the color
        assert "(pt1: [0;2))" not in names
        assert "(pt1: [1;2))" not in names


class TestVerifyAxioms:
    def test_line_graph_clean(self):
        g = line_graph()
        assert cr.verify_axioms(g) == []

    def test_torsion_graph_clean(self):
        g = torsion_graph(W2, 2)
        assert cr.verify_axioms(g) == []

    def test_single_node_graph_clean(self):
        g = cr.build_graph(P1, [E], [], cr.Budget())
        assert cr.verify_axioms(g) == []

    def test_corrupted_edge_caught_once(self):
        g = line_graph()
        src, tgt, color = g.edges[0]
        other = next(z for z in g.nodes if z not in (src, tgt))
        bad = cr.CrystalGraph(
            P1, g.nodes, ((src, other, color),) + g.edges[1:], g.colors, True
        )
        violations = cr.verify_axioms(bad)
        assert len(violations) == 1

    def test_phantom_edge_at_epsilon_zero_caught(self):
        g = torsion_graph(W2, 2)
        z = tl(W2, (0, 2))
        color = S(W2, 0)
        assert cr.epsilon(W2, z, color) == 0
        bad = cr.CrystalGraph(
            W2, g.nodes, g.edges + ((z, E, color),), g.colors, True
        )
        violations = cr.verify_axioms(bad)
        assert violations
        assert any("weight" in v or "vanish" in v for v in violations)

    def test_every_missing_edge_caught(self):
        g = line_graph()
        assert len(g.edges) == 27
        for k, (src, tgt, color) in enumerate(g.edges):
            bad = cr.CrystalGraph(
                P1, g.nodes, g.edges[:k] + g.edges[k + 1:], g.colors, True
            )
            want = (
                f"missing edge {comp.format_label(P1, src)} -> "
                f"{comp.format_label(P1, tgt)} [{cat.format_label(P1, color)}]"
            )
            assert cr.verify_axioms(bad) == [want]

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_missing_torsion_edge_caught(self, data):
        g = complete_torsion_graph()
        assert g.complete
        k = data.draw(st.integers(0, len(g.edges) - 1))
        src, tgt, color = g.edges[k]
        bad = cr.CrystalGraph(
            W2, g.nodes, g.edges[:k] + g.edges[k + 1:], g.colors, True
        )
        want = (
            f"missing edge {comp.format_label(W2, src)} -> "
            f"{comp.format_label(W2, tgt)} [{cat.format_label(W2, color)}]"
        )
        assert cr.verify_axioms(bad) == [want]

    def test_incomplete_graph_has_no_missing_edges(self):
        # a search cut by max_nodes leaves nodes whose edges were never made
        g = line_graph()
        cut = cr.CrystalGraph(P1, g.nodes, g.edges[1:], g.colors, False)
        assert cr.verify_axioms(cut) == []

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["line", "torsion"]), st.booleans(), st.data())
    def test_corruption_is_reported(self, kind, retarget, data):
        # removed edges are covered by test_every_missing_edge_caught
        g = line_graph() if kind == "line" else torsion_graph(W2, 2)
        if retarget:
            k = data.draw(st.integers(0, len(g.edges) - 1))
            src, tgt, color = g.edges[k]
            others = [z for z in g.nodes if z != tgt]
            # a node of the target's weight passes the weight check
            wt = comp.weight(g.curve, tgt)
            twins = [z for z in others if comp.weight(g.curve, z) == wt]
            if twins and data.draw(st.booleans()):
                others = twins
            other = data.draw(st.sampled_from(others))
            edges = g.edges[:k] + ((src, other, color),) + g.edges[k + 1:]
        else:
            src, color = data.draw(
                st.sampled_from(
                    [
                        (z, c)
                        for z in g.nodes
                        for c in g.colors
                        if cr.epsilon(g.curve, z, c) == 0
                    ]
                )
            )
            edges = g.edges + ((src, data.draw(st.sampled_from(g.nodes)), color),)
        bad = cr.CrystalGraph(g.curve, g.nodes, edges, g.colors, g.complete)
        assert cr.verify_axioms(bad)

    def test_f_off_the_edge_reported(self):
        # the target swapped for a node of the same weight and epsilon passes
        # the first two checks, and f still goes to the old target
        g = torsion_graph(W2, 2)
        src, other, color = tl(W2, (0, 1), (1, 3)), tl(W2, (0, 3)), S(W2, 1)
        tgt = cr.f(W2, src, color)
        assert comp.weight(W2, other) == comp.weight(W2, tgt) and other != tgt
        assert cr.epsilon(W2, other, color) == cr.epsilon(W2, tgt, color)
        edges = tuple((a, other if (a, b) == (src, tgt) else b, c) for a, b, c in g.edges)
        bad = cr.CrystalGraph(W2, g.nodes, edges, g.colors, True)
        assert cr.verify_axioms(bad) == [
            "f does not follow the edge (pt1: [0;1) + [1;3)) -> (pt1: [0;3)) [S[1,1](1)]"
        ]

    def test_e_off_the_edge_reported(self, monkeypatch):
        # an e that sends one edge's target elsewhere, as a broken rule would
        g = torsion_graph(W2, 2)
        src, color = tl(W2, (0, 1), (1, 3)), S(W2, 1)
        tgt, e = cr.f(W2, src, color), cr.e
        monkeypatch.setattr(
            cr, "e", lambda curve, z, c: E if (z, c) == (tgt, color) else e(curve, z, c)
        )
        assert cr.verify_axioms(g) == [
            "e does not invert the edge (pt1: [0;1) + [1;3)) -> (pt1: [0;1) + [1;2)) [S[1,1](1)]"
        ]

    def test_expected_dim_bookkeeping(self):
        # quotienting out all s kernel copies shifts the expected dimension
        # by the mixed Euler terms of gamma = s [I] against the remainder
        g = line_graph()
        for z in g.nodes:
            for color in g.colors:
                s = cr.epsilon(P1, z, color)
                if s == 0:
                    continue
                target = cr.f_max(P1, z, color)
                gamma = kt.scale(s, cat.class_of(P1, color))
                beta = kt.sub(comp.weight(P1, z), gamma)
                lhs = comp.expected_dim(P1, z)
                rhs = (
                    comp.expected_dim(P1, target)
                    - kt.euler_form(P1, beta, gamma)
                    - kt.euler_form(P1, gamma, beta)
                    - kt.euler_form(P1, gamma, gamma)
                )
                assert lhs == rhs
                wt = comp.weight(P1, z)
                assert lhs == -kt.euler_form(P1, wt, wt)


class TestWorkCounts:
    def test_one_dispatch_and_one_label_per_operator_call(self, monkeypatch):
        # criterion 05's (3,1,1) build and check.  Each f and e used to make
        # three dispatches and two label writes (38,106 and 13,044 here).
        # The search used to compute every node's weight and test the budget
        # twice per node and colour, call epsilon before f, and the check to
        # read epsilon once per edge end and again per node and colour
        # (7,156 budget tests, 1,725 weights, 22,242 dispatches)
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cr, "_dispatch", counted("dispatch", cr._dispatch))
        monkeypatch.setattr(comp, "component_label", counted("label", comp.component_label))
        monkeypatch.setattr(comp, "weight", counted("weight", comp.weight))
        monkeypatch.setattr(cr.Budget, "admits", counted("admits", cr.Budget.admits))
        monkeypatch.setattr(cr, "_signature", counted("signature", cr._signature))
        monkeypatch.setattr(comp, "multisegment", counted("multisegment", comp.multisegment))
        monkeypatch.setattr(kt, "sub", counted("sub", kt.sub))
        monkeypatch.setattr(kt, "add", counted("add", kt.add))
        monkeypatch.setattr(kt, "scale", counted("scale", kt.scale))
        colors = [S(W3, j, l) for l in (1, 2) for j in range(3)]
        cr.clear_memos()
        graph = cr.build_graph(W3, [E], colors, cr.Budget(max_delta=3))
        assert cr.verify_axioms(graph) == []
        assert len(graph.nodes) == 862
        assert counts["admits"] <= 124, counts
        assert counts["weight"] <= 863, counts
        assert counts["dispatch"] <= 16_293, counts
        assert counts["label"] <= 7_932, counts
        # _bra_es no longer re-scans its start for epsilon > 0: e_s refuses
        # such targets, and f and e raise only from epsilon 0 (20,637 scans);
        # f and f_max read epsilon off _bra_fmax's scan instead of scanning
        # once more for it (17,181)
        assert counts["signature"] <= 13_725, counts
        # _bra_fmax wrote m again when its scan left no removable (9,885
        # multisegments); the search took the weight below a node before
        # asking whether f returned one (7,279 subtractions)
        assert counts["multisegment"] <= 6_912, counts
        assert counts["sub"] <= 4_090, counts
        # classes were summed simple by simple and segment by segment, and a
        # label's weight added its ordinary part and each multisegment to a
        # zero class (17,517 adds and 9,919 scalings)
        assert counts["add"] <= 10_123, counts
        assert counts["scale"] <= 5_077, counts

    def test_criterion_05_build_leaves_no_reference_cycles(self):
        # the multisegment search's recursive closure left 1,809 objects
        def build():
            for curve in (W2, W3):
                p = curve.weights[0]
                colors = [S(curve, j, l) for l in range(1, p) for j in range(p)]
                graphs.append(cr.build_graph(curve, [E], colors, cr.Budget(max_delta=3)))

        graphs = []
        cr.clear_memos()
        left = cyclic_garbage(build)
        assert [len(g.nodes) for g in graphs] == [57, 862] and left == 0, left


class TestGraphExport:
    def test_json_round_trip(self):
        g = torsion_graph(W2, 2)
        assert cr.graph_from_json(cr.graph_to_json(g)) == g

    def test_json_round_trip_line(self):
        g = line_graph(max_rank=1, max_deg=1)
        assert cr.graph_from_json(cr.graph_to_json(g)) == g

    def test_dot_output(self):
        g = line_graph(max_rank=1, max_deg=1)
        dot = cr.to_dot(g)
        assert dot.startswith("digraph")
        assert 'f[O(0c)]' in dot
        assert dot.count("->") == len(g.edges)


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------

class TestConnectivityPath:
    def test_empty_label(self):
        assert cr.connectivity_path(P1, E) == []

    def test_single_structure_sheaf(self):
        assert cr.connectivity_path(P1, gl([0])) == [("f", O(0))]

    def test_single_point(self):
        assert cr.connectivity_path(P1, gl([], (1,))) == [
            ("e", O(-1)),
            ("f", O(0)),
        ]

    def test_partition_paths_replay(self):
        for lam in [(1,), (1, 1), (2,), (2, 1), (3,), (3, 2), (2, 2, 1)]:
            z = gl([], lam)
            path = cr.connectivity_path(P1, z)
            assert cr.apply_path(P1, z, path) == E, lam

    def test_ladder_paths_replay(self):
        for l in range(1, 4):
            for nu in [(), (1,), (2,), (1, 1), (2, 1), (3,)]:
                degs = [2 * k for k in range(l)]
                z = gl(degs, nu)
                path = cr.connectivity_path(P1, z)
                assert cr.apply_path(P1, z, path) == E, (l, nu)

    def test_ladder_color_sequence(self):
        # rank-3 ladder, no ordinary part: pure top-degree descents
        z = gl([4, 2, 0])
        path = cr.connectivity_path(P1, z)
        assert path == [("f", O(4)), ("f", O(2)), ("f", O(0))]

    def test_exceptional_stripped_first(self):
        z = comp.component_label(W2, (), (), [ms(W2, (0, 2), (0, 1))])
        path = cr.connectivity_path(W2, z)
        assert all(op == "f" for op, _ in path[:1])
        assert cr.apply_path(W2, z, path) == E

    def test_mixed_label_replay(self):
        z = comp.component_label(
            W2, [lb(W2, 0)], (1,), [ms(W2, (0, 1))]
        )
        path = cr.connectivity_path(W2, z)
        assert cr.apply_path(W2, z, path) == E

    def test_non_ladder_bundle_refused(self):
        with pytest.raises(ValueError, match="unsupported component family"):
            cr.connectivity_path(P1, gl([3, 0]))

    def test_hn_tree_label_refused(self):
        tub = WeightData((2, 2, 2, 2))
        z = comp.ComponentLabel(
            comp.HNTree((comp.HNLeaf(kt.structure_class(tub)),)), (), ()
        )
        with pytest.raises(ValueError, match="unsupported component family"):
            cr.connectivity_path(tub, z)

    @pytest.mark.parametrize(
        "path, message",
        [
            ([("squash", O(0))], "unknown operator 'squash'"),
            ([("f", O(1))], "path applies f where epsilon is zero"),
        ],
        ids=["unknown-op", "f-at-epsilon-0"],
    )
    def test_apply_path_refusals(self, path, message):
        with pytest.raises(ValueError, match=message):
            cr.apply_path(P1, E, path)

    def test_rank_two_bundle_refused(self):
        bundle = cat.enumerate_real_bundles(W222, 2)[0]
        z = comp.component_label(W222, [bundle], (), ())
        with pytest.raises(ValueError, match="unsupported component family"):
            cr.connectivity_path(W222, z)

    def test_graph_nodes_all_connect(self):
        g = line_graph()
        # union-find over undirected edges: everything joins the empty label
        parent = {z: z for z in g.nodes}

        def find(z):
            while parent[z] != z:
                parent[z] = parent[parent[z]]
                z = parent[z]
            return z

        for src, tgt, _ in g.edges:
            parent[find(src)] = find(tgt)
        roots = {find(z) for z in g.nodes}
        assert len(roots) == 1
        assert find(E) in roots
