"""Component labels: multisegments, weights, enumeration in each regime."""

import itertools
import math
import tracemalloc

import pytest

from conftest import cyclic_garbage
from counting_oracle import count_aperiodic_multisegments, count_torsion_labels
from loopcrystal import catalog as cat, components as comp, ktheory as kt
from loopcrystal.starlattice import WeightData


@pytest.fixture
def p1():
    return WeightData((1, 1, 1))


@pytest.fixture
def w211():
    return WeightData((2, 1, 1))


@pytest.fixture
def w222():
    return WeightData((2, 2, 2))


@pytest.fixture
def w2222():
    return WeightData((2, 2, 2, 2))


class TestPartitions:
    def test_conjugate_examples(self):
        assert comp.conjugate((2, 1)) == (2, 1)
        assert comp.conjugate((3, 1)) == (2, 1, 1)
        assert comp.conjugate(()) == ()

    def test_conjugate_involution(self):
        for nu in comp.partitions(6):
            assert comp.conjugate(comp.conjugate(nu)) == nu

    def test_partition_count(self):
        assert len(list(comp.partitions(5))) == 7
        assert list(comp.partitions(0)) == [()]


class TestMultisegments:
    def test_constructor_normalizes(self, w211):
        m = comp.multisegment(w211, 0, [(3, 2), (1, 2), (0, 1)])
        assert m.pairs == (((0, 1), 1), ((1, 2), 2))
        assert m.multiplicity(1, 2) == 2
        assert m.total_length() == 5

    def test_constructor_errors(self, w211, p1):
        with pytest.raises(ValueError):
            comp.multisegment(w211, 0, [(0, 0)])
        with pytest.raises(ValueError):
            comp.multisegment(p1, 0, [(0, 1)])

    def test_coverage(self):
        assert comp.segment_coverage(2, 0, 3) == (2, 1)
        assert comp.segment_coverage(3, 1, 2) == (1, 1, 0)
        assert comp.segment_coverage(3, 0, 6) == (2, 2, 2)

    def test_dim_vector(self, w222):
        m = comp.multisegment(w222, 1, [(0, 2), (0, 1)])
        assert comp.dim_vector(w222, m) == (2, 1)

    def test_class_full_period_is_delta(self, w211):
        m = comp.multisegment(w211, 0, [(0, 2)])
        assert comp.multisegment_class(w211, m) == kt.delta_class(w211)

    def test_aperiodicity(self, w211):
        periodic = comp.multisegment(w211, 0, [(0, 1), (1, 1)])
        assert not comp.is_aperiodic_for(w211, periodic)
        fine = comp.multisegment(w211, 0, [(0, 2), (0, 1)])
        assert comp.is_aperiodic_for(w211, fine)

    def test_enumeration_small(self, w211):
        got = comp.aperiodic_multisegments(w211, 0, (2, 1))
        expected = {
            (((0, 3), 1),),
            (((0, 1), 1), ((0, 2), 1)),
            (((0, 1), 1), ((1, 2), 1)),
        }
        assert {m.pairs for m in got} == expected

    def test_enumeration_matches_layer_recursion(self, w211, w222):
        for p, curve, i in ((2, w211, 0), (2, w222, 2)):
            for dims in itertools.product(range(4), repeat=p):
                got = comp.aperiodic_multisegments(curve, i, dims)
                assert len(got) == count_aperiodic_multisegments(p, dims), dims
                assert len(set(got)) == len(got)
                for m in got:
                    assert comp.dim_vector(curve, m) == dims
                    assert comp.is_aperiodic_for(curve, m)

    def test_enumeration_matches_layer_recursion_p3(self):
        curve = WeightData((3, 1, 1))
        for dims in itertools.product(range(3), repeat=3):
            got = comp.aperiodic_multisegments(curve, 0, dims)
            assert len(got) == count_aperiodic_multisegments(3, dims), dims

    def test_enumeration_memo_repeats(self, w211):
        curve = WeightData((3, 1, 1))
        for dims in itertools.product(range(3), repeat=3):
            first = comp.aperiodic_multisegments(curve, 0, dims)
            hits = comp._aperiodic_multisegments.cache_info().hits
            again = comp.aperiodic_multisegments(curve, 0, list(dims))
            assert comp._aperiodic_multisegments.cache_info().hits == hits + 1
            assert isinstance(again, tuple)
            assert again == first
            assert len(again) == count_aperiodic_multisegments(3, dims), dims
        empty = (comp.Multisegment(0, ()),)
        assert comp.aperiodic_multisegments(w211, 0, (0, 0)) == empty
        for _ in range(2):
            with pytest.raises(ValueError, match="length"):
                comp.aperiodic_multisegments(w211, 0, (1, 1, 1))


class TestLabelsAndWeights:
    def test_weight_examples(self, p1, w211):
        o = cat.LineBundle(p1.zero())
        z = comp.component_label(p1, [o, o, o])
        assert comp.weight(p1, z) == kt.scale(3, kt.structure_class(p1))
        z2 = comp.component_label(p1, (), (1, 1))
        assert comp.weight(p1, z2) == kt.scale(2, kt.delta_class(p1))
        z3 = comp.component_label(
            w211, (), (), [comp.multisegment(w211, 0, [(0, 2)])]
        )
        assert comp.weight(w211, z3) == kt.delta_class(w211)

    def test_expected_dim(self, p1):
        z = comp.component_label(p1, (), (1,))
        assert comp.expected_dim(p1, z) == 0
        z2 = comp.component_label(p1, [cat.LineBundle(p1.zero())])
        assert comp.expected_dim(p1, z2) == -1
        assert comp.expected_dim(p1, comp.EMPTY) == 0

    def test_label_validation(self, w211):
        with pytest.raises(ValueError, match="aperiodic"):
            comp.component_label(
                w211, (), (), [comp.multisegment(w211, 0, [(0, 1), (1, 1)])]
            )
        with pytest.raises(ValueError):
            comp.component_label(w211, (), (0,))
        with pytest.raises(ValueError):
            comp.component_label(w211, [cat.OrdTorsion("q", 1)])

    @pytest.mark.parametrize(
        "exceptional, message",
        [
            ([comp.Multisegment(0, (((0, 1), 1),)), comp.Multisegment(0, (((1, 1), 1),))],
             "at most one multisegment per point"),
            ([comp.Multisegment(1, (((0, 1), 1),))], "multisegments live at weighted points"),
        ],
        ids=["two-at-one-point", "weight-1-point"],
    )
    def test_multisegment_placement_refused(self, w211, exceptional, message):
        with pytest.raises(ValueError, match=message):
            comp.component_label(w211, (), (), exceptional)

    @pytest.mark.parametrize("i", [-1, 3], ids=["negative", "past-the-end"])
    def test_point_index_outside_the_curve_refused(self, i):
        # -1 used to name the last point, the weighted one here
        w112 = WeightData((1, 1, 2))
        with pytest.raises(ValueError, match="weighted points"):
            comp.multisegment(w112, i, [(0, 1)])
        with pytest.raises(ValueError, match="weighted points"):
            comp.component_label(w112, (), (), [comp.Multisegment(i, (((0, 1), 1),))])
        data = {"bundle": [], "ordinary": [], "exceptional": [{"i": i + 1, "segs": [[0, 1, 1]]}]}
        with pytest.raises(ValueError, match="weighted points"):
            comp.label_from_json(data, w112)

    @pytest.mark.parametrize(
        "ordinary", [[1.7, True, "2"], [2.0], [True], ["1"]],
        ids=["mixed", "float", "bool", "str"],
    )
    def test_partition_parts_must_be_ints(self, p1, ordinary):
        # they were truncated by int(): [1.7, True, "2"] became (2, 1, 1)
        with pytest.raises(ValueError, match="must be JSON integers"):
            comp.component_label(p1, (), ordinary)

    def test_json_roundtrip(self, w211):
        z = comp.component_label(
            w211,
            [cat.LineBundle(w211.normalize([1, 0, 0], l=1))],
            (2, 1),
            [comp.multisegment(w211, 0, [(0, 2), (0, 1)])],
        )
        data = comp.label_to_json(w211, z)
        assert comp.label_from_json(data, w211) == z

    def test_json_multiplicities_counted_not_expanded(self, w211):
        # the reader used to list every copy: multiplicity 10**6 took 1.5 s
        # and a 15 MB traced peak
        data = {"bundle": [], "ordinary": [], "exceptional": [{"i": 1, "segs": [[0, 1, 10**9]]}]}
        tracemalloc.start()
        try:
            z = comp.label_from_json(data, w211)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert z.exceptional[0].pairs == (((0, 1), 10**9),)
        assert peak < 100_000, peak

    def test_json_segments_normalised_like_multisegment(self, w211):
        # heads are taken mod p and repeated segments merged
        segs = [[0, 1, 3], [2, 1, 4], [1, 2, 1], [3, 2, 2]]
        data = {"bundle": [], "ordinary": [], "exceptional": [{"i": 1, "segs": segs}]}
        m = comp.multisegment(w211, 0, [(0, 1)] * 7 + [(1, 2)] * 3)
        assert comp.label_from_json(data, w211).exceptional == (m,)
        data["exceptional"][0]["segs"] = [[0, 0, 2]]
        with pytest.raises(ValueError, match="segment length must be positive"):
            comp.label_from_json(data, w211)

    def test_json_roundtrip_hn(self, w2222):
        z = comp.ComponentLabel(
            comp.HNTree((comp.HNLeaf(kt.structure_class(w2222)),)),
            (1,),
            (),
        )
        data = comp.label_to_json(w2222, z)
        assert comp.label_from_json(data, w2222) == z

    @pytest.mark.parametrize(
        "ordinary, segs",
        [([0, -2], []), ([], [[0, 1, 1], [1, 1, 1]])],
        ids=["partition", "periodic"],
    )
    def test_json_hn_label_validated(self, w2222, ordinary, segs):
        z = comp.ComponentLabel(
            comp.HNTree((comp.HNLeaf(kt.structure_class(w2222)),)), (), ()
        )
        data = comp.label_to_json(w2222, z)
        data["ordinary"] = ordinary
        data["exceptional"] = [{"i": 1, "segs": segs}]
        with pytest.raises(ValueError):
            comp.label_from_json(data, w2222)


class TestTorsionEnumeration:
    def test_p1_point_classes(self, p1):
        for d, expected in ((1, 1), (2, 2), (3, 3), (4, 5), (5, 7)):
            a = kt.scale(d, kt.delta_class(p1))
            labs = comp.enumerate_torsion_components(p1, a)
            assert len(labs) == expected
            assert all(z.bundle == () and not z.exceptional for z in labs)

    def test_delta_on_211(self, w211):
        labs = comp.enumerate_torsion_components(w211, kt.delta_class(w211))
        assert len(labs) == 3
        reprs = {comp.format_label(w211, z) for z in labs}
        assert reprs == {"(nu=(1,))", "(pt1: [0;2))", "(pt1: [1;2))"}

    def test_single_simple(self, w211):
        labs = comp.enumerate_torsion_components(
            w211, kt.class_of_simple(w211, 0, 1)
        )
        assert len(labs) == 1
        assert labs[0].exceptional[0].pairs == (((1, 1), 1),)

    def test_weights_and_purity(self, w211, w222):
        for curve in (w211, w222):
            for d in range(0, 3):
                for m1 in range(-1, 2):
                    a = kt.from_vector(
                        curve, [0, d, m1] + [0] * (kt.lattice_rank(curve) - 3)
                    )
                    if not kt.is_positive(curve, a):
                        continue
                    labs = comp.enumerate_torsion_components(curve, a)
                    assert len(set(labs)) == len(labs)
                    for z in labs:
                        assert comp.weight(curve, z) == a
                        assert comp.expected_dim(curve, z) == -kt.euler_form(
                            curve, a, a
                        )

    def test_counts_match_independent_recursion(self, w211, w222, w2222):
        for curve in (w211, w222, w2222):
            rank = kt.lattice_rank(curve)
            for d in range(0, 4):
                for m_flat in itertools.product((-1, 0, 1), repeat=rank - 2):
                    a = kt.from_vector(curve, [0, d, *m_flat])
                    if not kt.is_positive(curve, a):
                        continue
                    labs = comp.enumerate_torsion_components(curve, a)
                    assert len(labs) == count_torsion_labels(
                        curve.weights, a.d, a.m
                    ), (curve.weights, d, m_flat)

    def test_requires_rank_zero_positive(self, p1):
        with pytest.raises(ValueError):
            comp.enumerate_torsion_components(p1, kt.structure_class(p1))
        with pytest.raises(ValueError):
            comp.enumerate_torsion_components(
                p1, kt.scale(-1, kt.delta_class(p1))
            )


class TestFiniteEnumeration:
    def test_p1_rank_one(self, p1):
        o = kt.structure_class(p1)
        dl = kt.delta_class(p1)
        labs = comp.enumerate_components_finite(p1, kt.add(o, dl))
        strs = {comp.format_label(p1, z) for z in labs}
        assert strs == {"(O(c))", "(O(0c), nu=(1,))"}
        assert len(comp.enumerate_components_finite(p1, o)) == 1
        two = comp.enumerate_components_finite(p1, kt.scale(2, o))
        assert len(two) == 1 and len(two[0].bundle) == 2

    def test_rank_one_on_211(self, w211):
        # by hand: O + each of 3 torsion labels of delta, O(x_1) + [0;1),
        # O(c) alone
        a = kt.add(kt.structure_class(w211), kt.delta_class(w211))
        labs = comp.enumerate_components_finite(w211, a)
        assert len(labs) == 5
        for z in labs:
            assert comp.weight(w211, z) == a

    def test_min_degree_window(self, p1):
        o = kt.structure_class(p1)
        labs = comp.enumerate_components_finite(p1, o, min_degree=-1)
        # O and (O(-1) plus a point) now both fit
        assert len(labs) == 2

    def test_wrong_regime(self, w2222):
        with pytest.raises(ValueError, match="wrong regime"):
            comp.enumerate_components_finite(w2222, kt.structure_class(w2222))

    def test_three_spikes_rank_two_needs_box(self, w222):
        a = kt.scale(2, kt.structure_class(w222))
        with pytest.raises(ValueError, match="real_bundle_box"):
            comp.enumerate_components_finite(w222, a)
        labs = comp.enumerate_components_finite(w222, a, real_bundle_box=2)
        assert labs
        # a box below 2 searches only rank 1, so it would find no rank-2 summand
        for box in (-1, 0, 1):
            with pytest.raises(ValueError, match="real_bundle_box must be at least 2"):
                comp.enumerate_components_finite(w222, a, real_bundle_box=box)
        for z in labs:
            assert comp.weight(w222, z) == a

    def test_factorization_count(self, p1):
        # splitting off the bundle class reproduces a product of counts
        o = kt.structure_class(p1)
        dl = kt.delta_class(p1)
        a = kt.add(o, kt.scale(2, dl))
        labs = comp.enumerate_components_finite(p1, a)
        by_bundle = {}
        for z in labs:
            by_bundle.setdefault(z.bundle, []).append(z)
        for bundle, group in by_bundle.items():
            beta = kt.zero_class(p1)
            for lab in bundle:
                beta = kt.add(beta, cat.class_of(p1, lab))
            rest = kt.sub(a, beta)
            assert len(group) == len(
                comp.enumerate_torsion_components(p1, rest)
            )


class TestTubularEnumeration:
    def test_rank0_delegates(self, w2222):
        a = kt.scale(2, kt.delta_class(w2222))
        assert comp.enumerate_components_tubular(
            w2222, a
        ) == comp.enumerate_torsion_components(w2222, a)

    def test_structure_plus_point(self, w2222):
        o = kt.structure_class(w2222)
        dl = kt.delta_class(w2222)
        a = kt.add(o, dl)
        labs = comp.enumerate_components_tubular(
            w2222, a, slope_window=(0, math.inf), max_parts=2
        )
        n_torsion = len(comp.enumerate_torsion_components(w2222, dl))
        # one unreduced single-leaf label plus torsion-on-top-of-O labels
        assert len(labs) == 1 + n_torsion
        hn_labels = [
            z for z in labs if isinstance(z.bundle, comp.HNTree)
            and len(z.bundle.leaves) == 1
            and z.bundle.leaves[0].cls == o
        ]
        assert len(hn_labels) == n_torsion

    def test_wrong_regime(self, w222):
        with pytest.raises(ValueError, match="wrong regime"):
            comp.enumerate_components_tubular(
                w222, kt.structure_class(w222), slope_window=(0, 1)
            )


class TestReferenceCycles:
    # the recursive closures of the multisegment search, the bundle search
    # and the HN-type search left 389 objects here and 90 on (3,3,3)
    def test_finite_enumeration_leaves_none(self):
        curve = WeightData((2, 3, 1))
        a = kt.scale(2, kt.add(kt.structure_class(curve), kt.delta_class(curve)))
        comp._aperiodic_multisegments.cache_clear()
        labels = []
        left = cyclic_garbage(lambda: labels.extend(comp.enumerate_components_finite(curve, a)))
        assert labels and left == 0, left

    def test_tubular_enumeration_leaves_none(self):
        curve = WeightData((3, 3, 3))
        a = kt.add(kt.structure_class(curve), kt.delta_class(curve))
        comp._aperiodic_multisegments.cache_clear()
        labels = []
        left = cyclic_garbage(
            lambda: labels.extend(comp.enumerate_components_tubular(curve, a, (0, 3)))
        )
        assert labels and left == 0, left
