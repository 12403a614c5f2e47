"""The value layer: slotted, immutable records compared by value."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopcrystal
from loopcrystal import catalog as cat
from loopcrystal import components as comp
from loopcrystal import crystal as cr
from loopcrystal import ktheory as kt
from loopcrystal import oracle as orc
from loopcrystal.starlattice import LElement, WeightData

W311 = WeightData((3, 1, 1))
W2222 = WeightData((2, 2, 2, 2))


def package_dataclasses() -> set:
    found = set()
    for info in pkgutil.iter_modules(loopcrystal.__path__):
        module = importlib.import_module(f"loopcrystal.{info.name}")
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
            ):
                found.add(obj)
    return found


def one_of_each() -> list:
    a = kt.structure_class(W311)
    m = comp.multisegment(W311, 0, [(0, 2)])
    return [
        W311.c(),
        cat.LineBundle(W311.c()),
        cat.ExcTorsion(0, 0, 1),
        cat.OrdTorsion("lam4", 1),
        cat.RealBundle(a),
        a,
        m,
        comp.HNLeaf(a),
        comp.HNTree((comp.HNLeaf(a),)),
        comp.component_label(W311, (), (1,), (m,)),
        cr.Budget(max_delta=1),
        cr.CrystalGraph(W311, (), (), ()),
        orc.build_rep(W311, m),
        orc.p1_sample((1, -1)),
    ]


class TestSlots:
    def test_every_dataclass_is_covered(self):
        assert {type(x) for x in one_of_each()} == package_dataclasses()

    @pytest.mark.parametrize("value", one_of_each(), ids=lambda x: type(x).__name__)
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")


weights = st.lists(st.integers(1, 5), min_size=1, max_size=5)


class TestSharedElements:
    @settings(max_examples=200, deadline=None)
    @given(weights, st.data())
    def test_normalize_shares_one_element_per_class(self, ws, data):
        curve = WeightData(ws)
        coeffs = data.draw(st.lists(st.integers(-20, 20), min_size=curve.n, max_size=curve.n))
        l = data.draw(st.integers(-5, 5))
        elem = curve.normalize(coeffs, l)
        assert curve.normalize(list(coeffs), l) is elem
        # the same class written with one more x_k and one c fewer
        k = data.draw(st.integers(0, curve.n - 1))
        shifted = list(coeffs)
        shifted[k] += curve.weights[k]
        assert curve.normalize(shifted, l - 1) is elem
        direct = LElement(
            l + sum(a // p for a, p in zip(coeffs, curve.weights)),
            tuple(a % p for a, p in zip(coeffs, curve.weights)),
        )
        assert direct is not elem
        assert direct == elem
        assert hash(direct) == hash(elem)

    def test_zero_and_c_are_shared(self):
        curve = WeightData((2, 3, 7))
        assert curve.zero() is curve.normalize([0, 0, 0])
        assert curve.c() is curve.normalize([2, 0, 0])
        assert curve.c() is curve.normalize([0, 0, 0], l=1)


class TestCopyAndPickle:
    @pytest.fixture
    def label(self):
        m = comp.multisegment(W2222, 0, [(0, 1)])
        return comp.component_label(
            W2222, comp.HNTree((comp.HNLeaf(kt.structure_class(W2222)),)), (2, 1), (m,)
        )

    def test_deepcopy_round_trip(self, label):
        copied = copy.deepcopy(label)
        assert copied == label
        assert hash(copied) == hash(label)
        assert isinstance(copied.bundle, comp.HNTree)
        assert copied.exceptional[0].pairs == (((0, 1), 1),)

    def test_pickle_round_trip(self, label):
        loaded = pickle.loads(pickle.dumps(label))
        assert loaded == label
        assert hash(loaded) == hash(label)
        assert comp.label_to_json(W2222, loaded) == comp.label_to_json(W2222, label)
