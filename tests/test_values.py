"""The value layer: slotted, immutable records compared by value."""

import copy
import dataclasses
import gc
import hashlib
import importlib
import itertools
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopcrystal
from conftest import perfbench_workloads
from loopcrystal import catalog as cat
from loopcrystal import components as comp
from loopcrystal import crystal as cr
from loopcrystal import ktheory as kt
from loopcrystal import oracle as orc
from loopcrystal.starlattice import LElement, Record, Shared, WeightData

W311 = WeightData((3, 1, 1))
W222 = WeightData((2, 2, 2))
W2222 = WeightData((2, 2, 2, 2))


def package_records() -> set:
    found = set()
    for info in pkgutil.iter_modules(loopcrystal.__path__):
        module = importlib.import_module(f"loopcrystal.{info.name}")
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, Record)
                and obj is not Record
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
        assert {type(x) for x in one_of_each()} == package_records()

    @pytest.mark.parametrize("value", one_of_each(), ids=lambda x: type(x).__name__)
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")


# The dataclass declarations the records replaced: fields in order, with a
# default as (name, value).
DECLARED = {
    LElement: ["l", "residues"],
    cat.LineBundle: ["x"],
    cat.ExcTorsion: ["i", "j", "l"],
    cat.OrdTorsion: ["pt", "dlen"],
    cat.RealBundle: ["a"],
    kt.KClass: ["r", "d", "m"],
    comp.Multisegment: ["i", "pairs"],
    comp.HNLeaf: ["cls"],
    comp.HNTree: ["leaves"],
    comp.ComponentLabel: ["bundle", "ordinary", "exceptional"],
    cr.Budget: [("max_rank", None), ("max_deg", None), ("max_delta", None),
                ("max_nodes", None)],
    cr.CrystalGraph: ["curve", "nodes", "edges", "colors", ("complete", True)],
    orc.CyclicPair: ["p", "dims", "phi", "phibar", ("prime", orc.DEFAULT_PRIME),
                     ("point", 0)],
    orc.P1Higgs: ["degs", "f", ("prime", orc.DEFAULT_PRIME)],
}
RECORDS = sorted(DECLARED, key=lambda cls: cls.__name__)


def twin(cls):
    """The reference ``@dataclass`` of a record: same name, fields, defaults."""
    fields = [
        name if isinstance(name, str)
        else (name[0], object, dataclasses.field(default=name[1]))
        for name in DECLARED[cls]
    ]
    return dataclasses.make_dataclass(
        cls.__name__, fields, frozen=True, slots=True
    )


TWINS = {cls: twin(cls) for cls in RECORDS}

field_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.text(max_size=2),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
)


def required(cls) -> int:
    return sum(isinstance(name, str) for name in DECLARED[cls])


class TestDataclassParity:
    def test_declarations_cover_the_package(self):
        assert set(DECLARED) == package_records()

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_annotations_name_the_slots(self, cls):
        assert tuple(cls.__annotations__) == cls.__slots__

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(RECORDS), st.data())
    def test_repr_eq_hash_match_the_twin(self, cls, data):
        ref = TWINS[cls]
        n = len(DECLARED[cls])
        a = data.draw(st.lists(field_values, min_size=n, max_size=n))
        b = data.draw(st.just(list(a)) | st.lists(field_values, min_size=n, max_size=n))
        assert repr(cls(*a)) == repr(ref(*a))
        assert (cls(*a) == cls(*b)) == (ref(*a) == ref(*b))
        assert (cls(*a) != cls(*b)) == (ref(*a) != ref(*b))
        assert cls(*a) != ref(*a)
        assert cls(**dict(zip(cls.__slots__, a))) == cls(*a)
        assert hash(cls(*a)) == hash(ref(*a))

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_defaults_match_the_twin(self, cls):
        args = list(range(required(cls)))
        assert repr(cls(*args)) == repr(TWINS[cls](*args))

    def test_default_fields(self):
        assert cr.Budget(max_delta=1) == cr.Budget(None, None, 1, None)
        assert cr.CrystalGraph(W311, (), (), ()).complete is True

    def test_equal_fields_of_two_classes_are_unequal(self):
        x = W311.c()
        assert cat.LineBundle(x) != cat.RealBundle(x)
        assert not cat.LineBundle(x) == cat.RealBundle(x)
        assert cat.ExcTorsion(0, 0, 1) != kt.KClass(0, 0, 1)

    @pytest.mark.parametrize("value", one_of_each(), ids=lambda x: type(x).__name__)
    def test_frozen_fields_refuse_assignment(self, value):
        name = type(value).__slots__[0]
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 0
        assert getattr(value, name) is before


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
        assert direct is elem
        assert direct == elem
        assert hash(direct) == hash(elem)

    def test_zero_and_c_are_shared(self):
        curve = WeightData((2, 3, 7))
        assert curve.zero() is curve.normalize([0, 0, 0])
        assert curve.c() is curve.normalize([2, 0, 0])
        assert curve.c() is curve.normalize([0, 0, 0], l=1)


class TestSharedRecords:
    """``shared=True`` records: one instance per value, still compared by
    value; every other record builds a fresh instance per call."""

    def test_equal_values_from_two_curves_are_one_instance(self):
        one, two = WeightData((2, 3, 7)), WeightData((2, 3, 7))
        assert one.c() is two.c()
        assert cat.LineBundle(one.x(1)) is cat.LineBundle(two.x(1))
        assert cat.LineBundle(one.omega()) is not cat.LineBundle(one.c())

    @pytest.mark.parametrize("value", [W311.c(), cat.LineBundle(W311.c())],
                             ids=lambda x: type(x).__name__)
    def test_pickle_and_deepcopy_return_the_instance(self, value):
        assert pickle.loads(pickle.dumps(value)) is value
        assert copy.deepcopy(value) is value
        assert copy.copy(value) is value

    def test_shared_instances_refuse_assignment(self):
        lab = cat.LineBundle(W311.c())
        with pytest.raises(AttributeError):
            lab.x = W311.zero()
        with pytest.raises(AttributeError):
            W311.c().l = 0
        assert cat.LineBundle(W311.c()).x is W311.c()

    def test_field_types_are_part_of_the_key(self):
        assert repr(cat.LineBundle(0)) == "LineBundle(x=0)"
        assert repr(cat.LineBundle(False)) == "LineBundle(x=False)"
        assert cat.LineBundle(0) is not cat.LineBundle(False)
        assert cat.LineBundle(0) == cat.LineBundle(False)

    @pytest.mark.parametrize(
        "l, residues",
        [(97, (0.0, 0, 0)), (98, (False, 0, 0)), (99, (Fraction(0), 0, 0))],
        ids=["float-residue", "bool-residue", "fraction-residue"],
    )
    def test_element_table_holds_only_ints(self, l, residues):
        # the table keys (0.0, 0, 0) and (0, 0, 0) alike: a non-int element
        # in it would answer for the int one (each case has an l of its own)
        LElement(l, residues)
        assert repr(LElement(l, (0, 0, 0))) == f"LElement(l={l}, residues=(0, 0, 0))"
        assert LElement(l, (0, 0, 0)) is LElement(l, (0, 0, 0))

    def test_frozen_keyword_is_refused(self):
        # every record is frozen; there is no mutable mode left to ask for
        with pytest.raises(TypeError):
            class Loose(Record, frozen=False):
                __slots__ = ("a",)

    def test_other_records_are_not_shared(self):
        m = comp.multisegment(W311, 0, [(0, 2)])
        for build in (
            lambda: kt.structure_class(W311),
            lambda: comp.multisegment(W311, 0, [(0, 2)]),
            lambda: comp.component_label(W311, (), (1,), (m,)),
        ):
            assert build() == build()
            assert build() is not build()


class TestSharedMemory:
    def test_one_line_bundle_per_degree(self):
        # a guard on what the shared table saves: without it, every label
        # below would hold its own LineBundle objects
        p1 = WeightData((1, 1, 1))
        degrees = range(-2, 4)
        labels = [
            comp.component_label(
                p1, [cat.LineBundle(p1.scale(d, p1.c())) for d in shape]
            )
            for n in (1, 2, 3)
            for shape in itertools.product(degrees, repeat=n)
        ]
        wanted = {p1.scale(d, p1.c()) for d in degrees}
        gc.collect()
        alive = [
            obj.x for obj in gc.get_objects()
            if type(obj) is cat.LineBundle and type(obj.x) is LElement
            and obj.x in wanted
        ]
        assert len(labels) == 258
        assert sorted(alive, key=repr) == sorted(wanted, key=repr)


class TestCachedHashAndRepr:
    """A shared record's hash and repr are made once, with the instance; a
    curve's hash once, with the curve; a curve's normal forms once per
    input."""

    @pytest.mark.parametrize(
        "value",
        [W311.c(), W311.omega(), cat.LineBundle(W311.c()), cat.LineBundle(False)],
        ids=["c", "omega", "LineBundle", "LineBundle-False"],
    )
    def test_shared_hash_and_repr_are_stored(self, value):
        assert repr(value) is repr(value)
        fields = tuple(getattr(value, name) for name in type(value).__slots__)
        assert hash(value) == hash(fields)

    def test_shared_classes_use_the_mixin_methods(self):
        for cls in (LElement, cat.LineBundle):
            assert issubclass(cls, Shared)
            assert cls.__repr__ is Shared.__repr__
            assert cls.__hash__ is Shared.__hash__

    @pytest.mark.parametrize(
        "curve",
        [W311, W2222, WeightData((2, 3, 7), ["0", "inf", "1"]), WeightData((1, 1, 1, 1), ["q"])],
        ids=["311", "2222", "237-labelled", "1111-labelled"],
    )
    def test_curve_hash(self, curve):
        assert hash(curve) == hash((curve.weights, curve.labels))
        assert hash(curve) == hash(WeightData(curve.weights, curve.labels))

    @settings(max_examples=200, deadline=None)
    @given(weights, st.data())
    def test_normalize_returns_the_loop_result(self, ws, data):
        # floats are refused (NORMALIZE_PINS)
        curve = WeightData(ws)
        entry = st.one_of(st.integers(-20, 20), st.booleans())
        coeffs = data.draw(st.lists(entry, min_size=curve.n, max_size=curve.n))
        l = data.draw(entry)
        first = curve.normalize(coeffs, l)
        assert curve.normalize(coeffs, l) is first
        assert first is curve._reduce(coeffs, l)

    def test_normal_form_table_bound(self):
        # the inputs of the three workloads: torsion-graph builds its curves
        # inside the CLI, oracle-battery builds multisegments only, and
        # p1-queries asks for O(d), -2 <= d <= 3, on one curve
        bench = perfbench_workloads()
        bench.torsion_argvs("full")
        curves = {bench.P1} | {curve for curve, _, _ in bench.battery_items(1, 420)}
        bench.p1_queries(2000)
        assert len(curves) == 4
        assert sum(len(curve._normal_forms) for curve in curves) <= 6


#: sha256 of the newline-joined reprs of ``component_label`` on every P1
#: shape: 1-4 line bundles of degree -2..3 in every order, with 0-3 points.
P1_LABELS_SHA256 = "840092b7397c3822651c0520011a68a015e993d56f88ecd6a7c74deb74084a80"

#: ``normalize`` on (2,1,1) of inputs that are not plain nonnegative ints:
#: name -> ((coeffs, l), the int input of equal value, repr of the result,
#: or ``"<class>: <message>"`` of the refusal).
NORMALIZE_PINS = {
    "negative": (([-3, 0, 0], 0), ([-3, 0, 0], 0), "LElement(l=-2, residues=(1, 0, 0))"),
    "negative-l": (([0, -1, 0], -1), ([0, -1, 0], -1),
                   "LElement(l=-2, residues=(0, 0, 0))"),
    "bool-l": (([0, 0, 0], False), ([0, 0, 0], 0), "LElement(l=0, residues=(0, 0, 0))"),
    "bool-coeff": (([True, 0, 0], 0), ([1, 0, 0], 0), "LElement(l=0, residues=(1, 0, 0))"),
    "bool-both": (([True, 0, 0], True), ([1, 0, 0], 1),
                  "LElement(l=1, residues=(1, 0, 0))"),
    "float": (([1.5, 0, 0], 0), ([1, 0, 0], 0),
              "ValueError: normal form needs int coefficients, got 1.5"),
    "integral-float": (([2.0, 0, 0], 0), ([2, 0, 0], 0),
                       "ValueError: normal form needs int coefficients, got 2.0"),
}


class TestLabelPins:
    def test_p1_label_reprs(self):
        p1 = WeightData((1, 1, 1))
        reprs = [
            repr(comp.component_label(
                p1, [cat.LineBundle(p1.normalize([0, 0, 0], l=d)) for d in shape],
                (1,) * points,
            ))
            for n in range(1, 5)
            for shape in itertools.product(range(-2, 4), repeat=n)
            for points in range(4)
        ]
        assert len(reprs) == 6216
        assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == P1_LABELS_SHA256

    @pytest.mark.parametrize("name", NORMALIZE_PINS)
    @pytest.mark.parametrize("plain_first", [False, True])
    def test_normalize_reprs(self, name, plain_first):
        # checked before and after the curve has seen the int input
        odd, plain, shown = NORMALIZE_PINS[name]
        curve = WeightData((2, 1, 1))

        def answer():
            try:
                return repr(curve.normalize(*odd))
            except ValueError as err:
                return f"{type(err).__name__}: {err}"

        if plain_first:
            curve.normalize(*plain)
        assert answer() == shown
        curve.normalize(*plain)
        assert answer() == shown


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

    @pytest.mark.parametrize("value", one_of_each(), ids=lambda x: type(x).__name__)
    def test_every_record_round_trips(self, value):
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(copied) is type(value)
            assert copied == value
            assert repr(copied) == repr(value)


def json_examples() -> dict:
    """Well-formed JSON values, each with the reader that reads it on
    ``W311``, or on ``W222`` for a real-root bundle, which has rank >= 2
    and so needs three weighted points."""
    line = cat.LineBundle(W311.normalize([0, 1, 0], l=1))
    real = cat.enumerate_real_bundles(W222, 2)[0]
    colors = [cat.exc_torsion(W311, 0, j, 1) for j in range(3)]
    z = comp.component_label(
        W311, [line, line], (2, 1), [comp.multisegment(W311, 0, [(0, 2), (1, 1)])]
    )
    real_z = comp.component_label(W222, [real, cat.LineBundle(W222.c())], (1,), ())
    hn = comp.ComponentLabel(comp.HNTree((comp.HNLeaf(kt.structure_class(W311)),)), (), ())
    graph = cr.build_graph(W311, [comp.EMPTY], colors, cr.Budget(max_delta=1))

    def sheaf(data):
        return cat.label_from_json(data, W311)

    def component(data):
        return comp.label_from_json(data, W311)

    return {
        "degree": (line.x.to_json(), LElement.from_json),
        "class": (real.a.to_json(), lambda data: kt.KClass.from_json(data, W222)),
        "line-bundle": (cat.label_to_json(line), sheaf),
        "real-bundle": (cat.label_to_json(real), lambda data: cat.label_from_json(data, W222)),
        "exc-torsion": (cat.label_to_json(colors[1]), sheaf),
        "ord-torsion": (cat.label_to_json(cat.OrdTorsion("q", 2)), sheaf),
        "component": (comp.label_to_json(W311, z), component),
        "real-component": (
            comp.label_to_json(W222, real_z), lambda data: comp.label_from_json(data, W222)
        ),
        "hn-component": (comp.label_to_json(W311, hn), component),
        "graph": (cr.graph_to_json(graph), cr.graph_from_json),
    }


JSON_EXAMPLES = json_examples()

#: field names and texts the readers look for, so that drawn objects reach
#: past the first check; integers stay small, so no reader is asked for a
#: huge allocation (a multiplicity or a weight of 10**9)
JSON_KEYS = st.sampled_from([
    "kind", "x", "l", "residues", "r", "d", "m", "a", "i", "j", "pt", "class",
    "reduced", "bundle", "ordinary", "exceptional", "segs", "weights", "nodes",
    "edges", "colors", "complete", "source", "target", "color", "1,1", "1,2", "q",
])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.floats(-2, 2)
    | st.sampled_from(["line_bundle", "exc_torsion", "ord_torsion", "real_bundle",
                       "hn_leaf", "q", "1/2", "x"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_KEYS, children, max_size=5),
    max_leaves=12,
)


def json_paths(data, path=()):
    """The paths of every value nested in ``data``, ``data``'s own first."""
    yield path
    items = data.items() if type(data) is dict else (
        enumerate(data) if type(data) is list else ()
    )
    for key, value in items:
        yield from json_paths(value, path + (key,))


def replaced(data, path, value):
    """A copy of ``data`` with the value at ``path`` replaced, or dropped
    from its object or list when ``value`` is ``DROP``."""
    if not path:
        return value
    out = copy.copy(data)
    if len(path) == 1 and value is DROP:
        del out[path[0]]
    else:
        out[path[0]] = replaced(data[path[0]], path[1:], value)
    return out


DROP = object()


class TestJsonReaders:
    """A JSON reader returns its value or raises ``ValueError``, whatever
    JSON it is given: the CLI reports ``ValueError`` as exit 2."""

    @pytest.mark.parametrize("reader", JSON_EXAMPLES)
    def test_examples_read_back(self, reader):
        data, read = JSON_EXAMPLES[reader]
        read(copy.deepcopy(data))

    @pytest.mark.parametrize(
        "reader, data",
        [
            ("degree", {"l": 0}),
            ("degree", {"l": 0, "residues": 3}),
            ("class", {"r": 1, "d": 0, "m": [1]}),
            ("class", {"r": 1}),
            ("class", [1, 0]),
            ("line-bundle", {"kind": "line_bundle", "x": [0]}),
            ("real-bundle", {"kind": "real_bundle", "a": []}),
            ("hn-component", {"bundle": [{"kind": "hn_leaf"}], "ordinary": [],
                              "exceptional": []}),
            ("hn-component", {"bundle": [{"kind": "hn_leaf", "class": 1}], "ordinary": [],
                              "exceptional": []}),
            ("component", {"bundle": [], "ordinary": [],
                           "exceptional": [{"i": 1, "segs": [5]}]}),
            ("graph", {**JSON_EXAMPLES["graph"][0],
                       "colors": [{"kind": "real_bundle", "a": []}]}),
        ],
    )
    def test_malformed_fields_raise_value_error(self, reader, data):
        with pytest.raises(ValueError):
            JSON_EXAMPLES[reader][1](data)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(sorted(JSON_EXAMPLES)), st.data())
    def test_any_json_gives_a_value_or_value_error(self, reader, data):
        example, read = JSON_EXAMPLES[reader]
        path = data.draw(st.sampled_from(list(json_paths(example))))
        value = data.draw(json_values | st.just(DROP) if path else json_values)
        try:
            read(replaced(example, path, value))
        except ValueError:
            pass


#: Builds two small verified graphs (the P1 grid rules, and a (3,1,1)
#: torsion graph with a serial colour, which the oracle answers) and makes an
#: audited eps sample, which row-reduces over Q.
EXACT_RUN = """
import contextlib, importlib, io, pkgutil, sys
import loopcrystal
for info in pkgutil.iter_modules(loopcrystal.__path__):
    importlib.import_module("loopcrystal." + info.name)
from loopcrystal import cli, components as comp, oracle
from loopcrystal.starlattice import WeightData
for argv in (
    ["--colors", "O", "O(-1)", "--max-rank", "2", "--max-deg", "2"],
    ["--weights", "3,1,1", "--colors", "S[1,0](1)", "S[1,1](2)", "--max-delta", "1"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["crystal", "graph", "--seeds", "empty", "--verify", *argv]) == 0
curve = WeightData((3, 1, 1))
m = comp.multisegment(curve, 0, [(0, 2), (1, 1)])
oracle.eps_sample(curve, m, 0, 1, trials=2, audit=True)
"""


class TestImportCost:
    @staticmethod
    def _run(code: str, *flags: str) -> str:
        src = str(Path(loopcrystal.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, *flags, "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    def test_cli_import_leaves_out_dataclasses_and_inspect(self):
        assert self._run(
            "import loopcrystal.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        ) == "[]"

    def test_cli_import_without_site_leaves_out_typing(self):
        # -S: no site hook preloads a module, so each one listed here would
        # be loaded by the package itself
        assert self._run(
            "import loopcrystal.cli, sys; print(sorted("
            "{'typing', 'dataclasses', 'inspect', 'fractions'} & set(sys.modules)))",
            "-S",
        ) == "[]"

    def test_integer_marked_points_leave_out_fractions(self):
        # integer spellings parse without Fraction, in the library and the CLI
        assert self._run(
            "import argparse, sys; from loopcrystal import cli; "
            "cli.resolve_curve(argparse.Namespace(weights=None), "
            "{'weights': [2, 2, 2, 2, 2], 'lambda': ['0', 'inf', '1', '-3', '+7']}); "
            "print(sorted({'fractions'} & set(sys.modules)))",
            "-S",
        ) == "[]"

    def test_exact_arithmetic_leaves_out_fractions(self):
        # Q is computed in the integers; Fraction is only for rationals
        # returned to callers (genus, slopes), which this run asks for none of
        assert self._run(
            EXACT_RUN + "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))"
        ) == "[]"
