"""Rank-one degree lattice of a weighted projective line.

A weighted projective line is specified by ``n >= 3`` integer weights
``p_1, ..., p_n`` (weight-1 entries are allowed and act as unweighted marked
points) together with labels for the marked points, which name pairwise
distinct points; the first three are always ``0``, ``inf``, ``1``.  A label
that spells an exact rational is that point of P^1, so ``1/2``, ``0.5`` and
``2/4`` are one point (:func:`point_value`, :meth:`WeightData.point_index`).

The degree lattice ``L`` is generated by classes ``x_1, ..., x_n`` subject to
``p_i x_i = p_j x_j``; the common value is the hyperplane class ``c``.  Every
element has a unique normal form ``l*c + sum l_i x_i`` with ``0 <= l_i < p_i``,
represented here by :class:`LElement`.  The dualizing class is
``omega = (n-2)c - sum_i x_i``.

Sections of the line bundle attached to ``x`` are monomials in the projective
coordinate algebra; their count is available both through the closed form
(:meth:`WeightData.dim_sections`) and through direct monomial enumeration
(:meth:`WeightData.monomial_count_oracle`), which exists so the closed form can
be cross-checked.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

TYPE_CHECKING = False  # type checkers read this as true; ``typing`` stays unloaded
if TYPE_CHECKING:
    from fractions import Fraction


class Shared:
    """Mixin of the shared records: the hash and repr of each instance,
    computed once when its value is first made.

    It sits outside :class:`Record`, so a record's ``__slots__`` still name
    only its fields.
    """

    __slots__ = ("_hash", "_repr")

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self._repr


class Record:
    """Base of the package's value classes: slotted records compared by value.

    A subclass names its fields, in order, in ``__slots__`` (annotated below
    it, for readers and type checkers) and gives any defaults in
    ``_defaults``.  Creating the subclass generates its
    ``__init__``, ``__repr__``, ``__eq__`` and ``__hash__`` once:

    - ``__eq__`` holds only between instances of the same class, field by
      field, and ``__hash__`` is the hash of the field tuple;
    - ``repr`` is ``Name(f=..., g=...)``, which callers sort by;
    - fields refuse assignment with ``AttributeError``, so a changed value
      is a new instance;
    - instances pickle and deep-copy as ``Name(*fields)``.

    A class that also derives from :class:`Shared` hands out one instance
    per value: its generated ``__new__`` looks the fields up, each with its
    type (so ``0`` and ``False`` stay apart), in a table of the class, and
    only on a miss fills a new instance, its hash and its repr text, which
    ``Shared`` then returns: one slot read (the class gets ``__new__`` and
    ``__eq__`` only).  A class with a ``_shareable(*fields)`` test stores
    only the instances that pass it; the others are made fresh per call.
    Pickle and deepcopy return the shared instance.
    Equality and hashing stay by value, so no caller may rely on identity.
    A table keeps one entry per value a run reaches, for the life of the
    process: on perfbench's p1-queries the ``LElement`` and
    ``catalog.LineBundle`` tables hold 6 entries after set-up and 13 after
    the job, where 7,040 and 9,896 unshared ``LineBundle`` objects were
    alive; torsion-graph reaches 2 ``LElement`` values.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        params = ", ".join(
            f"{n}=_defaults[{n!r}]" if n in cls._defaults else n for n in names
        )
        namespace = {"__name__": cls.__module__, "_defaults": cls._defaults}
        namespace.update((f"_set_{n}", vars(cls)[n].__set__) for n in names)
        # The slots are filled through their descriptors, which the refusing
        # __setattr__ does not see.
        stores = [f"    _set_{n}(self, {n})" for n in names]
        mine = "".join(f"self.{n}," for n in names)
        theirs = "".join(f"other.{n}," for n in names)
        shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
        text = f'f"{{self.__class__.__qualname__}}({shown})"'
        if issubclass(cls, Shared):
            namespace.update(
                _table={}, _new=object.__new__,
                _set_hash=Shared._hash.__set__, _set_repr=Shared._repr.__set__,
            )
            key = "".join(f"type({n}), {n}," for n in names)
            store = "        _table[key] = self"
            if hasattr(cls, "_shareable"):
                namespace["_shareable"] = cls._shareable
                store = f"        if _shareable({', '.join(names)}):\n    {store}"
            made = ["__new__"]
            create = [
                f"def __new__(cls, {params}):",
                f"    key = ({key})",
                "    self = _table.get(key)",
                "    if self is None:",
                "        self = _new(cls)",
                *[f"    {line}" for line in stores],
                f"        _set_hash(self, hash(({mine})))",
                f"        _set_repr(self, {text})",
                store,
                "    return self",
            ]
        else:
            made = ["__init__", "__repr__", "__hash__"]
            create = [
                f"def __init__(self, {params}):",
                *stores,
                "def __repr__(self):",
                f"    return {text}",
                "def __hash__(self):",
                f"    return hash(({mine}))",
            ]
        source = "\n".join([
            *create,
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({mine}) == ({theirs})",
            "    return NotImplemented",
        ])
        exec(source, namespace)
        for method in (*made, "__eq__"):
            function = namespace[method]
            function.__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method,
                    staticmethod(function) if method == "__new__" else function)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, n) for n in self.__slots__)


def json_ints(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple if each one is a JSON integer (not a bool or a
    float); anything else, a value that is no sequence included, raises
    ``ValueError``."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{what} must be JSON integers, got {values!r}") from None
    if any(type(v) is not int for v in values):
        raise ValueError(f"{what} must be JSON integers, got {list(values)!r}")
    return values


def json_fields(data, what: str, **kinds) -> tuple:
    """Values of the named fields of a JSON object, each of the given type.

    Anything else (not an object, a field missing or of another type) raises
    ``ValueError``, so a malformed file is refused instead of read as empty.
    """
    if type(data) is not dict:
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    for key, kind in kinds.items():
        if type(data.get(key)) is not kind:
            raise ValueError(f"{what} needs a {kind.__name__} field {key!r}")
    return tuple(data[key] for key in kinds)


def point_value(name):
    """The point of P^1 that ``name`` spells: ``math.inf`` for ``inf``, an
    ``int`` for an integer (so ``fractions`` stays unloaded), a ``Fraction``
    for ``a/b`` with ``b > 0`` or a decimal, each with at most one sign.
    Anything else, exponents and non-``str`` values included, gives
    ``None``; a number past ``int``'s digit limit raises ``ValueError``."""
    if type(name) is not str or not name.isascii():
        return None
    if name == "inf":
        return math.inf
    body = name[1:] if name[:1] in ("+", "-") else name
    if body.isdigit():
        return int(name)
    num, _, den = body.partition("/")
    whole, _, frac = body.partition(".")
    if (num.isdigit() and den.isdigit() and den.strip("0")) or (
        (whole or "0").isdigit() and frac.isdigit()
    ):
        from fractions import Fraction
        return Fraction(name)
    return None


def point_key(name):
    """:func:`point_value` of ``name``, or ``name`` if it spells no value."""
    value = point_value(name)
    return name if value is None else value


class LElement(Record, Shared):
    """Normal form ``l*c + sum_i residues[i] * x_i`` with ``0 <= residues[i] < p_i``.

    Only elements with int fields (not bools) are shared: the table keys
    ``(0.0, 0, 0)`` and ``(0, 0, 0)`` alike.
    """

    __slots__ = ("l", "residues")
    l: int
    residues: tuple[int, ...]

    @staticmethod
    def _shareable(l, residues) -> bool:
        return (type(l) is int and type(residues) is tuple
                and all(type(r) is int for r in residues))

    def to_json(self) -> dict:
        return {"l": self.l, "residues": list(self.residues)}

    @staticmethod
    def from_json(data: dict) -> "LElement":
        (residues,) = json_fields(data, "degree", residues=list)
        l, *residues = json_ints([data.get("l"), *residues], "degree coefficients")
        return LElement(l, tuple(residues))


class WeightData:
    """Weight sequence, marked-point labels, and lattice arithmetic.

    Parameters
    ----------
    weights : sequence of positive ints
        Padded on the right with 1s if fewer than three are given.
    labels : optional sequence of str
        Marked-point parameters.  The first three are forced to
        ``("0", "inf", "1")``; the rest default to ``lam4, lam5, ...``.  A
        label that :func:`point_value` reads is that point, any other text
        (``q``, ``1e3``) a name.  Two labels of one point raise
        ``ValueError`` (``marked points '1' and '2/2' coincide``).
    """

    def __init__(self, weights: Sequence[int], labels: Sequence[str] | None = None):
        ws = list(json_ints(weights, "weights"))
        if not ws:
            raise ValueError("at least one weight is required")
        if any(w < 1 for w in ws):
            raise ValueError("weights must be positive integers")
        while len(ws) < 3:
            ws.append(1)
        self.weights: tuple[int, ...] = tuple(ws)
        self.n = len(ws)
        self.p = math.lcm(*ws)
        fixed = ("0", "inf", "1")
        if labels is None:
            extra = tuple(f"lam{i + 1}" for i in range(3, self.n))
        else:
            labels = tuple(str(s) for s in labels)
            if len(labels) == self.n:
                if tuple(labels[:3]) != fixed:
                    raise ValueError("the first three point labels must be 0, inf, 1")
                extra = labels[3:]
            elif len(labels) == self.n - 3:
                extra = labels
            else:
                raise ValueError(
                    "labels must cover all points or exactly the points past the third"
                )
        self.labels: tuple[str, ...] = fixed[: min(3, self.n)] + extra
        if len(set(self.labels)) != self.n:
            raise ValueError("point labels must be pairwise distinct")
        self._points: dict = {}
        for i, label in enumerate(self.labels):
            key = point_key(label)
            if key in self._points:
                first = self.labels[self._points[key]]
                raise ValueError(f"marked points {first!r} and {label!r} coincide")
            self._points[key] = i
        self._hash = hash((self.weights, self.labels))
        self._normal_forms: dict[tuple[int, ...], LElement] = {}

    def point_index(self, name) -> int | None:
        """Index of the marked point that ``name`` denotes (by
        :func:`point_key`; a non-``str`` denotes none), or ``None``."""
        if type(name) is not str:
            return None
        return self._points.get(point_key(name))

    @property
    def regime(self) -> str:
        """``"finite"``, ``"tubular"`` or ``"wild"`` as the genus is below,
        at or above 1."""
        g = self.genus()
        return "finite" if g < 1 else ("tubular" if g == 1 else "wild")

    # -- basic elements -----------------------------------------------------

    def zero(self) -> LElement:
        return self.normalize((0,) * self.n)

    def c(self) -> LElement:
        """The hyperplane class ``c = p_i x_i``."""
        return self.normalize((0,) * self.n, l=1)

    def x(self, i: int) -> LElement:
        """The generator ``x_i`` (0-based point index)."""
        coeffs = [0] * self.n
        coeffs[i] = 1
        return self.normalize(coeffs)

    def omega(self) -> LElement:
        """The dualizing class ``(n-2)c - sum_i x_i``."""
        return self.normalize([-1] * self.n, l=self.n - 2)

    # -- arithmetic ---------------------------------------------------------

    def normalize(self, coeffs: Sequence[int], l: int = 0) -> LElement:
        """Normal form of ``l*c + sum_i coeffs[i] * x_i``.

        Equal classes return one shared :class:`LElement`; elements still
        compare and hash by value, so no caller may rely on identity.

        Entries that are not ints (bools count as ints) raise
        ``ValueError``.  A table of the curve maps each input ``(l,
        *coeffs)`` seen before to its element, one lookup.  One entry per
        distinct input: 6 after perfbench's set-up, 14 after p1-queries.
        """
        key = (l, *coeffs)
        for a in key:
            if not isinstance(a, int):
                raise ValueError(f"normal form needs int coefficients, got {a!r}")
        elem = self._normal_forms.get(key)
        if elem is None:
            elem = self._normal_forms[key] = self._reduce(coeffs, l)
        return elem

    def _reduce(self, coeffs: Sequence[int], l: int) -> LElement:
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")
        residues = []
        carry = l
        for a, p_i in zip(coeffs, self.weights):
            carry += a // p_i
            residues.append(a % p_i)
        return LElement(carry, tuple(residues))

    def add(self, a: LElement, b: LElement) -> LElement:
        return self.normalize(
            [x + y for x, y in zip(a.residues, b.residues)], l=a.l + b.l
        )

    def neg(self, a: LElement) -> LElement:
        return self.normalize([-r for r in a.residues], l=-a.l)

    def sub(self, a: LElement, b: LElement) -> LElement:
        return self.add(a, self.neg(b))

    def scale(self, k: int, a: LElement) -> LElement:
        return self.normalize([k * r for r in a.residues], l=k * a.l)

    # -- numerical invariants ----------------------------------------------

    def degree_partial(self, a: LElement) -> int:
        """The degree form with ``degree_partial(x_i) = p / p_i`` and value p on c."""
        return a.l * self.p + sum(
            r * (self.p // p_i) for r, p_i in zip(a.residues, self.weights)
        )

    def genus(self) -> Fraction:
        """Virtual genus ``1 + ((n-2)p - sum_i p/p_i) / 2``."""
        from fractions import Fraction
        s = sum(self.p // p_i for p_i in self.weights)
        return 1 + Fraction((self.n - 2) * self.p - s, 2)

    def is_effective(self, a: LElement) -> bool:
        """Whether ``a`` is a sum of nonnegative multiples of the ``x_i``.

        Writing ``a = l*c + sum l_i x_i`` in normal form, effectivity is
        equivalent to ``l >= 0``: the residues are already nonnegative, and the
        ``c``-part can be distributed as ``p_i``-fold multiples of any ``x_i``,
        while any representation with some negative coefficient borrows at
        least one ``c`` from the rest.
        """
        return a.l >= 0

    def dim_sections(self, a: LElement) -> int:
        """Dimension ``l + 1`` (normal form, if ``l >= 0``; else 0) of the section space."""
        return a.l + 1 if a.l >= 0 else 0

    def monomial_count_oracle(self, a: LElement) -> int:
        """Count monomials of degree ``a`` by direct enumeration.

        The coordinate algebra has the monomial basis
        ``X_1^{a_1} X_2^{a_2} prod_{i>=3} X_i^{a_i}`` with ``a_1, a_2 >= 0``
        free and ``0 <= a_i < p_i`` for ``i >= 3``.  Degrees of the remaining
        points force ``a_i = residues[i]`` for ``i >= 3``; this routine then
        scans ``a_1`` over its degree-bounded range and solves for ``a_2`` by
        lattice arithmetic.  No use is made of the closed dimension formula.
        """
        # Strip the forced exponents at the points past the second.
        rest = a
        for i in range(2, self.n):
            coeffs = [0] * self.n
            coeffs[i] = a.residues[i]
            rest = self.sub(rest, self.normalize(coeffs))
        if any(rest.residues[i] for i in range(2, self.n)):
            return 0
        deg = self.degree_partial(rest)
        if deg < 0:
            return 0
        d1 = self.p // self.weights[0]
        count = 0
        x1 = self.x(0)
        # a_1 * degree(x_1) cannot exceed the total degree.
        for a1 in range(deg // d1 + 1):
            y = self.sub(rest, self.scale(a1, x1))
            # y must equal a_2 * x_2 for some a_2 >= 0.
            if any(y.residues[i] for i in range(self.n) if i != 1):
                continue
            a2 = y.residues[1] + self.weights[1] * y.l
            if a2 >= 0:
                ys = self.scale(a2, self.x(1))
                if ys == y:
                    count += 1
        return count

    # -- misc ---------------------------------------------------------------

    def format_element(self, a: LElement) -> str:
        parts = []
        if a.l or not any(a.residues):
            parts.append(f"{a.l}c" if a.l != 1 else "c")
        for i, r in enumerate(a.residues):
            if r:
                parts.append(f"{r}x{i + 1}" if r != 1 else f"x{i + 1}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"WeightData(weights={self.weights}, labels={self.labels})"

    def __eq__(self, other):
        return (
            isinstance(other, WeightData)
            and self.weights == other.weights
            and self.labels == other.labels
        )

    def __hash__(self):
        return self._hash
