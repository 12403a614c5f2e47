"""Symbolic labels for indecomposable sheaves and their Hom/Ext calculus.

Four kinds of label:

* ``LineBundle(x)`` — the line bundle ``O(x)``.
* ``ExcTorsion(i, j, l)`` — the serial torsion sheaf at the weighted point
  ``i`` with head ``S_{i,j}`` and length ``l``; its composition factors are
  ``S_j, S_{j-1}, ..., S_{j-l+1}`` (indices mod ``p_i``).
* ``OrdTorsion(pt, dlen)`` — the unique indecomposable torsion sheaf of
  length ``dlen`` at an ordinary point named ``pt``.  Names compare as
  points (``starlattice.point_key``): ``1/2``, ``0.5`` and ``2/4`` are
  one point, other text is compared as text.
* ``RealBundle(a)`` — for weight sequences of genus < 1, the unique
  indecomposable bundle whose class is the rank > 0 positive real root ``a``.

Hom dimensions are combinatorial for line-bundle and torsion pairs; Ext is
everywhere computed from Hom by duality, ``ext(A, B) = hom(B, A(omega))``,
where twisting exceptional torsion by ``omega`` rotates heads ``j -> j-1``.
Pairs involving a ``RealBundle`` (other than a label with itself) are not
combinatorially determined here and raise ``unsupported pair``.
"""

from __future__ import annotations

import itertools

from . import ktheory as kt
from .starlattice import (
    LElement, Record, Shared, WeightData, json_fields, point_key, point_value,
)


class LineBundle(Record, Shared):
    __slots__ = ("x",)
    x: LElement


class ExcTorsion(Record):
    __slots__ = ("i", "j", "l")
    i: int
    j: int
    l: int


class OrdTorsion(Record):
    __slots__ = ("pt", "dlen")
    pt: str
    dlen: int


class RealBundle(Record):
    __slots__ = ("a",)
    a: kt.KClass


IndecLabel = LineBundle | ExcTorsion | OrdTorsion | RealBundle


def validate(curve: WeightData, label: IndecLabel) -> None:
    """Refuse, with ``ValueError``, a label that names no sheaf on ``curve``:
    a degree out of normal form, a length below 1, serial torsion at a
    point of weight 1, ordinary torsion at a weighted marked point in any
    spelling of the point (``T[0.5]`` at the marked point ``1/2``), ordinary
    torsion at a name that starts like a number (a digit, a sign or ``.``)
    but is no exact rational (``T[1/0]``, ``T[1e9]``), and a
    class that is not a real root of rank >= 2 for genus < 1.  Anything
    that is not a label raises ``TypeError``."""
    if isinstance(label, LineBundle):
        if curve.normalize(label.x.residues, l=label.x.l) != label.x:
            raise ValueError(f"degree {label.x} is not in normal form")
    elif isinstance(label, ExcTorsion):
        if not (0 <= label.i < curve.n) or curve.weights[label.i] == 1:
            raise ValueError("exceptional torsion needs a weighted point")
        if label.l < 1:
            raise ValueError("length must be positive")
    elif isinstance(label, OrdTorsion):
        if label.dlen < 1:
            raise ValueError("length must be positive")
        pt = label.pt
        # a name that starts like a number must spell an exact point
        if (type(pt) is str and (pt[:1].isdigit() or pt[:1] in ("+", "-", "."))
                and point_value(pt) is None):
            raise ValueError(f"point {pt!r} is not rational")
        i = curve.point_index(pt)
        if i is not None and curve.weights[i] > 1:
            raise ValueError(f"point {label.pt} is weighted: use S[i,j](l) for its torsion")
    elif isinstance(label, RealBundle):
        if curve.genus() >= 1:
            raise ValueError("real-root bundles are only labelled for genus < 1")
        if label.a.r < 1:
            raise ValueError("real-root bundle must have positive rank")
        if label.a.r == 1:
            raise ValueError("a real root of rank 1 is a line bundle: write it O(...)")
        # a class of rank >= 1 is positive (kt.is_positive)
        if kt.euler_form(curve, label.a, label.a) != 1:
            raise ValueError("class is not a real root")
    else:
        raise TypeError(f"not an indecomposable label: {label!r}")


def exc_torsion(curve: WeightData, i: int, j: int, l: int) -> ExcTorsion:
    """Normalized constructor: head reduced mod p_i."""
    if not (0 <= i < curve.n) or curve.weights[i] == 1:
        raise ValueError("exceptional torsion needs a weighted point")
    if l < 1:
        raise ValueError("length must be positive")
    return ExcTorsion(i, j % curve.weights[i], l)


def class_of(curve: WeightData, label: IndecLabel) -> kt.KClass:
    if isinstance(label, LineBundle):
        return kt.class_of_line_bundle(curve, label.x)
    if isinstance(label, ExcTorsion):
        return kt.class_of_serial(curve, label.i, label.j, label.l)
    if isinstance(label, OrdTorsion):
        return kt.class_of_ordinary_torsion(curve, label.dlen)
    if isinstance(label, RealBundle):
        return label.a
    raise TypeError(f"not an indecomposable label: {label!r}")


def twist(curve: WeightData, label: IndecLabel, x: LElement) -> IndecLabel:
    """The label of the twisted sheaf ``F(x)``.

    Exceptional torsion at point ``i`` only feels the residue of ``x`` there:
    the head rotates by ``res_i(x)``.  Ordinary torsion is fixed.
    """
    if isinstance(label, LineBundle):
        return LineBundle(curve.add(label.x, x))
    if isinstance(label, ExcTorsion):
        return exc_torsion(
            curve, label.i, label.j + x.residues[label.i], label.l
        )
    if isinstance(label, OrdTorsion):
        return label
    if isinstance(label, RealBundle):
        return RealBundle(kt.twist_class(curve, label.a, x))
    raise TypeError(f"not an indecomposable label: {label!r}")


def _count_congruent(lo: int, hi: int, residue: int, mod: int) -> int:
    """#{t in [lo, hi] : t = residue (mod mod)}."""
    if hi < lo:
        return 0
    first = lo + (residue - lo) % mod
    if first > hi:
        return 0
    return (hi - first) // mod + 1


def hom_dim(curve: WeightData, a: IndecLabel, b: IndecLabel) -> int:
    """Dimension of Hom(A, B) for combinatorially determined pairs."""
    if isinstance(a, RealBundle) or isinstance(b, RealBundle):
        if a == b:
            return 1  # exceptional bundle: scalar endomorphisms only
        raise ValueError("unsupported pair")
    if isinstance(a, LineBundle) and isinstance(b, LineBundle):
        return curve.dim_sections(curve.sub(b.x, a.x))
    if isinstance(a, LineBundle) and isinstance(b, ExcTorsion):
        # composition factors S_{j-k} of B receive O(x) when j-k matches the
        # residue of x at the point, once per aligned layer
        p = curve.weights[b.i]
        res = a.x.residues[b.i]
        return _count_congruent(0, b.l - 1, (b.j - res) % p, p)
    if isinstance(a, LineBundle) and isinstance(b, OrdTorsion):
        return b.dlen
    if isinstance(a, (ExcTorsion, OrdTorsion)) and isinstance(b, LineBundle):
        return 0
    if isinstance(a, ExcTorsion) and isinstance(b, ExcTorsion):
        if a.i != b.i:
            return 0
        p = curve.weights[a.i]
        return _count_congruent(
            1, min(a.l, b.l), (b.l + a.j - b.j) % p, p
        )
    if isinstance(a, ExcTorsion) and isinstance(b, OrdTorsion):
        return 0
    if isinstance(a, OrdTorsion) and isinstance(b, ExcTorsion):
        return 0
    if isinstance(a, OrdTorsion) and isinstance(b, OrdTorsion):
        return min(a.dlen, b.dlen) if point_key(a.pt) == point_key(b.pt) else 0
    raise ValueError("unsupported pair")


def ext_dim(curve: WeightData, a: IndecLabel, b: IndecLabel) -> int:
    """dim Ext^1(A, B) = dim Hom(B, A(omega)) by duality."""
    if isinstance(a, RealBundle) or isinstance(b, RealBundle):
        if a == b:
            return 0
        raise ValueError("unsupported pair")
    return hom_dim(curve, b, twist(curve, a, curve.omega()))


def is_rigid(curve: WeightData, label: IndecLabel) -> bool:
    return ext_dim(curve, label, label) == 0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def label_to_json(label: IndecLabel) -> dict:
    if isinstance(label, LineBundle):
        return {"kind": "line_bundle", "x": label.x.to_json()}
    if isinstance(label, ExcTorsion):
        return {"kind": "exc_torsion", "i": label.i + 1, "j": label.j, "l": label.l}
    if isinstance(label, OrdTorsion):
        return {"kind": "ord_torsion", "pt": label.pt, "d": label.dlen}
    if isinstance(label, RealBundle):
        return {"kind": "real_bundle", "a": label.a.to_json()}
    raise TypeError(f"not an indecomposable label: {label!r}")


def label_from_json(data: dict, curve: WeightData) -> IndecLabel:
    """Inverse of :func:`label_to_json`; other shapes and labels that
    :func:`validate` refuses raise ``ValueError``."""
    (kind,) = json_fields(data, "sheaf label", kind=str)
    if kind == "line_bundle":
        (x,) = json_fields(data, "line bundle label", x=dict)
        label = LineBundle(LElement.from_json(x))
    elif kind == "exc_torsion":
        i, j, l = json_fields(data, "torsion label", i=int, j=int, l=int)
        label = exc_torsion(curve, i - 1, j, l)
    elif kind == "ord_torsion":
        label = OrdTorsion(*json_fields(data, "torsion label", pt=str, d=int))
    elif kind == "real_bundle":
        (a,) = json_fields(data, "real bundle label", a=dict)
        label = RealBundle(kt.KClass.from_json(a, curve))
    else:
        raise ValueError(f"unknown label kind: {kind!r}")
    validate(curve, label)
    return label


def format_label(curve: WeightData, label: IndecLabel) -> str:
    if isinstance(label, LineBundle):
        return f"O({curve.format_element(label.x)})"
    if isinstance(label, ExcTorsion):
        return f"S[{label.i + 1},{label.j}]({label.l})"
    if isinstance(label, OrdTorsion):
        return f"T[{label.pt}]({label.dlen})"
    if isinstance(label, RealBundle):
        return f"E({kt.to_vector(label.a)})"
    raise TypeError(f"not an indecomposable label: {label!r}")


# ---------------------------------------------------------------------------
# real-root bundle enumeration (genus < 1)
# ---------------------------------------------------------------------------

def enumerate_real_bundles(curve: WeightData, coord_bound: int) -> list[RealBundle]:
    """Positive real roots with rank >= 2 inside the coordinate box.

    Searches ranks 2..coord_bound (a root of rank 1 is a line bundle),
    |d| <= coord_bound and torsion coordinates in the same box; only
    meaningful for genus < 1 where each such root carries a unique
    indecomposable bundle.
    """
    if curve.genus() >= 1:
        raise ValueError("real-root bundles are only labelled for genus < 1")
    found = []
    n_m = kt.lattice_rank(curve) - 2
    for r in range(2, coord_bound + 1):
        for d in range(-coord_bound, coord_bound + 1):
            for combo in itertools.product(
                range(-coord_bound, coord_bound + 1), repeat=n_m
            ):
                a = kt.from_vector(curve, [r, d, *combo])
                if kt.euler_form(curve, a, a) == 1 and kt.is_positive(curve, a):
                    found.append(RealBundle(a))
    return found
