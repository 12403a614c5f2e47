"""Labels for irreducible components of the global nilpotent cone.

A component label has three parts:

* ``bundle`` — the rank > 0 content: a multiset of line-bundle /
  real-root-bundle labels, or for tubular weight sequences an ``HNTree`` of
  semistable leaves with strictly decreasing slopes;
* ``ordinary`` — a partition describing torsion supported at unnamed
  ordinary points;
* ``exceptional`` — one aperiodic multisegment per weighted point,
  describing serial torsion there.

Multisegments are stored sparsely as multiplicities over segments ``[j; l)``
(head ``j``, length ``l``); the segment's composition factors are
``S_j, S_{j-1}, ..., S_{j-l+1}`` with indices mod ``p_i``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from functools import lru_cache, reduce

from . import catalog as cat, ktheory as kt
from .ktheory import segment_coverage
from .starlattice import Record, WeightData, json_fields, json_ints


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def partitions(n: int, max_part: int | None = None):
    """Weakly decreasing tuples summing to n."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else min(n, max_part)
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate(nu: tuple[int, ...]) -> tuple[int, ...]:
    if not nu:
        return ()
    return tuple(
        sum(1 for part in nu if part >= i) for i in range(1, nu[0] + 1)
    )


# ---------------------------------------------------------------------------
# multisegments
# ---------------------------------------------------------------------------

class Multisegment(Record):
    """Multiset of segments at one weighted point.

    ``pairs`` maps are stored as a sorted tuple of ((j, l), multiplicity)
    with j already reduced mod the weight and all multiplicities positive.
    """

    __slots__ = ("i", "pairs")
    i: int
    pairs: tuple[tuple[tuple[int, int], int], ...]

    def multiplicity(self, j: int, l: int) -> int:
        for (jj, ll), a in self.pairs:
            if (jj, ll) == (j, l):
                return a
        return 0

    def total_length(self) -> int:
        return sum(l * a for (_, l), a in self.pairs)

    def segments(self) -> list[tuple[int, int]]:
        """Segment list with multiplicity, e.g. [(j, l), (j, l), ...]."""
        out = []
        for (j, l), a in self.pairs:
            out.extend([(j, l)] * a)
        return out

    def is_empty(self) -> bool:
        return not self.pairs


def multisegment(
    curve: WeightData, i: int, segs: Iterable[tuple[int, int]]
) -> Multisegment:
    """Build a multisegment from a list of (head, length) with repetition;
    the point index ``i`` counts from 0."""
    return _counted_multisegment(curve, i, zip(segs, itertools.repeat(1)))


def _counted_multisegment(
    curve: WeightData, i: int, counted: Iterable[tuple[tuple[int, int], int]]
) -> Multisegment:
    """:func:`multisegment` from ``((head, length), multiplicity)`` pairs with
    positive multiplicities, which are added up, never expanded."""
    if not 0 <= i < curve.n or curve.weights[i] == 1:
        raise ValueError("multisegments live at weighted points")
    p = curve.weights[i]
    counts: dict[tuple[int, int], int] = {}
    for (j, l), a in counted:
        if l < 1:
            raise ValueError("segment length must be positive")
        key = (j % p, l)
        counts[key] = counts.get(key, 0) + a
    return Multisegment(i, tuple(sorted(counts.items())))


def dim_vector(curve: WeightData, m: Multisegment) -> tuple[int, ...]:
    p = curve.weights[m.i]
    total = [0] * p
    for (j, l), a in m.pairs:
        total = [t + a * c for t, c in zip(total, segment_coverage(p, j, l))]
    return tuple(total)


def is_aperiodic_for(curve: WeightData, m: Multisegment) -> bool:
    """Every length with segments present misses at least one head in Z/p."""
    p = curve.weights[m.i]
    by_length: dict[int, int] = {}
    for (j, l), _ in m.pairs:
        by_length[l] = by_length.get(l, 0) + 1
    return all(count < p for count in by_length.values())


def multisegment_class(curve: WeightData, m: Multisegment) -> kt.KClass:
    return kt.class_of_counts(curve, m.i, dim_vector(curve, m))


def aperiodic_multisegments(
    curve: WeightData, i: int, dims: tuple[int, ...]
) -> tuple[Multisegment, ...]:
    """All aperiodic multisegments at point ``i`` with the given dim vector.

    The result is sorted by ``pairs`` and shared between calls with equal
    arguments (see ``_aperiodic_multisegments``), hence a tuple.  This name
    stays a plain function in front of the memo, so that tools which wrap
    public functions (the ``perfbench`` tracer) still see every call.
    """
    return _aperiodic_multisegments(curve, i, tuple(dims))


# One entry per dimension vector reached in one CLI command (see
# ``crystal.clear_memos``) or by the direct calls made (see the docstring).
@lru_cache(maxsize=None)
def _aperiodic_multisegments(
    curve: WeightData, i: int, dims: tuple[int, ...]
) -> tuple[Multisegment, ...]:
    """Memo behind ``aperiodic_multisegments``, keyed on ``(curve, i, dims)``.

    The inversion tables ``crystal._ms_inverse`` of many colors and copy
    counts ask for the same dimension vector.  Only colors of length >= 2
    build such tables: length-1 colors raise by the signature rule and
    enumerate nothing.  The memo is
    unbounded, yet its size is bounded by the work it serves: one entry per
    distinct dimension vector that a budgeted graph build (``max_delta``,
    ``max_nodes``), a torsion-class enumeration or an oracle battery reaches.
    ``cli.main`` empties it before each command (``crystal.clear_memos``).
    """
    p = curve.weights[i]
    if len(dims) != p:
        raise ValueError("dimension vector length must equal the weight")
    total = sum(dims)
    if total == 0:
        return (Multisegment(i, ()),)
    # each segment with its coverage, sorted by length
    segs = [
        ((j, l), segment_coverage(p, j, l))
        for l in range(1, total + 1) for j in range(p)
    ]
    out: list[Multisegment] = []
    _fill_multisegments(curve, i, segs, 0, list(dims), [], out)
    return tuple(sorted(out, key=lambda m: m.pairs))


def _fill_multisegments(curve, i, segs, idx, remaining, chosen, out) -> None:
    """Append to ``out`` every aperiodic multisegment at point ``i`` made of
    the ``((head, length), multiplicity)`` pairs ``chosen`` and multiples of
    the ``(segment, coverage)`` pairs ``segs[idx:]`` that cover ``remaining``."""
    if all(v == 0 for v in remaining):
        m = Multisegment(i, tuple(sorted(chosen)))
        if is_aperiodic_for(curve, m):
            out.append(m)
        return
    if idx == len(segs):
        return
    seg, cov = segs[idx]
    if seg[1] > sum(remaining):
        # segs is sorted by length, so no later segment fits either
        return
    max_mult = min((r // c for r, c in zip(remaining, cov) if c), default=0)
    for mult in range(max_mult, -1, -1):
        if mult:
            nxt = [r - mult * c for r, c in zip(remaining, cov)]
            _fill_multisegments(curve, i, segs, idx + 1, nxt, chosen + [(seg, mult)], out)
        else:
            _fill_multisegments(curve, i, segs, idx + 1, remaining, chosen, out)


# ---------------------------------------------------------------------------
# component labels
# ---------------------------------------------------------------------------

class HNLeaf(Record):
    """A semistable leaf of a tubular label, kept as its class.

    No line-bundle twist takes a rank > 0 leaf to slope infinity, so the
    leaf stays symbolic ("unreduced" in JSON and display).
    """

    __slots__ = ("cls",)
    cls: kt.KClass


class HNTree(Record):
    __slots__ = ("leaves",)
    leaves: tuple[HNLeaf, ...]


BundlePart = tuple | HNTree


class ComponentLabel(Record):
    __slots__ = ("bundle", "ordinary", "exceptional")
    bundle: BundlePart
    ordinary: tuple[int, ...]
    exceptional: tuple[Multisegment, ...]


EMPTY = ComponentLabel((), (), ())


def component_label(
    curve: WeightData,
    bundle: Iterable | HNTree = (),
    ordinary: Iterable[int] = (),
    exceptional: Iterable[Multisegment] = (),
) -> ComponentLabel:
    """Canonicalize: sort the bundle multiset by ``repr``, the partition, the
    points.  Partition parts must be ints (bools and floats are refused with
    ``ValueError``, as in the JSON reader)."""
    if isinstance(bundle, HNTree):
        bpart: BundlePart = bundle
    else:
        bpart = tuple(sorted(bundle, key=repr))
        for lab in bpart:
            if not isinstance(lab, (cat.LineBundle, cat.RealBundle)):
                raise ValueError("bundle part takes rank > 0 labels only")
    nu = tuple(sorted(json_ints(ordinary, "partition"), reverse=True))
    if nu and nu[-1] < 1:
        raise ValueError("partition parts must be positive")
    excs = [m for m in exceptional if not m.is_empty()]
    if not excs:
        return ComponentLabel(bpart, nu, ())
    seen = set()
    for m in excs:
        if m.i in seen:
            raise ValueError("at most one multisegment per point")
        seen.add(m.i)
        if not 0 <= m.i < curve.n or curve.weights[m.i] == 1:
            raise ValueError("multisegments live at weighted points")
        if not is_aperiodic_for(curve, m):
            raise ValueError("multisegment is not aperiodic")
    return ComponentLabel(bpart, nu, tuple(sorted(excs, key=lambda m: m.i)))


def weight(curve: WeightData, z: ComponentLabel) -> kt.KClass:
    if isinstance(z.bundle, HNTree):
        parts = [leaf.cls for leaf in z.bundle.leaves]
    else:
        parts = [cat.class_of(curve, lab) for lab in z.bundle]
    parts += [multisegment_class(curve, m) for m in z.exceptional]
    return reduce(kt.add, parts, kt.class_of_ordinary_torsion(curve, sum(z.ordinary)))


def expected_dim(curve: WeightData, z: ComponentLabel) -> int:
    a = weight(curve, z)
    return -kt.euler_form(curve, a, a)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def label_to_json(curve: WeightData, z: ComponentLabel) -> dict:
    if isinstance(z.bundle, HNTree):
        bundle = [
            {"kind": "hn_leaf", "class": leaf.cls.to_json(), "reduced": False}
            for leaf in z.bundle.leaves
        ]
    else:
        bundle = [cat.label_to_json(lab) for lab in z.bundle]
    return {
        "bundle": bundle,
        "ordinary": list(z.ordinary),
        "exceptional": [
            {
                "i": m.i + 1,
                "segs": [[j, l, a] for (j, l), a in m.pairs],
            }
            for m in z.exceptional
        ],
    }


def label_from_json(data: dict, curve: WeightData) -> ComponentLabel:
    """Inverse of :func:`label_to_json`; other shapes raise ``ValueError``."""
    raw_bundle, ordinary, raw_excs = json_fields(
        data, "component label", bundle=list, ordinary=list, exceptional=list
    )
    head = raw_bundle[0] if raw_bundle else None
    if type(head) is dict and head.get("kind") == "hn_leaf":
        classes = [json_fields(item, "hn leaf", **{"class": dict})[0] for item in raw_bundle]
        bundle: BundlePart = HNTree(
            tuple(HNLeaf(kt.KClass.from_json(cls, curve)) for cls in classes)
        )
    else:
        bundle = tuple(cat.label_from_json(item, curve) for item in raw_bundle)
    excs = []
    for item in raw_excs:
        i, raw_segs = json_fields(item, "exceptional part", i=int, segs=list)
        counted = []
        for raw in raw_segs:
            j, l, a = json_ints(raw, "segment")
            if a < 1:
                raise ValueError(f"segment {raw} needs a positive multiplicity")
            counted.append(((j, l), a))
        excs.append(_counted_multisegment(curve, i - 1, counted))
    return component_label(curve, bundle, ordinary, excs)


def format_label(curve: WeightData, z: ComponentLabel) -> str:
    parts = []
    if isinstance(z.bundle, HNTree):
        leaves = ", ".join(
            f"unreduced{tuple(kt.to_vector(leaf.cls))}" for leaf in z.bundle.leaves
        )
        parts.append(f"hn[{leaves}]")
    elif z.bundle:
        parts.append(
            " + ".join(cat.format_label(curve, lab) for lab in z.bundle)
        )
    if z.ordinary:
        parts.append("nu=" + str(tuple(z.ordinary)))
    for m in z.exceptional:
        segs = " + ".join(
            (f"{a}*" if a > 1 else "") + f"[{j};{l})" for (j, l), a in m.pairs
        )
        parts.append(f"pt{m.i + 1}: {segs}")
    return "(" + ", ".join(parts) + ")" if parts else "(empty)"


# ---------------------------------------------------------------------------
# enumeration: torsion classes
# ---------------------------------------------------------------------------

def enumerate_torsion_components(
    curve: WeightData, a: kt.KClass
) -> list[ComponentLabel]:
    """All component labels of a positive rank-0 class.

    Splits ``a`` point by point: each weighted point absorbs ``t_i`` copies
    of delta into its local dimension vector (``t_i`` at the dependent head,
    ``m_{i,j} + t_i`` elsewhere), the rest of the delta-multiplicity becomes
    an ordinary partition; every choice is crossed with all aperiodic
    multisegments of the local dimension vectors.
    """
    if a.r != 0:
        raise ValueError("torsion enumeration needs a rank-0 class")
    if not kt.is_positive(curve, a):
        raise ValueError("class is not positive")
    weighted = [i for i, p in enumerate(curve.weights) if p > 1]
    t_mins = {
        i: max(0, max((-v for v in a.m[i]), default=0)) for i in weighted
    }
    out = []
    ranges = [range(t_mins[i], a.d - sum(t_mins.values()) + t_mins[i] + 1)
              for i in weighted]
    for t_combo in itertools.product(*ranges) if weighted else [()]:
        t_total = sum(t_combo)
        if t_total > a.d:
            continue
        ell = a.d - t_total
        per_point = []
        for idx, i in enumerate(weighted):
            t_i = t_combo[idx]
            p = curve.weights[i]
            dims = tuple(
                [t_i] + [a.m[i][j - 1] + t_i for j in range(1, p)]
            )
            per_point.append(aperiodic_multisegments(curve, i, dims))
        for nu in partitions(ell):
            for msegs in itertools.product(*per_point):
                out.append(
                    component_label(
                        curve, (), nu, [m for m in msegs if not m.is_empty()]
                    )
                )
    return sorted(
        out,
        key=lambda z: (z.ordinary, tuple((m.i, m.pairs) for m in z.exceptional)),
    )


# ---------------------------------------------------------------------------
# enumeration: genus < 1
# ---------------------------------------------------------------------------

def _line_bundle_candidates(curve, min_degree, deg_cap):
    """Line bundles O(x) with l >= min_degree and degree <= deg_cap."""
    out = []
    residue_ranges = [range(p) for p in curve.weights]
    for combo in itertools.product(*residue_ranges):
        base = curve.normalize(list(combo))
        res_deg = curve.degree_partial(base)
        l = min_degree
        while l * curve.p + res_deg <= deg_cap:
            out.append(curve.normalize(list(combo), l=l))
            l += 1
    return out


def enumerate_components_finite(
    curve: WeightData,
    a: kt.KClass,
    min_degree: int = 0,
    real_bundle_box: int | None = None,
) -> list[ComponentLabel]:
    """Component labels for genus < 1: bundle decompositions x torsion labels.

    The bundle part ranges over multisets of line bundles whose c-degree is
    at least ``min_degree`` (the family is infinite without a floor).  For
    weight sequences with at least three weighted points, rank >= 2 summands
    can be genuinely indecomposable; pass ``real_bundle_box`` to include
    real-root bundles from a bounded coordinate search, otherwise such inputs
    are refused rather than silently undercounted.  A rank-0 class lists its
    torsion labels, after the same checks.
    """
    if curve.genus() >= 1:
        raise ValueError("wrong regime: genus must be < 1")
    if not kt.is_positive(curve, a):
        raise ValueError("class is not positive")
    if real_bundle_box is not None and real_bundle_box < 2:
        # the box also caps the rank searched: a smaller one finds no
        # summand of rank >= 2, the undercount the refusal below prevents
        raise ValueError(
            f"real_bundle_box must be at least 2, got {real_bundle_box}"
        )
    if a.r == 0:
        return enumerate_torsion_components(curve, a)
    n_weighted = sum(1 for p in curve.weights if p > 1)
    summands: list[tuple[object, kt.KClass]] = []
    if a.r >= 2 and n_weighted >= 3:
        if real_bundle_box is None:
            raise ValueError(
                "unsupported family: rank >= 2 decompositions on a star with "
                ">= 3 weighted points need real_bundle_box for root search"
            )
        for rb in cat.enumerate_real_bundles(curve, real_bundle_box):
            if rb.a.r >= 2:
                summands.append((rb, rb.a))
    deg_cap = kt.degree_d(curve, a) - (a.r - 1) * curve.p * min_degree
    for x in _line_bundle_candidates(curve, min_degree, deg_cap):
        lab = cat.LineBundle(x)
        summands.append((lab, cat.class_of(curve, lab)))
    summands.sort(key=repr)
    results: list[ComponentLabel] = []
    _fill_finite(curve, summands, min_degree, 0, a, [], results)
    return sorted(set(results), key=repr)


def _fill_finite(curve, summands, min_degree, start, remaining, chosen, results):
    """Append to ``results`` the labels of :func:`enumerate_components_finite`
    whose bundle part is ``chosen`` plus a multiset of ``summands[start:]``."""
    if remaining.r == 0:
        if kt.is_positive(curve, remaining):
            for t in enumerate_torsion_components(curve, remaining):
                results.append(component_label(curve, chosen, t.ordinary, t.exceptional))
        return
    for k in range(start, len(summands)):
        lab, cls = summands[k]
        # all later bundle summands cost at least p*min_degree each
        if cls.r > remaining.r or kt.degree_d(curve, cls) > kt.degree_d(
            curve, remaining
        ) - (remaining.r - cls.r) * curve.p * min_degree:
            continue
        _fill_finite(
            curve, summands, min_degree, k, kt.sub(remaining, cls), chosen + [lab],
            results,
        )


# ---------------------------------------------------------------------------
# enumeration: tubular (genus = 1)
# ---------------------------------------------------------------------------

def enumerate_components_tubular(
    curve: WeightData,
    a: kt.KClass,
    slope_window: tuple | None = None,
    max_parts: int = 4,
) -> list[ComponentLabel]:
    """Labels built on Harder-Narasimhan types for genus-1 weight sequences.

    The optional leading slope-infinity part expands into its torsion labels;
    each rank > 0 semistable part stays a symbolic unreduced leaf (no
    line-bundle twist reaches slope infinity).
    """
    if curve.genus() != 1:
        raise ValueError("wrong regime: genus must be 1")
    if a.r == 0:
        # hn_types is not reached, yet its options must still admit a type
        kt.check_hn_options(slope_window, max_parts)
        return enumerate_torsion_components(curve, a)
    out = []
    for parts in kt.hn_types(curve, a, slope_window, max_parts):
        head = parts[0]
        if head.r == 0:
            torsion_labels = enumerate_torsion_components(curve, head)
            leaves = HNTree(tuple(HNLeaf(c) for c in parts[1:]))
        else:
            torsion_labels = [EMPTY]
            leaves = HNTree(tuple(HNLeaf(c) for c in parts))
        for t in torsion_labels:
            out.append(
                ComponentLabel(leaves, t.ordinary, t.exceptional)
            )
    return sorted(out, key=repr)
