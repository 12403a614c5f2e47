"""Crystal operators on nilpotent-cone component labels.

The operators are indexed by rigid indecomposable sheaves ("colors") and act
on :class:`~loopcrystal.components.ComponentLabel` values:

* ``epsilon(Z, I)`` — the generic number of copies of ``I`` inside the kernel
  of a Higgs field on the component ``Z``;
* ``f_max(Z, I)`` — the label of the generic quotient by all those copies;
* ``e_s(Zp, I, s)`` — the inverse of ``f_max``;
* ``f``, ``e`` — the single steps ``e_s(f_max(Z, I), I, epsilon(Z, I) -/+ 1)``;
* ``phi(Z, I) = epsilon(Z, I) + <[I], wt(Z)>`` through the Euler form.

Two color families carry computable rules.  :func:`_dispatch` is the one
place that picks a family: it reads the state a color acts on out of the
label and returns the family's rules, which map states to states, so each
operator call writes one label; the quotient rule reports epsilon too, so
``f``, ``e`` and ``f_max`` make one rule call for both.  The operators
decide the two rules that hold for every color, so no family rule checks
them: ``f_max`` is the identity at epsilon 0 (no quotient is sampled), and
``e_s`` inverts it only on its image, the labels with epsilon 0.
Exceptional-torsion colors act on the multisegment at their point (bundle
and ordinary parts are inert since torsion admits no maps to bundles):
length-1 colors through Kashiwara's signature rule (:func:`_signature`),
longer serial colors through the randomized oracle module and an inversion
table for ``e_s``.  Line-bundle
colors act on the degrees and the ordinary partition of labels whose bundle
part is a multiset of c-multiples ``O(d*c)`` with no exceptional torsion
present; kernel degrees follow one closed rule on the section counts of the
kernel (see :func:`_kernel_degrees`), and generic quotients follow an
interlacing rule on the degrees plus a raise-and-scatter rule on the ordinary
partition.  Anything else refuses loudly rather than guessing.

``build_graph`` closes a seed set under ``e``/``f`` inside a weight budget,
``verify_axioms`` replays the structural identities on every node and edge,
and ``connectivity_path`` emits an explicit operator walk from a supported
label down to the empty component.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from collections.abc import Iterable
from functools import cache, lru_cache, partial

from . import catalog as cat, components as comp, ktheory as kt, oracle
from .components import ComponentLabel, HNTree, Multisegment
from .starlattice import Record, WeightData, json_fields

UNSUPPORTED = "unsupported component family"
NON_RIGID = "non-rigid operator index"

#: draws per sampled stratum: a draw over GF(2^61 - 1) is non-generic with
#: probability at most deg / (2^61 - 2) (see :func:`oracle.sample_generic`)
ORACLE_TRIALS = 1


# ---------------------------------------------------------------------------
# color vetting and dispatch
# ---------------------------------------------------------------------------

# One entry per colour vetted in one CLI command (see :func:`clear_memos`), so
# bounded by its colour list, or by the direct calls made.  A refused colour
# raises and is not stored.
@lru_cache(maxsize=None)
def _check_color(curve: WeightData, color) -> None:
    cat.validate(curve, color)
    if not cat.is_rigid(curve, color):
        raise ValueError(NON_RIGID)


def _dispatch(curve: WeightData, z: ComponentLabel, color):
    """The state of ``z`` that the colour acts on, and the family's rules
    ``(eps, fmax, es, hom, label)`` on it: ``fmax`` maps a state to its
    epsilon and quotient state from one derivation of the kernel copies,
    ``es`` maps a state and a copy count to a state, and ``label(curve, z,
    state)`` writes a state back."""
    _check_color(curve, color)
    if isinstance(z.bundle, HNTree):
        raise ValueError(UNSUPPORTED)
    if isinstance(color, cat.ExcTorsion):
        if color.l == 1:
            return _ms_at(z, color.i), (_bra_eps, _bra_fmax, _bra_es, _exc_hom, _with_ms)
        return _ms_at(z, color.i), (_exc_eps, _exc_quotient, _exc_es, _exc_hom, _with_ms)
    if isinstance(color, cat.LineBundle):
        if any(color.x.residues) or z.exceptional:
            raise ValueError(UNSUPPORTED)
        for lab in z.bundle:
            if not isinstance(lab, cat.LineBundle) or any(lab.x.residues):
                raise ValueError(UNSUPPORTED)
        return _grid_parts(z), (_grid_eps, _grid_fmax, _grid_es, _grid_hom, _grid_label)
    raise ValueError(UNSUPPORTED)


def _ms_at(z: ComponentLabel, i: int) -> Multisegment:
    for m in z.exceptional:
        if m.i == i:
            return m
    return Multisegment(i, ())


def _with_ms(curve: WeightData, z: ComponentLabel, m: Multisegment) -> ComponentLabel:
    rest = [other for other in z.exceptional if other.i != m.i]
    if not m.is_empty():
        rest.append(m)
    return comp.component_label(curve, z.bundle, z.ordinary, rest)


# ---------------------------------------------------------------------------
# multisegment rules (exceptional-torsion colors)
# ---------------------------------------------------------------------------

def _signature(p: int, segments: list[tuple[int, int]], v: int):
    """Kashiwara's signature rule for the length-1 colour at vertex ``v``.

    A copy whose socle sits at ``v`` is removable, one whose socle sits at
    ``v + 1`` is extendable.  Scanned longest first, extendables before
    removables of equal length, each extendable is pushed and each removable
    pops the last one pushed.  Returns the indices of the removables left over
    (``epsilon`` counts them, ``f_max`` shortens them) and of the extendables
    left on the stack, longest first (``e`` lengthens the first).
    """
    left, stack = [], []
    for _, removable, idx in sorted(
        (-l, (j - l + 1 - v) % p == 0, idx)
        for idx, (j, l) in enumerate(segments)
        if (j - l + 1 - v) % p in (0, 1)
    ):
        if not removable:
            stack.append(idx)
        elif stack:
            stack.pop()
        else:
            left.append(idx)
    return left, stack


def _bra_eps(curve: WeightData, m: Multisegment, color) -> int:
    left, _ = _signature(curve.weights[color.i], m.segments(), color.j)
    return len(left)


def _bra_fmax(curve: WeightData, m: Multisegment, color) -> tuple[int, Multisegment]:
    """Epsilon and ``m`` with its removables shortened, from one scan."""
    segments = m.segments()
    left, _ = _signature(curve.weights[color.i], segments, color.j)
    if not left:
        return 0, m
    for idx in left:
        head, length = segments[idx]
        segments[idx] = (head, length - 1)
    return len(left), comp.multisegment(curve, color.i, [seg for seg in segments if seg[1]])


def _bra_es(curve: WeightData, m: Multisegment, color, s: int) -> Multisegment:
    p, v = curve.weights[color.i], color.j
    segments = m.segments()
    for _ in range(s):
        _, stack = _signature(p, segments, v)
        if stack:
            head, length = segments[stack[0]]
            segments[stack[0]] = (head, length + 1)
        else:
            segments.append((v, 1))
    return comp.multisegment(curve, color.i, segments)


# Sampled generic kernel type of ``m`` (one draw); one entry per multisegment
# visited in one CLI command (see :func:`clear_memos`), so bounded by its graph
# budget, or by the direct calls made.
@lru_cache(maxsize=None)
def _ms_kernel_type(curve: WeightData, m: Multisegment) -> Multisegment:
    return oracle.kernel_type_sample(
        curve, m, trials=ORACLE_TRIALS, seed=f"ker:{m.pairs}"
    )


def _exc_eps(curve: WeightData, m: Multisegment, color) -> int:
    if m.is_empty():
        return 0
    return oracle.rk_embeddings(
        curve.weights[m.i], _ms_kernel_type(curve, m), color.j, color.l
    )


# One entry per multisegment, color and copy count ``s >= 1`` visited in one
# CLI command (bounded as above): :func:`_exc_quotient` skips it at epsilon 0.
@lru_cache(maxsize=None)
def _exc_fmax(curve: WeightData, m: Multisegment, color, s: int) -> Multisegment:
    # the kernel's seed: the copies embed into the kernel of the same pair
    return oracle.quotient_type_sample(
        curve, m, color.j, color.l, s,
        trials=ORACLE_TRIALS,
        seed=f"ker:{m.pairs}",
    )


def _exc_quotient(curve: WeightData, m: Multisegment, color) -> tuple[int, Multisegment]:
    s = _exc_eps(curve, m, color)
    return s, _exc_fmax(curve, m, color, s) if s else m


# The inversion table of one raised dimension vector: the ``f_max`` of each
# candidate with ``epsilon = s``, mapped to that candidate, or to ``None``
# when two candidates share it.  One entry per dimension vector, color and
# copy count visited in one CLI command (bounded as above), so the
# candidates of a dimension vector are walked once, not once per target.
@lru_cache(maxsize=None)
def _ms_inverse(
    curve: WeightData, dims: tuple[int, ...], color, s: int
) -> dict[Multisegment, Multisegment | None]:
    table = {}
    for cand in comp.aperiodic_multisegments(curve, color.i, dims):
        if _exc_eps(curve, cand, color) == s:
            fmax = _exc_fmax(curve, cand, color, s)
            table[fmax] = None if fmax in table else cand
    return table


def _exc_es(curve: WeightData, target: Multisegment, color, s: int) -> Multisegment:
    cov = comp.segment_coverage(curve.weights[color.i], color.j, color.l)
    dims = tuple(d + s * c for d, c in zip(comp.dim_vector(curve, target), cov))
    table = _ms_inverse(curve, dims, color, s)
    if target not in table:
        raise ValueError("no preimage found")
    if table[target] is None:
        raise ValueError("ambiguous preimage")
    return table[target]


def _exc_hom(curve: WeightData, m: Multisegment, color) -> int:
    if m.is_empty():
        return 0
    return sum(
        mult * cat.hom_dim(curve, color, cat.ExcTorsion(color.i, head, length))
        for (head, length), mult in _ms_kernel_type(curve, m).pairs
    )


# ---------------------------------------------------------------------------
# c-grid rules (line-bundle colors)
# ---------------------------------------------------------------------------

def _grid_parts(z: ComponentLabel) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(sorted((lab.x.l for lab in z.bundle), reverse=True)), z.ordinary


def _line_color(curve: WeightData, d: int) -> cat.LineBundle:
    return cat.LineBundle(curve.normalize([0] * curve.n, l=d))


def _grid_label(curve: WeightData, z: ComponentLabel, state) -> ComponentLabel:
    degs, nu = state
    return comp.component_label(curve, [_line_color(curve, d) for d in degs], nu, ())


# One entry per shape up to twist (normalised to minimum degree 0), so
# bounded by the twist classes of the shapes one CLI command (see
# :func:`clear_memos`) or the direct calls reach.
@lru_cache(maxsize=None)
def _twist_kernel(shape: tuple[int, ...]) -> tuple[int, ...]:
    def hom(a):
        return max(
            sum(max(0, b - a + 1) - (b >= d + 2) * max(0, b - a - 1)
                for b in shape if b >= d)
            for d in shape
        )

    rank = max(sum(d <= b <= d + 1 for b in shape) for d in shape)
    return oracle._kernel_scan(hom, rank, shape, "kernel rule")[0]


def _kernel_degrees(curve: WeightData, degs: tuple[int, ...]) -> tuple[int, ...]:
    """Degree multiset of the generic Higgs kernel on ``V = O(b1 c) + ... +
    O(bn c)``, for degrees sorted in descending order.

    ``dim Hom(O(a), ker)`` is the maximum over the degrees ``d`` of ``V`` of
    ``sum_{b >= d} max(0, b - a + 1) - sum_{b >= d + 2} max(0, b - a - 1)``.

    Lemma: each term bounds ``dim Hom(O(a), ker θ)`` from below for every
    Higgs field θ, not only a generic one.  θ maps ``V_{>= d}`` into
    ``V_{>= d + 2}(-2)``, as ``Hom(O(b), O(b' - 2)) = 0`` for ``b' < b + 2``,
    so ``Hom(O(a), ker θ)`` holds the kernel of ``Hom(O(a), V_{>= d}) ->
    Hom(O(a), V_{>= d + 2}(-2))``, whose dimensions are the two sums.  A
    generic field has the least kernel, so a field that attains the bound at
    every ``a`` is a proof of the rule for its shape.

    The rank is the most summands in one window ``[d, d + 1]``; ``hom(a) -
    hom(a + 1)`` counts the summands of degree >= ``a``.  Exactness for a
    generic field is checked, not proved: the rule equals the sampled
    :func:`oracle.p1_kernel_profile` on every shape with 1-7 summands and
    spread <= 10.  A twist shifts the kernel, so the rule runs on the shape
    moved to minimum degree 0.  Weighted curves answer only rank 1 (spread
    chains: the top) and rank ``len(V)`` (one summand, adjacent stacks:
    everything), the shapes whose kernels transfer verbatim in c-units.
    """
    if not degs:
        return degs
    low = degs[-1]
    kernel = tuple(d + low for d in _twist_kernel(tuple(d - low for d in degs)))
    if curve.p > 1 and len(kernel) not in (1, len(degs)):
        raise ValueError(UNSUPPORTED)
    return kernel


def _decremented(
    curve: WeightData, degs: tuple[int, ...], nu: tuple[int, ...]
) -> list[list]:
    """Kernel entries as ``[current, underlying, hits]`` after the ordinary
    torsion's vanishing conditions, one per ``nu`` part, each lowering the
    currently-largest entry (ties prefer the already-lowered entry: the
    conditions keep eating the same summand before starting on a fresh one).
    """
    entries = [[d, d, []] for d in _kernel_degrees(curve, degs)]
    for cond in range(len(nu)):
        if not entries:
            break
        best = max(entries, key=lambda e: (e[0], len(e[2]), -e[1]))
        best[0] -= 1
        best[2].append(cond)
    return entries


def _grid_eps(curve: WeightData, state, color) -> int:
    return sum(1 for e in _decremented(curve, *state) if e[0] >= color.x.l)


def _grid_hom(curve: WeightData, state, color) -> int:
    a = color.x.l
    entries = _decremented(curve, *state)
    return sum(max(0, e[1] - a + 1 - len(e[2])) for e in entries)


def _interlace_min(p_und: tuple[int, ...], a: int) -> tuple[int, ...]:
    """Dominance-minimal degrees ``c`` of length ``len(p_und) - 1`` with
    ``sum(c) = sum(p_und) - a`` and ``c_k >= p_und[k + 1]`` (sorted)."""
    floors = sorted(p_und[1:], reverse=True)
    total = sum(p_und) - a
    level = min(floors)
    while sum(max(f, level + 1) for f in floors) <= total:
        level += 1
    values = [max(f, level) for f in floors]
    leftover = total - sum(values)
    at_level = [k for k, v in enumerate(values) if v == level]
    for k in at_level[:leftover]:
        values[k] += 1
    return tuple(sorted(values, reverse=True))


def _multiset_minus(whole: tuple[int, ...], part: Iterable[int]) -> list[int]:
    counts = Counter(whole)
    counts.subtract(part)
    if min(counts.values(), default=0) < 0:
        raise AssertionError("multiset difference went negative")
    return list(counts.elements())


def _grid_ftilde(curve: WeightData, degs, nu, a: int):
    """Epsilon under ``O(a)`` and the state one quotient step reaches
    (``None`` at epsilon 0) from one :func:`_decremented` pass: the
    participants are the copies :func:`_grid_eps` counts."""
    entries = _decremented(curve, degs, nu)
    participants = [e for e in entries if e[0] >= a]
    if not participants:
        return 0, None
    # the quotient mechanism consumes kernel summands out of the bundle; a
    # saturated kernel with splitting degrees outside the summand multiset
    # (possible for wide numeric shapes) has no combinatorial quotient here
    if Counter(e[1] for e in participants) - Counter(degs):
        raise ValueError(UNSUPPORTED)
    if len(participants) >= 2:
        p_und = tuple(sorted((e[1] for e in participants), reverse=True))
        newdegs = _multiset_minus(degs, p_und)
        newdegs.extend(_interlace_min(p_und, a))
        return len(participants), (tuple(sorted(newdegs, reverse=True)), nu)
    entry = participants[0]
    consumed, raises = entry[1], set(entry[2])
    scatter = (consumed - a) - len(raises)
    if scatter < 0:
        raise AssertionError("quotient budget went negative")
    new_nu = [part + (1 if k in raises else 0) for k, part in enumerate(nu)]
    new_nu.extend([1] * scatter)
    return 1, (
        tuple(sorted(_multiset_minus(degs, [consumed]), reverse=True)),
        tuple(sorted(new_nu, reverse=True)),
    )


def _grid_fmax(curve: WeightData, state, color):
    """Epsilon and the state after that many quotient steps; each step's
    epsilon comes with the next step, so ``s`` steps make ``s + 1`` calls."""
    s, nxt = _grid_ftilde(curve, *state, color.x.l)
    for want in reversed(range(s)):
        state = nxt
        eps, nxt = _grid_ftilde(curve, *state, color.x.l)
        if eps != want:
            # a step that does not lower epsilon by exactly one: outside the grid rules
            raise ValueError(UNSUPPORTED)
    return s, state


def _submultisets(counts: Counter):
    """All sub-multisets of a multiset, as sorted-descending tuples."""
    values = sorted(counts)
    picks = [range(counts[v] + 1) for v in values]
    for choice in itertools.product(*picks):
        out = []
        for v, k in zip(values, choice):
            out.extend([v] * k)
        yield tuple(sorted(out, reverse=True))


def _step_candidates(degs, nu, a: int):
    """States that one generic-quotient step may take to ``(degs, nu)``.

    The two quotient mechanisms read backwards: re-insert a consumed summand
    and un-raise/un-scatter the partition, or un-interlace a sub-multiset of
    the degrees.  :func:`_grid_es` replays the forward step on each, so
    over-generation is harmless.
    """
    # reversed single-consumption: some parts were raised, some 1s scattered
    part_counts = Counter(v for v in nu if v >= 2)
    ones = sum(1 for v in nu if v == 1)
    for raised in _submultisets(part_counts):
        for scattered in range(ones + 1):
            consumed = a + len(raised) + scattered
            pre_nu = _multiset_minus(nu, raised + (1,) * scattered)
            pre_nu += [v - 1 for v in raised]
            yield (
                tuple(sorted(degs + (consumed,), reverse=True)),
                tuple(sorted(pre_nu, reverse=True)),
            )
    # reversed interlacing: a sub-multiset of the degrees was produced from
    # one more participant; participant degrees are pinned between the color
    # and the produced degrees
    for produced in _submultisets(Counter(degs)):
        if not produced:
            continue
        rest = _multiset_minus(degs, produced)
        tails = [range(a, c + 1) for c in produced]
        for tail in itertools.product(*tails):
            top = sum(produced) + a - sum(tail)
            parts = tuple(sorted((top,) + tail, reverse=True))
            if parts[0] != top or top < a:
                continue
            if _interlace_min(parts, a) != produced:
                continue
            yield tuple(sorted(rest + list(parts), reverse=True)), nu


def _grid_es(curve: WeightData, start, color, s: int):
    """The state with ``epsilon = s`` whose ``f_max`` is ``start``: step ``k``
    keeps the candidates with epsilon ``k`` that one quotient step takes into
    the frontier of step ``k - 1``."""
    a = color.x.l
    frontier = {start}
    skipped = False
    for step in range(1, s + 1):
        grown = set()
        for target in frontier:
            for degs, nu in _step_candidates(*target, a):
                try:
                    if _grid_ftilde(curve, degs, nu, a) == (step, target):
                        grown.add((degs, nu))
                except ValueError as err:
                    if str(err) != UNSUPPORTED:
                        raise
                    skipped = True
        frontier = grown
    if not frontier:
        raise ValueError(UNSUPPORTED if skipped else "no preimage found")
    if len(frontier) > 1:
        raise ValueError("ambiguous preimage")
    return frontier.pop()


# ---------------------------------------------------------------------------
# the operators
# ---------------------------------------------------------------------------

def epsilon(curve: WeightData, z: ComponentLabel, color) -> int:
    """Generic number of copies of the color inside the kernel of the Higgs
    field on ``z`` (the number of times ``f`` applies)."""
    state, (eps, _, _, _, _) = _dispatch(curve, z, color)
    return eps(curve, state, color)


def phi(curve: WeightData, z: ComponentLabel, color) -> int:
    return epsilon(curve, z, color) + kt.euler_form(
        curve, cat.class_of(curve, color), comp.weight(curve, z)
    )


def hom_into_kernel(curve: WeightData, z: ComponentLabel, color) -> int:
    """Auxiliary count dim Hom(color, generic kernel) — at least ``epsilon``.

    For torsion colors the kernel type is sampled; for grid colors it is the
    section count of the decremented kernel summands.
    """
    state, (_, _, _, hom, _) = _dispatch(curve, z, color)
    return hom(curve, state, color)


def f_max(curve: WeightData, z: ComponentLabel, color) -> ComponentLabel:
    """Label of the generic quotient of ``z`` by all kernel copies of the
    color; ``z`` itself at epsilon 0, where no label is written and no
    quotient is sampled."""
    state, (_, fmax, _, _, label) = _dispatch(curve, z, color)
    s, state = fmax(curve, state, color)
    return label(curve, z, state) if s else z


def e_s(curve: WeightData, zp: ComponentLabel, color, s: int) -> ComponentLabel:
    """The unique label with ``epsilon = s`` whose ``f_max`` is ``zp``.

    A target with ``epsilon > 0`` is refused here, for every family ("no
    preimage found"): ``f_max`` always lands at epsilon 0.  Length-1 torsion
    colors apply the signature rule's ``e`` ``s`` times.  Longer serial
    colors and line-bundle colors search the candidates of the shifted
    class; zero or multiple matches raise ("no preimage found" / "ambiguous
    preimage" — both would signal a rule bug, never expected behavior).
    """
    if s < 0:
        raise ValueError("negative copy count")
    state, (eps, _, es, _, label) = _dispatch(curve, zp, color)
    if s == 0:
        return zp
    if eps(curve, state, color):
        raise ValueError("no preimage found")
    return label(curve, zp, es(curve, state, color, s))


def _step(curve: WeightData, z: ComponentLabel, color, k: int) -> ComponentLabel | None:
    """``e_s(f_max(z), epsilon + k)``, or ``None`` when ``epsilon + k < 0``:
    ``f`` at ``k = -1``, ``e`` at ``k = 1``.  One ``fmax`` call gives
    epsilon and the quotient state (none sampled at epsilon 0), and ``es`` is
    called only on that state, at epsilon 0, so it needs none of
    :func:`e_s`'s refusal."""
    state, (_, fmax, es, _, label) = _dispatch(curve, z, color)
    s, state = fmax(curve, state, color)
    if s + k < 0:
        return None
    if s + k:
        state = es(curve, state, color, s + k)
    return label(curve, z, state)


def f(curve: WeightData, z: ComponentLabel, color) -> ComponentLabel | None:
    """Single lowering step; ``None`` encodes the crystal zero (at epsilon 0)."""
    return _step(curve, z, color, -1)


def e(curve: WeightData, z: ComponentLabel, color) -> ComponentLabel:
    """Single raising step (always defined)."""
    return _step(curve, z, color, 1)


def clear_memos() -> None:
    """Empty the operator memos, the multisegment enumerator memo and the
    oracle's one-entry stratum model cache.

    ``cli.main`` calls this before each command, so every command starts
    with empty memos, in one process or many.  Direct callers keep their
    memos across calls until they call this.
    """
    for memo in (
        _check_color, _ms_kernel_type, _exc_fmax, _ms_inverse,
        _twist_kernel, comp._aperiodic_multisegments, oracle._stratum_model,
    ):
        memo.cache_clear()


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

class Budget(Record):
    """Weight-window bounds for graph growth.

    ``max_deg`` is measured in c-units (the linearized degree divided by the
    common weight multiple).  ``max_delta``, when set, restricts to rank-0
    classes that fit under ``max_delta`` copies of the ordinary-point class.
    ``max_nodes`` is a hard size cap; hitting it flags the graph incomplete.
    """

    __slots__ = ("max_rank", "max_deg", "max_delta", "max_nodes")
    _defaults = dict.fromkeys(__slots__)
    max_rank: int | None
    max_deg: int | None
    max_delta: int | None
    max_nodes: int | None

    def admits(self, curve: WeightData, a: kt.KClass) -> bool:
        if self.max_rank is not None and a.r > self.max_rank:
            return False
        if self.max_deg is not None and abs(kt.degree_d(curve, a)) > self.max_deg * curve.p:
            return False
        if self.max_delta is None:
            return True
        return a.r == 0 and kt.is_positive(
            curve, kt.sub(kt.scale(self.max_delta, kt.delta_class(curve)), a)
        )

    def stops_raising(self, curve: WeightData, classes) -> bool:
        """Whether the window ends every walk by the colour ``classes``.

        A search by ``e`` and ``f`` moves by integer combinations of the
        classes.  ``max_nodes`` and ``max_delta`` bound every walk.  The other
        two fields bound only the rank and the degree, so a combination that
        leaves the set fields unchanged must leave the rank and the degree
        unchanged too: the rows ``(rank, degree)`` of the classes have the
        same rank over Q as their columns that a set field keeps.  With two
        columns that rank is closed: a nonzero 2x2 minor makes it 2, which
        only both columns keep; otherwise the rows are proportional, and a
        kept column keeps their rank when it has a nonzero entry or every row
        is zero.  For one (nonzero) class this says that a set field changes
        it.
        """
        if self.max_nodes is not None or self.max_delta is not None:
            return True
        bounds = (self.max_rank, self.max_deg)
        rows = [(a.r, kt.degree_d(curve, a)) for a in classes]
        if any(r * d2 != d * r2 for (r, d), (r2, d2) in itertools.combinations(rows, 2)):
            return None not in bounds
        return not any(map(any, rows)) or any(
            x for row in rows for x, b in zip(row, bounds) if b is not None
        )


class CrystalGraph(Record):
    """Colored graph: an edge ``(src, tgt, color)`` means ``f_color(src) = tgt``."""

    __slots__ = ("curve", "nodes", "edges", "colors", "complete")
    _defaults = {"complete": True}
    curve: WeightData
    nodes: tuple[ComponentLabel, ...]
    edges: tuple[tuple[ComponentLabel, ComponentLabel, object], ...]
    colors: tuple[object, ...]
    complete: bool


def build_graph(
    curve: WeightData,
    seeds: Iterable[ComponentLabel],
    colors: Iterable,
    budget: Budget = Budget(),
) -> CrystalGraph:
    """Close the seeds under ``e`` and ``f`` by breadth-first search.

    Both directions are explored for every color; targets outside the budget
    window are simply not added.  Output ordering is deterministic (canonical
    sort of nodes, edges, colors) regardless of exploration order.  A seed or
    colour given twice counts once.

    Each node carries its weight: the seeds' are computed, and a new node's
    is its parent's minus (``f``) or plus (``e``) the colour's class.  The
    window is tested once per weight, and ``e`` is called only inside it.

    Raises ``ValueError`` for a negative ``max_nodes``, and for colours
    whose walks the budget never ends (:meth:`Budget.stops_raising`): ``e``
    always applies and adds the colour's class, so a search along such a
    walk never repeats a node and never ends.
    """
    if budget.max_nodes is not None and budget.max_nodes < 0:
        raise ValueError("max_nodes must be nonnegative")
    color_list = sorted(set(colors), key=repr)
    for color in color_list:
        _check_color(curve, color)
    # each weight's budget test once
    admits = cache(partial(budget.admits, curve))
    seed_list = [(z, comp.weight(curve, z)) for z in sorted(set(seeds), key=repr)]
    if not all(admits(wt) for _, wt in seed_list):
        raise ValueError("seed outside the budget window")
    classes = [cat.class_of(curve, c) for c in color_list]
    if not budget.stops_raising(curve, classes):
        labels = ", ".join(cat.format_label(curve, c) for c in color_list)
        raise ValueError(
            f"no budget bound stops raising by {labels}: set max_nodes or "
            "max_delta, or a max_rank or max_deg that every combination changes"
        )
    nodes: set[ComponentLabel] = {z for z, _ in seed_list}
    edges: set[tuple] = set()
    queue = deque(seed_list)  # (node, weight) pairs
    complete = True

    def reach(node, wt, edge):
        edges.add(edge)
        if node not in nodes:
            nodes.add(node)
            queue.append((node, wt))

    while queue:
        if budget.max_nodes is not None and len(nodes) > budget.max_nodes:
            complete = False
            break
        z, wt_z = queue.popleft()
        for color, cls in zip(color_list, classes):
            down = f(curve, z, color)
            if down is not None and admits(wt_down := kt.sub(wt_z, cls)):
                reach(down, wt_down, (z, down, color))
            wt_up = kt.add(wt_z, cls)
            if admits(wt_up):
                up = e(curve, z, color)
                reach(up, wt_up, (up, z, color))
    return CrystalGraph(
        curve,
        tuple(sorted(nodes, key=repr)),
        tuple(sorted(edges, key=repr)),
        tuple(color_list),
        complete,
    )


def verify_axioms(graph: CrystalGraph) -> list[str]:
    """Check the structural identities on every node and edge.

    Per edge ``(Z, Z', I)``: the weight drops by the class of ``I``; epsilon
    drops by one; ``f`` and ``e`` invert each other across the edge.  Phi is
    not checked on its own: ``phi = epsilon + <[I], wt>`` is linear in the
    weight, so the first two checks force its drop of ``1 + <[I],[I]>``.
    Per node and color: at epsilon 0 there is no outgoing edge; in a complete
    graph, at epsilon > 0 without an outgoing edge, ``f`` leaves the node set
    (otherwise the edge to it is missing).  Every edge between nodes is an
    ``f`` edge, so this finds every missing edge without calling ``e`` at the
    top of the window.  An edge or node where an operator refuses is a
    violation too.  Returns the list of violations (empty = pass); each
    offending edge is reported once.

    Epsilon is read once per node and colour; a refusal is not kept, so it
    raises again with the same text.
    """
    curve = graph.curve
    out: list[str] = []
    # each node's weight, each (node, colour)'s epsilon, each colour's
    # class and name, once
    weight = cache(partial(comp.weight, curve))
    eps = cache(partial(epsilon, curve))
    cls = cache(partial(cat.class_of, curve))
    cname = cache(partial(cat.format_label, curve))
    name = partial(comp.format_label, curve)

    def edge(src, tgt, color):
        return f"{name(src)} -> {name(tgt)} [{cname(color)}]"

    def edge_fault(src, tgt, color):
        if weight(tgt) != kt.sub(weight(src), cls(color)):
            return "weight shift violated on"
        if eps(src, color) != eps(tgt, color) + 1:
            return "epsilon step violated on"
        if f(curve, src, color) != tgt:
            return "f does not follow the edge"
        if e(curve, tgt, color) != src:
            return "e does not invert the edge"
        return None

    for src, tgt, color in graph.edges:
        try:
            fault = edge_fault(src, tgt, color)
        except ValueError as err:
            out.append(f"operators refuse {edge(src, tgt, color)}: {err}")
            continue
        if fault:
            out.append(f"{fault} {edge(src, tgt, color)}")
    outgoing = {(src, color) for src, _, color in graph.edges}
    nodes = set(graph.nodes)
    for z in graph.nodes:
        for color in graph.colors:
            try:
                eps_val = eps(z, color)
                down = None
                if eps_val and (z, color) not in outgoing and graph.complete:
                    down = f(curve, z, color)
            except ValueError as err:
                out.append(f"operators refuse {name(z)} [{cname(color)}]: {err}")
                continue
            if eps_val == 0 and (z, color) in outgoing:
                out.append(f"f should vanish at {name(z)} [{cname(color)}]")
            elif down in nodes:
                out.append(f"missing edge {edge(z, down, color)}")
    return out


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------

def connectivity_path(curve: WeightData, z: ComponentLabel) -> list[tuple[str, object]]:
    """An explicit operator walk from ``z`` to the empty label.

    Order of phases: strip exceptional multisegments with length-1 torsion
    colors (a nonempty aperiodic multisegment always has a vertex with
    epsilon >= 1); descend the bundle ladder ``O(2(k-1)c) + ... + O(2c) + O``
    one rank per step with colors ``O((2(m-1) - len(nu))c)``, raising every
    ordinary part; then climb the ordinary partition back to a pure ladder and
    descend it with colors ``O(2(m-1)c)``.  Each entry is ``("f"|"e", color)``
    and replays through the public operators.
    """
    path: list[tuple[str, object]] = []
    cur = z

    def step(op, color):
        nonlocal cur
        path.append((op, color))
        cur = (f if op == "f" else e)(curve, cur, color)
        if cur is None:
            raise AssertionError("descent step vanished unexpectedly")

    while cur.exceptional:
        m = cur.exceptional[0]
        p = curve.weights[m.i]
        vertex = next(
            (v for v in range(p) if _signature(p, m.segments(), v)[0]), None
        )
        if vertex is None:
            raise AssertionError("aperiodic multisegment with no removable vertex")
        step("f", cat.exc_torsion(curve, m.i, vertex, 1))
    (degs, nu), _ = _dispatch(curve, cur, _line_color(curve, 0))
    if degs != tuple(range(2 * len(degs) - 2, -1, -2)):
        raise ValueError(UNSUPPORTED)  # not an even ladder
    while degs:
        step("f", _line_color(curve, degs[0] - len(nu)))
        degs, nu = _grid_parts(cur)
    lam = cur.ordinary
    if lam:
        k = lam[0]
        mu = comp.conjugate(lam)
        ladder_colors = [2 * (k - j) - mu[k - j] for j in range(1, k + 1)]
        for d in reversed(ladder_colors):
            step("e", _line_color(curve, d))
        for top in range(2 * (k - 1), -1, -2):
            step("f", _line_color(curve, top))
    if cur != comp.EMPTY:
        raise AssertionError("path did not reach the empty label")
    return path


def apply_path(
    curve: WeightData, z: ComponentLabel, path: Iterable[tuple[str, object]]
) -> ComponentLabel:
    """Replay a ``connectivity_path``-style walk through the public operators."""
    cur = z
    for op, color in path:
        if op == "f":
            nxt = f(curve, cur, color)
            if nxt is None:
                raise ValueError("path applies f where epsilon is zero")
            cur = nxt
        elif op == "e":
            cur = e(curve, cur, color)
        else:
            raise ValueError(f"unknown operator {op!r}")
    return cur


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def dot_lines(graph: CrystalGraph):
    """The lines of the graph's DOT text, without newlines, one at a time."""
    curve = graph.curve
    # each node's label text once, shared by its edges
    name = cache(partial(comp.format_label, curve))
    yield from ("digraph loopcrystal {", "  rankdir=LR;", "  node [shape=box];")
    for z in graph.nodes:
        yield f'  "{name(z)}";'
    for src, tgt, color in graph.edges:
        yield (
            f'  "{name(src)}" -> "{name(tgt)}" '
            f'[label="f[{cat.format_label(curve, color)}]"];'
        )
    yield "}"


def to_dot(graph: CrystalGraph) -> str:
    return "\n".join(dot_lines(graph))


def graph_json_fields(graph: CrystalGraph) -> dict:
    """The fields of :func:`graph_to_json`, with ``nodes`` and ``edges`` as
    one-pass iterators that build each item when it is read.

    Each colour's JSON is built once and shared by its edges.
    """
    curve = graph.curve
    index = {z: k for k, z in enumerate(graph.nodes)}
    color_json = cache(cat.label_to_json)
    return {
        "weights": list(curve.weights),
        "nodes": (comp.label_to_json(curve, z) for z in graph.nodes),
        "edges": (
            {
                "source": index[src],
                "target": index[tgt],
                "color": color_json(color),
            }
            for src, tgt, color in graph.edges
        ),
        "colors": [color_json(color) for color in graph.colors],
        "complete": graph.complete,
    }


def graph_to_json(graph: CrystalGraph) -> dict:
    """The graph as JSON data, read back by :func:`graph_from_json`."""
    data = graph_json_fields(graph)
    data["nodes"] = list(data["nodes"])
    data["edges"] = list(data["edges"])
    return data


def graph_from_json(data: dict) -> CrystalGraph:
    """Inverse of :func:`graph_to_json`; other shapes raise ``ValueError``."""
    weights, raw_nodes, raw_edges, raw_colors = json_fields(
        data, "crystal graph", weights=list, nodes=list, edges=list, colors=list
    )
    curve = WeightData(weights)
    nodes = tuple(comp.label_from_json(item, curve) for item in raw_nodes)
    colors = tuple(cat.label_from_json(item, curve) for item in raw_colors)
    if len(set(colors)) < len(colors):
        raise ValueError("a colour is listed twice")
    for color in colors:
        _check_color(curve, color)
    edges = []
    for item in raw_edges:
        source, target, color = json_fields(
            item, "graph edge", source=int, target=int, color=dict
        )
        for index in (source, target):
            if not 0 <= index < len(nodes):
                raise ValueError(f"edge endpoint {index} is not a node index")
        color = cat.label_from_json(color, curve)
        if color not in colors:
            raise ValueError("edge colour is not in the colour list")
        edges.append((nodes[source], nodes[target], color))
    (complete,) = json_fields(
        {"complete": True, **data}, "crystal graph", complete=bool
    )
    return CrystalGraph(curve, nodes, tuple(edges), colors, complete)
