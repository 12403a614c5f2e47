"""Randomized exact-linear-algebra models for generic Higgs pairs.

Two families of models:

* cyclic pairs — nilpotent representations of the cyclic quiver with a
  reverse arrow in the commutant, used to sample generic points of the
  torsion strata at a weighted point.  The quiver vertex ``k`` hosts the
  simple ``S_{-k}``: a segment ``[j; l)`` with composition factors
  ``S_j, ..., S_{j-l+1}`` occupies vertices ``-j, -j+1, ..., -j+l-1``
  (mod p), and the forward arrows ``phi`` move down the factor chain.

* homogeneous-form matrices on the projective line — a Higgs field on
  ``V = O(a_1) + ... + O(a_n)`` twisted by ``omega = -2c``, with entry
  ``(k, k')`` a binary form of degree ``a_k - a_{k'} - 2``.  Every Hom
  dimension of this model is the kernel of one block system of form
  multiplications (:func:`_form_kernel`): the kernel of the field, and the
  generic quotients ``V / O(a)^s`` through Serre duality, which the tests
  compare with the grid ``f_max`` of :mod:`loopcrystal.crystal`.

All arithmetic is exact.  Every draw is over GF(2^61 - 1), and the field
rides on the value (``CyclicPair.prime``, ``P1Higgs.prime``): Q is reached
only by lifting a draw, a copy of its entries with ``prime=None``, which
:mod:`._linalg` reduces in the integers by fraction-free elimination (the
audit of :func:`kernel_type_sample`).  Field elements are multiplied, added
and reduced in :mod:`._linalg`.  A cyclic draw needs no arithmetic: the
commutant fiber has a closed basis of 0/1 arrows with disjoint supports
(:func:`_intertwiners`), so the seeded coefficients are written into their
entries.  The one exception is :func:`_generic_matrix_rank`, which evaluates
the forms at a point with its own Horner loop and leaves the reduction to
``rank_mod``.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import accumulate

from . import _linalg, ktheory as kt
from ._linalg import zero_matrix
from .components import Multisegment, is_aperiodic_for
from .starlattice import Record, WeightData

DEFAULT_PRIME = _linalg.DEFAULT_PRIME
DEFAULT_TRIALS = 8


# ---------------------------------------------------------------------------
# cyclic pairs
# ---------------------------------------------------------------------------

class CyclicPair(Record):
    """Arrow data of a cyclic-quiver pair.

    ``phi[k]`` maps vertex ``k`` to ``k+1`` (shape dims[k+1] x dims[k]);
    ``phibar[k]`` maps vertex ``k`` to ``k-1`` (shape dims[k-1] x dims[k]).
    ``point`` records which weighted point the model belongs to, so that
    recovered multisegments carry the right point index.
    """

    __slots__ = ("p", "dims", "phi", "phibar", "prime", "point")
    _defaults = {"prime": DEFAULT_PRIME, "point": 0}
    p: int
    dims: tuple[int, ...]
    phi: list
    phibar: list
    prime: int | None
    point: int

    def total_dim(self) -> int:
        return sum(self.dims)


def _segment_slots(p: int, segments) -> tuple[tuple[int, ...], list]:
    """Dimension vector of a direct sum of serial modules, and per segment the
    ``(vertex, index within the vertex)`` slot of each composition factor:
    the t-th factor S_{j-t} of a segment [j; l) sits at vertex ``(t - j) % p``.
    """
    dims = [0] * p
    slots = []
    for j, l in segments:
        seg_slots = []
        for t in range(l):
            v = (t - j) % p
            seg_slots.append((v, dims[v]))
            dims[v] += 1
        slots.append(seg_slots)
    return tuple(dims), slots


def build_rep(curve: WeightData, m: Multisegment) -> CyclicPair:
    """Direct sum of segment shift representations, ``phi`` moving each
    composition factor to the next by a unit entry; reverse arrows zero."""
    p = curve.weights[m.i]
    dims, slots = _segment_slots(p, m.segments())
    phi = [zero_matrix(dims[(k + 1) % p], dims[k]) for k in range(p)]
    for seg_slots in slots:
        for (v, idx), (_, idx2) in zip(seg_slots, seg_slots[1:]):
            phi[v][idx2][idx] = 1
    return CyclicPair(p, dims, phi, _fill(p, dims, [], []), DEFAULT_PRIME, m.i)


def _intertwiners(p: int, segments, shift: int) -> tuple[tuple[int, ...], list]:
    """Dimension vector of the segment model of ``segments`` and a basis of
    the arrow tuples X with ``X_{k+1} phi_k = phi_{k-shift} X_k`` on it.

    X maps the model to its shift (``X_k``: vertex ``k`` to ``k - shift``).
    A map out of a segment ``A = [j_A; l_A)`` is fixed by the image of its
    head, a combination of the factors ``u`` (counted from the head) of each
    ``B = [j_B; l_B)`` with ``l_B - l_A <= u < l_B`` and ``u = j_B - j_A -
    shift (mod p)``.  Each ``(A, B, u)`` gives the element sending factor
    ``t`` of A to factor ``u + t`` of B, as its unit entries ``(k, r, c)``:
    ``X_k[r][c] = 1``, with disjoint supports.  Sorted by last entry, this
    is the echelon nullspace basis of the commutation equations (each reads
    ``x_a = x_b`` or ``x_a = 0``), unknowns numbered as ``(k, r, c)``.
    """
    dims, slots = _segment_slots(p, segments)
    basis = []
    for (j_a, l_a), a in zip(segments, slots):
        for (j_b, l_b), b in zip(segments, slots):
            for u in range(max(l_b - l_a, 0), l_b):
                if (u - j_b + j_a + shift) % p == 0:
                    basis.append([
                        (k, b[u + t][1], c) for t, (k, c) in enumerate(a[:l_b - u])
                    ])
    basis.sort(key=max)
    return dims, basis


def _fill(p: int, dims, basis, coeffs) -> list:
    """The reverse arrows ``sum_b coeffs[b] * basis[b]`` (shift 1), for a basis
    with disjoint supports."""
    phibar = [zero_matrix(dims[(k - 1) % p], dims[k]) for k in range(p)]
    for coeff, entries in zip(coeffs, basis):
        for k, r, c in entries:
            phibar[k][r][c] = coeff
    return phibar


def commutant_fiber(curve: WeightData, m: Multisegment) -> list:
    """Basis of the linear space of reverse arrows commuting with the phi of
    ``build_rep(curve, m)``.

    Returns a list of phibar-tuples (one matrix per vertex each), with 0/1
    entries over every field.
    """
    p = curve.weights[m.i]
    dims, basis = _intertwiners(p, m.segments(), 1)
    return [_fill(p, dims, [entries], [1]) for entries in basis]


def _total_matrix(pair: CyclicPair):
    p, dims = pair.p, pair.dims
    n = pair.total_dim()
    offs = []
    acc = 0
    for k in range(p):
        offs.append(acc)
        acc += dims[k]
    x = zero_matrix(n, n)
    for k in range(p):
        kp, km = (k + 1) % p, (k - 1) % p
        for r in range(dims[kp]):
            for c in range(dims[k]):
                x[offs[kp] + r][offs[k] + c] += pair.phi[k][r][c]
        for r in range(dims[km]):
            for c in range(dims[k]):
                x[offs[km] + r][offs[k] + c] += pair.phibar[k][r][c]
    return x


def is_nilpotent(pair: CyclicPair) -> bool:
    """Whether the combined forward+reverse operator is nilpotent.

    Forward arrows are nilpotent and commute with the reverse ones, so the
    sum is nilpotent exactly when the pair generates a nilpotent algebra.
    """
    n = pair.total_dim()
    if n == 0:
        return True
    x = _total_matrix(pair)
    power = 1
    while power < n:
        x = _linalg.mat_mul_mod(x, x, pair.prime)
        power *= 2
    return all(all(v == 0 for v in row) for row in x)


# One entry: the trials of a stratum run back to back.
@lru_cache(maxsize=1)
def _stratum_model(curve: WeightData, m: Multisegment) -> tuple:
    """Segment model of ``m`` and its commutant fiber basis, which hold over
    every field (see :func:`_intertwiners`); shared by the trials of a stratum
    (which run back to back) and never written to."""
    pair = build_rep(curve, m)
    return pair, _intertwiners(pair.p, m.segments(), 1)[1]


def sample_generic(curve: WeightData, m: Multisegment, seed=0) -> CyclicPair:
    """phi from the segment model, phibar random in the commutant fiber.

    The conormal fiber of an aperiodic stratum lies in the nilpotent variety
    (Lusztig, *Affine quivers and canonical bases*, 1992, section 15), so
    every draw is a nilpotent pair.  Periodic input is refused.

    A draw has a non-generic kernel or quotient type only on the zero set of
    a nonzero polynomial of degree ``deg`` (small in the total dimension) in
    the fiber coefficients.  Every draw takes them uniform on the nonzero
    residues of GF(2^61 - 1), so by the Schwartz-Zippel bound (Schwartz,
    J. ACM 27, 1980; Zippel, EUROSAM 1979) every draw is non-generic with
    probability at most ``deg / (2^61 - 2)``.
    """
    if not is_aperiodic_for(curve, m):
        raise ValueError("periodic input: the fiber breaks nilpotency")
    pair, basis = _stratum_model(curve, m)
    rng = random.Random(f"cyclic:{seed}")
    coeffs = [rng.randrange(1, DEFAULT_PRIME) for _ in basis]
    phibar = _fill(pair.p, pair.dims, basis, coeffs)
    return CyclicPair(pair.p, pair.dims, pair.phi, phibar, DEFAULT_PRIME, pair.point)


def _path_ranks(pair: CyclicPair, sources, subs=None) -> dict:
    """Ranks of the forward paths on a subquotient of ``pair``.

    ``r(v, s)`` is the dimension of the image of ``span(sources[v])`` under
    the length-``s`` forward path from vertex ``v``, modulo
    ``span(subs[v + s])``, keyed by ``(v, s)`` for ``s = 1..n`` with ``n``
    the total dimension of the pair.  ``subs`` (zero when omitted) holds
    independent rows spanning a phi-stable subspace, so a rank once zero
    stays zero and the push along the path stops there.
    """
    p, n, prime = pair.p, pair.total_dim(), pair.prime
    r = {}
    for v in range(p):
        vecs, rank = sources[v], len(sources[v])
        for s in range(1, n + 1):
            if rank:
                w = (v + s) % p
                arrow = pair.phi[(w - 1) % p]
                sub = subs[w] if subs else []
                # span(sub + image) is all that later steps need modulo sub
                reduced, pivots = _linalg.rref_mod(
                    sub + [_linalg.mat_vec_mod(arrow, x, prime) for x in vecs], prime
                )
                rank = len(pivots) - len(sub)
                vecs = reduced[:len(pivots)]
            r[(v, s)] = rank
    return r


def rank_profile(pair: CyclicPair) -> dict:
    """Ranks of all forward path composites, keyed by (start vertex, length)."""
    return _path_ranks(pair, [_linalg.identity(d) for d in pair.dims])


def _read_type(p: int, dims, r: dict, point: int) -> Multisegment:
    """The multisegment with dimension vector ``dims`` (by quiver vertex) and
    forward path ranks ``r`` (see :func:`recover_type`)."""
    r = {**r, **{(v, 0): dims[v] for v in range(p)}}
    pairs = []
    for v0 in range(p):
        u = (v0 - 1) % p
        for l in range(1, sum(dims) + 1):
            mult = r[(v0, l - 1)] - r[(v0, l)] - r[(u, l)] + r.get((u, l + 1), 0)
            if mult:
                pairs.append((((-v0) % p, l), mult))
    return Multisegment(point, tuple(sorted(pairs)))


def recover_type(pair: CyclicPair) -> Multisegment:
    """Read the multisegment of a nilpotent pair off its forward path ranks.

    Write ``r(v, s)`` for the rank of the length-``s`` forward composite from
    vertex ``v``, with ``r(v, 0) = dims[v]`` and ``r(v, n + 1) = 0`` for the
    total dimension ``n``.  A nilpotent representation of the cyclic quiver
    is a direct sum of ascending runs ``[v0; l)`` (vertices ``v0, ...,
    v0 + l - 1``), and the number of runs ``[v0; l)`` is the second difference

        r(v0, l - 1) - r(v0, l) - r(v0 - 1, l) + r(v0 - 1, l + 1)

    with vertices mod p (Lusztig, *Affine quivers and canonical bases*, Publ.
    IHES 76, 1992).  The run ``[v0; l)`` is the segment with head ``-v0``.
    Periodic types are returned too: kernels of sampled reverse arrows need
    not be aperiodic.  A pair with ``r(v, n) != 0`` for some ``v`` is not
    nilpotent and is rejected with ``ValueError("no match: ...")``.
    """
    p, n = pair.p, pair.total_dim()
    if n == 0:
        return Multisegment(pair.point, ())
    r = rank_profile(pair)
    if any(r[(v, n)] for v in range(p)):
        raise ValueError("no match: a length-n path composite is nonzero")
    return _read_type(p, pair.dims, r, pair.point)


def serial_selfext_dim(p: int, j: int, l: int) -> int:
    """dim Ext^1(S, S) for the serial module S = [j; l) on the p-cycle.

    End(S) is the space of intertwiners ``tau_{k+1} phi_k = phi_k tau_k``
    (:func:`_intertwiners` at shift 0); since the path algebra is
    hereditary, dim Ext^1 = dim End - chi(dim, dim) with chi the arrow Euler
    form.  ``p = 1`` gives the Jordan loop of an ordinary point, where End is
    the plain commutant.
    """
    if l < 1:
        raise ValueError("length must be positive")
    dims, basis = _intertwiners(p, [(j, l)], 0)
    end_dim = len(basis)
    chi = sum(d * d for d in dims) - sum(
        dims[k] * dims[(k + 1) % p] for k in range(p)
    )
    return end_dim - chi


def _kernel_data(pair: CyclicPair) -> list:
    """Basis of ker(phibar) at each vertex, a phi-stable subspace."""
    return [
        _linalg.nullspace_mod(pair.phibar[k], pair.dims[k], pair.prime)
        for k in range(pair.p)
    ]


def _kernel_type(pair: CyclicPair, kernels) -> Multisegment:
    """Type of the forward-arrow restriction to ker(phibar), read off the
    path ranks of the kernel bases."""
    kdims = [len(basis) for basis in kernels]
    return _read_type(pair.p, kdims, _path_ranks(pair, kernels), pair.point)


def rk_embeddings(p: int, m: Multisegment, j: int, l: int) -> int:
    """Max number of copies of S_j(l) embedding into the serial sum ``m``.

    A segment [j_a; l_a) receives S_j(l) iff l <= l_a and the socles align:
    j_a - l_a = j - l (mod p); each copy absorbs one embedding.
    """
    count = 0
    for (ja, la), mult in m.pairs:
        if la >= l and (ja - la) % p == (j - l) % p:
            count += mult
    return count


def _generic_kernel(curve: WeightData, m: Multisegment, trials, seed) -> tuple:
    """The trial with the smallest ker(phibar) as ``(pair, kernels)``.

    Kernel dimensions are upper semicontinuous, so the smallest is generic.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")

    def draw(t):
        pair = sample_generic(curve, m, seed=f"{seed}:{t}")
        return pair, _kernel_data(pair)

    # min keeps the first of equally small kernels
    return min(map(draw, range(trials)), key=lambda d: sum(map(len, d[1])))


def kernel_type_sample(
    curve: WeightData,
    m: Multisegment,
    trials: int = DEFAULT_TRIALS,
    seed=0,
    audit: bool = False,
) -> Multisegment:
    """The generic multisegment type of ker(phibar) on the stratum of ``m``.

    With ``audit`` the chosen trial is recomputed over the rationals and must
    give the same kernel type.
    """
    pair, kernels = _generic_kernel(curve, m, trials, seed)
    ktype = _kernel_type(pair, kernels)
    if audit:
        exact = CyclicPair(pair.p, pair.dims, pair.phi, pair.phibar, None, pair.point)
        if not is_nilpotent(exact):
            raise AssertionError("audit failure: nilpotency differs over Q")
        if _kernel_type(exact, _kernel_data(exact)) != ktype:
            raise AssertionError(
                "audit failure: kernel type differs between F_p and Q"
            )
    return ktype


def eps_sample(
    curve: WeightData,
    m: Multisegment,
    color_j: int,
    color_l: int,
    trials: int = DEFAULT_TRIALS,
    seed=0,
    audit: bool = True,
) -> int:
    """Sampled generic rk of the color inside ker(phibar) on the stratum of m.

    Read off the generic kernel type that :func:`kernel_type_sample` samples:
    the number of segments of that type which receive S_j(l).
    """
    ktype = kernel_type_sample(curve, m, trials, seed, audit)
    return rk_embeddings(curve.weights[m.i], ktype, color_j, color_l)


def quotient_type_sample(
    curve: WeightData,
    m: Multisegment,
    color_j: int,
    color_l: int,
    s: int,
    trials: int = DEFAULT_TRIALS,
    seed=0,
) -> Multisegment:
    """Type of the generic quotient M / S_j(l)^s with the copies in ker(phibar).

    Takes the generic pair that :func:`kernel_type_sample` reads the kernel
    type off (same ``trials`` and ``seed``), embeds ``s`` generic
    copies of the serial module S_j(l) into ker(phibar) (head generators in
    the kernel of the l-fold forward composite), and reads the type of the
    quotient module off its path ranks.  The submodule is phibar-stable
    automatically, so the quotient carries an induced pair.
    """
    if s == 0:
        return m
    p = curve.weights[m.i]
    pair, kernels = _generic_kernel(curve, m, trials, seed)
    prime = pair.prime
    v_head = (-color_j) % p
    # head generators: combinations of the kernel basis killed by the path
    path = [kernels[v_head]]
    for step in range(color_l):
        arrow = pair.phi[(v_head + step) % p]
        path.append([_linalg.mat_vec_mod(arrow, x, prime) for x in path[-1]])
    null_c = _linalg.nullspace_mod(
        _linalg.transpose(path[-1]), len(kernels[v_head]), prime
    )
    # s copies embed iff their heads survive l - 1 steps independently
    full = _linalg.rank_mod(_linalg.mat_mul_mod(null_c, path[-2], prime), prime)
    if full < s:
        raise ValueError("not enough generic copies of the color in the kernel")
    heads = _linalg.transpose(_linalg.mat_mul_mod(null_c, kernels[v_head], prime))
    rng = random.Random(f"quot:{seed}")
    orbit_by_vertex = [[] for _ in range(p)]
    for _ in range(s):
        combo = [rng.randrange(1, DEFAULT_PRIME) for _ in null_c]
        cur, v = _linalg.mat_vec_mod(heads, combo, prime), v_head
        for _ in range(color_l):
            orbit_by_vertex[v].append(cur)
            cur, v = _linalg.mat_vec_mod(pair.phi[v], cur, prime), (v + 1) % p
    subs = []
    for k in range(p):
        reduced, pivots = _linalg.rref_mod(orbit_by_vertex[k], prime)
        subs.append(reduced[:len(pivots)])
    if sum(map(len, subs)) != s * color_l:
        raise ValueError("generic embedding failed: submodule dimension off")
    qdims = [pair.dims[k] - len(subs[k]) for k in range(p)]
    r = _path_ranks(pair, [_linalg.identity(d) for d in pair.dims], subs)
    return _read_type(p, qdims, r, m.i)


# ---------------------------------------------------------------------------
# projective-line Higgs fields
# ---------------------------------------------------------------------------

class P1Higgs(Record):
    """Splitting degrees and a matrix of binary forms of degree a_k - a_k' - 2.

    Forms are coefficient tuples (c_0, ..., c_D) for c_0 x^D + ... + c_D y^D;
    ``None`` marks a negative-degree (zero) entry.
    """

    __slots__ = ("degs", "f", "prime")
    _defaults = {"prime": DEFAULT_PRIME}
    degs: tuple[int, ...]
    f: list
    prime: int | None


def p1_sample(degs, seed=0) -> P1Higgs:
    """A Higgs field on ``O(d_1) + ... + O(d_n)`` with form coefficients uniform
    on the nonzero residues of GF(2^61 - 1), so that, by the Schwartz-Zippel
    bound (see :func:`sample_generic`), every draw's kernel profile is
    non-generic with probability at most ``deg / (2^61 - 2)``.
    """
    degs = tuple(sorted(degs, reverse=True))
    rng = random.Random(f"p1:{seed}")
    f = []
    for ak in degs:
        row = []
        for ak2 in degs:
            d = ak - ak2 - 2
            if d < 0:
                row.append(None)
            else:
                row.append(tuple(rng.randrange(1, DEFAULT_PRIME) for _ in range(d + 1)))
        f.append(row)
    return P1Higgs(degs, f, DEFAULT_PRIME)


def _toeplitz(form, din):
    """Matrix of multiplication by ``form`` from degree din to din+deg(form)."""
    e = len(form) - 1
    rows = din + e + 1
    cols = din + 1
    out = [[0] * cols for _ in range(rows)]
    for c in range(cols):
        for i, coeff in enumerate(form):
            out[c + i][c] = coeff
    return out


def _form_kernel(src, tgt, forms, prime) -> list:
    """Basis of the kernel of ``+_j H^0(O(src_j)) -> +_i H^0(O(tgt_i))``,
    whose block ``(i, j)`` multiplies by the binary form ``forms(i, j)``
    (``None`` for zero).

    The unknowns are numbered block by block, each in :func:`_toeplitz`
    order, and zero rows are dropped, so the basis is fixed.
    """
    sizes = [max(0, d + 1) for d in src]
    offs = list(accumulate(sizes, initial=0))
    rows = []
    for i, d in enumerate(tgt):
        block = [[0] * offs[-1] for _ in range(d + 1)]
        for j, size in enumerate(sizes):
            form = forms(i, j) if block and size else None
            if form is not None:
                for row, tp_row in zip(block, _toeplitz(form, src[j])):
                    row[offs[j]:offs[j + 1]] = tp_row
        rows.extend(row for row in block if any(row))
    return _linalg.nullspace_mod(rows, offs[-1], prime)


def _kernel_basis(h: P1Higgs, a: int) -> list:
    """Basis of {h: O(a) -> V with f h = 0}, solved as a linear system."""
    return _form_kernel(
        [d - a for d in h.degs], [d - a - 2 for d in h.degs],
        lambda i, j: h.f[i][j], h.prime,
    )


def _generic_matrix_rank(h: P1Higgs) -> int:
    """Rank of f at a generic point of the line."""
    rng = random.Random("p1rank")
    best = 0
    for _ in range(3):
        tau = rng.randrange(1, DEFAULT_PRIME)
        scalar = []
        for row in h.f:
            out_row = []
            for form in row:
                if form is None:
                    out_row.append(0)
                else:
                    val = 0
                    for coeff in form:
                        val = val * tau + coeff
                    out_row.append(val)
            scalar.append(out_row)
        best = max(best, _linalg.rank_mod(scalar, h.prime))
    return best


def _splitting_scan(hom, rank: int, a_hi: int, floor: int, what: str):
    """Splitting degrees and torsion length of a sheaf F of rank ``rank`` on
    the line, from ``hom(a) = dim Hom(O(a), F)``.

    Scans ``a`` down from ``a_hi``: the first difference ``hom(a) - hom(a +
    1)`` counts the summands of degree at least ``a``, and once it reaches
    ``rank`` every summand is found and the rest of ``hom(a)`` is torsion.
    """
    found: list[int] = []
    h_prev, delta_prev = hom(a_hi + 1), 0
    for a in range(a_hi, floor - 1, -1):
        h_cur = hom(a)
        delta = h_cur - h_prev
        found.extend([a] * (delta - delta_prev))
        if delta == rank:
            torsion = h_cur - sum(b - a + 1 for b in found)
            return tuple(sorted(found, reverse=True)), torsion
        h_prev, delta_prev = h_cur, delta
    raise AssertionError(f"{what} profile did not stabilize inside the window")


def _kernel_scan(hom, rank: int, degs, what: str):
    """:func:`_splitting_scan` of a rank-``rank`` Higgs kernel on ``V = O(d1)
    + ... + O(dn)`` for ``degs = (d1, ..., dn)``, from the top degree down."""
    # saturating the kernel can dig far below the summand degrees when the
    # degree spread is wide (the kernel generator of an r x (r+1) block of
    # forms has degree minus the sum of the form degrees), so scale the
    # scan window with the spread
    n, low = len(degs), min(degs)
    floor = low - n * (max(degs) - low) - 2 * n - 2
    return _splitting_scan(hom, rank, max(degs), floor, what)


def p1_kernel_profile(h: P1Higgs) -> tuple[tuple[int, ...], int]:
    """Splitting degrees of ker f (a saturated, hence torsion-free, subsheaf).

    Recovered by differencing the dimension function
    a -> dim Hom(O(a), ker f); the second slot (torsion length) is always 0.
    """
    r_ker = len(h.degs) - _generic_matrix_rank(h)
    if r_ker == 0:
        return ((), 0)
    return _kernel_scan(lambda a: len(_kernel_basis(h, a)), r_ker, h.degs, "kernel")


def p1_rk_line(h: P1Higgs, a: int) -> int:
    """Number of kernel splitting degrees >= a (copies of O(a) embedding).

    ``dim Hom(O(a), ker f) - dim Hom(O(a + 1), ker f)`` counts the summands
    of degree at least ``a``, the first difference :func:`_splitting_scan`
    reads.
    """
    return len(_kernel_basis(h, a)) - len(_kernel_basis(h, a + 1))


def p1_eps_sample(degs, a: int, trials: int = DEFAULT_TRIALS, seed=0) -> int:
    """Max over sampled Higgs fields of the O(a)-embedding count in ker f."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    best = 0
    for t in range(trials):
        h = p1_sample(degs, seed=f"{seed}:{t}")
        best = max(best, p1_rk_line(h, a))
    return best


def p1_quotient_invariants(h: P1Higgs, a: int, s: int, seed=0):
    """Class and splitting profile of a generic quotient V / O(a)^s in ker f.

    Returns ``(KClass on the unweighted line, (bundle degrees, torsion
    length))`` for the quotient carrying the induced Higgs field.  Requires
    ``s`` at most the number of O(a)-embeddings into ker f.

    ``dim Hom(O(a'), Q)`` for the quotient ``Q`` is ``chi(Q(-a'))`` plus
    ``h^1(Q(-a'))``, and by Serre duality on the line (Hartshorne,
    *Algebraic Geometry*, III.7) ``h^1(Q(-a')) = dim Hom(Q, O(a' - 2))``:
    the maps ``V -> O(a' - 2)`` that vanish on the ``s`` copies of ``O(a)``.
    """
    degs = h.degs
    n = len(degs)
    if s == 0:
        return (
            kt.KClass(n, sum(degs), ((), (), ())),
            (tuple(sorted(degs, reverse=True)), 0),
        )
    rk = p1_rk_line(h, a)
    if s > rk:
        raise ValueError("not enough copies: s exceeds the embedding count")
    basis = _kernel_basis(h, a)
    rng = random.Random(f"p1q:{seed}")
    # copies[sigma]: a generic combination of the basis, an embedding O(a) -> V
    entries = _linalg.transpose(basis)
    copies = [
        _linalg.mat_vec_mod(entries, [rng.randrange(1, DEFAULT_PRIME) for _ in basis],
                            h.prime)
        for _ in range(s)
    ]
    offs = list(accumulate((max(0, ak - a + 1) for ak in degs), initial=0))

    def copy_form(sigma, k):
        return copies[sigma][offs[k]:offs[k + 1]] or None

    cls = kt.KClass(n - s, sum(degs) - s * a, ((), (), ()))

    def hom_to_quotient(ap: int) -> int:
        chi = sum(ak - ap + 1 for ak in degs) - s * (a - ap + 1)
        dual = _form_kernel(
            [ap - 2 - ak for ak in degs], [ap - 2 - a] * s, copy_form, h.prime
        )
        return chi + len(dual)

    # every line summand of the quotient's bundle part is a quotient of V, so
    # its degree is at least min(degs); the other n - s - 1 summands and the
    # torsion leave at most deg Q - (n - s - 1) min(degs) for the top one
    a_hi = sum(degs) - s * a - (n - s - 1) * min(degs)
    floor = min(degs + (a,)) - 2 * n - 4
    return cls, _splitting_scan(hom_to_quotient, n - s, a_hi, floor, "quotient")
