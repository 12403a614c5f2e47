"""Independent counting of torsion component labels.

Counts aperiodic multisegments length-layer by length-layer without ever
constructing them, and assembles torsion-label counts from partition counts
and per-point products.  Used as a cross-check against the enumeration in
``loopcrystal.components``, which walks individual segments instead.
"""

import itertools
from functools import lru_cache


def _coverage(p, j, l):
    cov = [l // p] * p
    for k in range(l % p):
        cov[(j - k) % p] += 1
    return cov


def count_aperiodic_multisegments(p, dims):
    """Number of aperiodic multisegments over Z/p with the given dim vector."""
    total = sum(dims)
    if total == 0:
        return 1

    @lru_cache(maxsize=None)
    def layers(l, remaining):
        # choose the multiplicity vector (a_j) at length l, at least one head
        # absent, then recurse to shorter lengths
        if sum(remaining) == 0:
            return 1
        if l == 0:
            return 0
        covs = [_coverage(p, j, l) for j in range(p)]
        caps = []
        for j in range(p):
            cap = min(
                remaining[v] // covs[j][v] for v in range(p) if covs[j][v] > 0
            )
            caps.append(cap)
        count = 0
        for mults in itertools.product(*[range(c + 1) for c in caps]):
            if p > 1 and all(m > 0 for m in mults):
                continue  # periodic layer
            rest = list(remaining)
            ok = True
            for j in range(p):
                if not mults[j]:
                    continue
                for v in range(p):
                    rest[v] -= mults[j] * covs[j][v]
                    if rest[v] < 0:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                count += layers(l - 1, tuple(rest))
        return count

    return layers(total, tuple(dims))


def count_partitions(n):
    @lru_cache(maxsize=None)
    def p(n, cap):
        if n == 0:
            return 1
        return sum(p(n - k, k) for k in range(1, min(n, cap) + 1))

    return p(n, n)


def count_torsion_labels(weights, a_d, a_m):
    """Torsion-label count for the rank-0 class a_d*delta + sum m*alpha.

    ``a_m`` is a tuple of per-point tuples like KClass.m.  Sums over the
    delta split between ordinary support and the weighted points.
    """
    weighted = [i for i, p in enumerate(weights) if p > 1]
    t_mins = [max(0, max((-v for v in a_m[i]), default=0)) for i in weighted]
    total = 0
    ranges = [range(t_mins[k], a_d + 1) for k in range(len(weighted))]
    for t_combo in itertools.product(*ranges) if weighted else [()]:
        if sum(t_combo) > a_d:
            continue
        ell = a_d - sum(t_combo)
        prod = count_partitions(ell)
        for k, i in enumerate(weighted):
            p = weights[i]
            t_i = t_combo[k]
            dims = tuple([t_i] + [a_m[i][j - 1] + t_i for j in range(1, p)])
            prod *= count_aperiodic_multisegments(p, dims)
            if prod == 0:
                break
        total += prod
    return total


def kostant_partition_count(p, dims):
    """Kostant partition function of affine sl_p (p >= 2) at ``dims``.

    ``dims`` is a vector in the simple roots alpha_0 .. alpha_{p-1}, and
    delta = (1, ..., 1).  The positive roots are the real roots n*delta + an
    arc of r consecutive simple roots (mod p, 1 <= r < p, n >= 0), each of
    multiplicity 1, and the imaginary roots n*delta (n >= 1), each of
    multiplicity p - 1.  Counts the ways to write ``dims`` as a sum of
    positive roots, the p - 1 copies of an imaginary root told apart.
    """
    dims = tuple(dims)
    roots = []
    for n in range(max(dims) + 1):
        roots += [(n,) * p] * ((p - 1) if n else 0)
        for start in range(p):
            for r in range(1, p):
                v = [n] * p
                for k in range(r):
                    v[(start + k) % p] += 1
                roots.append(tuple(v))
    box = list(itertools.product(*(range(d + 1) for d in dims)))
    ways = dict.fromkeys(box, 0)
    ways[(0,) * p] = 1
    for root in roots:
        if any(a > b for a, b in zip(root, dims)):
            continue
        # lexicographic order visits w - root before w: any number of copies
        for w in box:
            rest = tuple(a - b for a, b in zip(w, root))
            if min(rest) >= 0:
                ways[w] += ways[rest]
    return ways[dims]
