"""Multigraded Ext of monomial ideals, computed from the Taylor resolution.

For a monomial ideal I with generators m_1..m_r the Taylor complex has one
free summand per subset S of the generators, placed in homological degree
|S| and twisted by lcm(m_S).  It resolves R/I for every monomial ideal, and
its truncation at degree >= 1 resolves I.  Applying Hom(-, R/I) gives a
finite complex of finite dimensional multigraded vector spaces, and the Ext
groups are read off one multidegree at a time from the ranks of its
differentials, found by fraction-free elimination over the integers, which
is exact over the rationals.

By the ideal sequence 0 -> I -> O -> O_Z -> 0, Ext^i(I, O_Z) is
Ext^(i+1)(O_Z, O_Z) for every i >= 0, since Hom(O_Z, O_Z) -> Hom(O, O_Z) is
an isomorphism; so only the self-Ext is computed here, and its Ext^i has
its cochains on the subsets of size i.  Ext^i only needs the differentials
into and out of that degree.  Asked for one degree, `ext_characters` lists
only the subsets of size i - 1 and i, which is O(r^i) of them rather than
2^r; asked for several, the sizes from the lowest i - 1 to the highest i.
The rows of the differential out of the top size are found lazily: at
multidegree mu the row of a subset U exists exactly when mu + lcm(U) is a
box, so each column tries its one-generator extensions, and rows that no
column hits, which cannot change the rank, are never built.  A rank is
skipped where the next size has no cochain at mu.  Without a degree it
lists every subset and returns every degree.  Multidegrees are packed into
ints in a base taken from each ideal's generators, since an ideal may be
of any size; `ext_characters` gives the digit-range argument.

The Euler characteristic chi(O_Z, O_Z) needs no ranks: each differential
cancels equal dimensions in adjacent degrees, so it is the signed sum of the
cochains, Q bar(K) with Q the box character and K = sum over subsets S of
(-1)^|S| t^lcm(S).  `euler_character` collapses K one generator at a time
and takes one Laurent product.  chi(I, O_Z) = Q - chi(O_Z, O_Z), by the
same sequence, so it has no route of its own.

The fixed points of the localization do not come through here: their
tangent character is counted from graph components in `characters`.  These
routes serve the checks, `vertex_oracle_check` (T as Q + bar(Q) kappa^-1
minus `euler_character`), `obstruction_crosscheck` (Ext^1 and Ext^2 of O_Z
in one call) and the cyclic completion report behind `cyclic-check`.  The
first two read them through `localize.resolution`, at one point of each S4
orbit, keep their exponents and pack them at the others, permuted:
permuting the variables permutes the Taylor complex.

Characters are returned as Laurent polynomials in t1..t4 with int
coefficients, since every dimension and signed cochain count is an integer;
ideals in fewer variables are embedded with zero exponents in the unused
slots.
"""

from __future__ import annotations

import operator
from itertools import combinations
from math import gcd

from .errors import BoundExceeded, InternalInconsistency
from .exact import Laurent, unpack
from .partitions import MonomialIdeal

GENERATOR_CAP = 16


def _rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix given as a list of rows.

    Fraction-free elimination below each pivot; each updated row is divided
    by the gcd of its entries, so the entries stay small.  A matrix of one
    nonzero row or one column has rank 1 with no elimination.
    """
    m = [row for row in rows if any(row)]
    if not m:
        return 0
    if len(m) == 1 or len(m[0]) == 1:
        return 1
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank]
        a = p[col]
        for i in range(rank + 1, len(m)):
            c = m[i][col]
            if c:
                row = [a * x - c * y for x, y in zip(m[i], p)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        rank += 1
        if rank == len(m):
            break
    return rank


def _check_generators(ideal: MonomialIdeal) -> None:
    """Refuse an ideal with more generators than the Taylor complex cap."""
    r = len(ideal.gens)
    if r > GENERATOR_CAP:
        raise BoundExceeded(f"{r} generators exceeds the Taylor complex cap {GENERATOR_CAP}")


def _subsets(gens, nv: int, sizes):
    """(size, bit mask, lcm) of every subset of the generators with a size in sizes."""
    zero = (0,) * nv
    for k in sizes:
        for subset in combinations(range(len(gens)), k):
            lcm = tuple(map(max, zip(zero, *(gens[g] for g in subset))))
            yield k, sum(1 << g for g in subset), lcm


def ext_characters(ideal: MonomialIdeal,
                   degree: tuple[int, ...] | None = None) -> dict[int, Laurent]:
    """Characters of Ext^i(O_Z, O_Z); Ext^i(I, O_Z) is the entry at i + 1.

    Returns a dict mapping cohomological degree to the exact torus character;
    degrees with vanishing Ext are simply absent.  With `degree` set to a
    tuple of degrees, only those are computed, from the subsets of the
    generators they need.

    Multidegrees are packed into ints, as signed digits in base 2a + 1 with
    the first coordinate most significant, where a is the largest exponent
    of a generator.  The generators are a partition's addable boxes, so
    every variable has a pure power among them and every other generator has
    a smaller exponent in that variable: lcms have coordinates in [0, a],
    boxes in [0, a - 1], multidegrees b - lcm(S) in [-a, a - 1] and row
    targets mu + lcm(U) in [-a, 2a - 1].  Any two vectors compared here
    differ by at most 2a - 1 in each coordinate, so their codes are equal
    only when they are, and multidegree codes sort and decode as the vectors
    do.
    """
    _check_generators(ideal)
    boxes = ideal.staircase()
    nv = ideal.nvars
    gens = ideal.gens
    r = len(gens)
    wanted = range(r + 1) if degree is None else degree
    lo = max(min(wanted) - 1, 0)
    hi = min(max(wanted), r)

    base = 2 * max(map(max, gens)) + 1
    powers = [base ** i for i in reversed(range(nv))]

    def pack(v) -> int:
        return sum(map(operator.mul, v, powers))

    box_codes = [pack(b) for b in boxes]
    box_set = set(box_codes)
    # cochains of size k at multidegree mu: the subsets S with mu + lcm(S) a
    # box, as bit masks; sizes lo..hi only, the rows of d_hi are found lazily
    cochains: dict[int, dict[int, list[int]]] = {k: {} for k in range(lo, hi + 1)}
    lcms: dict[int, tuple[int, ...]] = {}
    lcm_codes: dict[int, int] = {}
    for k, mask, a in _subsets(gens, nv, range(lo, hi + 1)):
        lcms[mask] = a
        code = lcm_codes[mask] = pack(a)
        at = cochains[k]
        for b in box_codes:
            masks = at.get(b - code)
            if masks is None:
                at[b - code] = [mask]
            else:
                masks.append(mask)

    def rank(k: int, mu: int) -> int:
        """Rank of the differential from size k to size k + 1 at mu.

        The row of U exists iff mu + lcm(U) is a box; rows that no column
        hits are zero and are never built.
        """
        at = cochains.get(k)
        cols = at.get(mu) if at is not None else None
        if not cols or (k < hi and mu not in cochains[k + 1]):
            return 0
        rows: dict[int, list[int]] = {}
        for j, mask in enumerate(cols):
            for g in range(r):
                bit = 1 << g
                if mask & bit:
                    continue
                umask = mask | bit
                code = lcm_codes.get(umask)
                if code is None:
                    code = lcm_codes[umask] = pack(map(max, lcms[mask], gens[g]))
                if mu + code in box_set:
                    row = rows.get(umask)
                    if row is None:
                        row = rows[umask] = [0] * len(cols)
                    row[j] = -1 if (umask & (bit - 1)).bit_count() % 2 else 1
        return _rank(list(rows.values())) if rows else 0

    pad = (0,) * (4 - nv)
    chars: dict[int, dict[tuple[int, ...], int]] = {}
    mdegs = set().union(*(cochains[k] for k in wanted if k in cochains))
    for mu in sorted(mdegs):
        ranks: dict[int, int] = {}
        for k in wanted:
            cols = cochains[k].get(mu) if k in cochains else None
            if not cols:
                continue
            for j in (k - 1, k):
                if j not in ranks:
                    ranks[j] = rank(j, mu)
            dim = len(cols) - ranks[k] - ranks[k - 1]
            if dim < 0:
                raise InternalInconsistency(
                    f"negative cohomology dimension {dim} of Ext^{k} at multidegree "
                    f"{unpack(mu, nv, base)}")
            if dim:
                if k > nv:
                    raise InternalInconsistency(
                        f"nonzero Ext^{k} beyond the global dimension at multidegree "
                        f"{unpack(mu, nv, base)}")
                chars.setdefault(k, {})[unpack(mu, nv, base) + pad] = dim

    return {k: Laurent(terms) for k, terms in sorted(chars.items())}


def _lcm_sum(ideal: MonomialIdeal) -> dict[tuple[int, ...], int]:
    """K = sum over all subsets S of the generators of (-1)^|S| t^lcm(S).

    Collapsed one generator g at a time, K <- K - sum over the terms c t^m
    of K of c t^lcm(m, g): the subsets that hold g against those that do
    not.  Equal lcms cancel as they appear and no subset is listed.
    """
    zero = (0,) * ideal.nvars
    k_poly = {zero: 1}
    for g in ideal.gens:
        for m, c in list(k_poly.items()):
            lcm = tuple(map(max, m, g))
            k_poly[lcm] = k_poly.get(lcm, 0) - c
        k_poly = {m: c for m, c in k_poly.items() if c}
    return k_poly


def euler_character(ideal: MonomialIdeal) -> Laurent:
    """chi(O_Z, O_Z), the alternating sum of the Ext characters, from the cochains.

    The cochain of a subset S and a box b sits in Ext degree |S| at
    multidegree b - lcm(S), so the sum of (-1)^degree t^multidegree over all
    of them is Q bar(K), one Laurent product, with Q the box character and
    K the signed lcm sum of `_lcm_sum`.  chi(I, O_Z) is Q - chi(O_Z, O_Z).
    """
    _check_generators(ideal)
    k_poly = _lcm_sum(ideal)
    pad = (0,) * (4 - ideal.nvars)
    q = ideal.partition.character()
    return q * Laurent({tuple(-x for x in m) + pad: c for m, c in k_poly.items()})
