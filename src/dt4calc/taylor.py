"""Multigraded Ext of monomial ideals, computed from the Taylor resolution.

For a monomial ideal I with generators m_1..m_r the Taylor complex has one
free summand per subset S of the generators, placed in homological degree
|S| and twisted by lcm(m_S).  It resolves R/I for every monomial ideal, and
its truncation at degree >= 1 resolves I.  Applying Hom(-, R/I) gives a
finite complex of finite dimensional multigraded vector spaces, and the Ext
groups are read off one multidegree at a time from the ranks of its
differentials, found by fraction-free elimination over the integers, which
is exact over the rationals.

The cochains of Ext^i sit on the subsets of size k = i (source O_Z) or
k = i + 1 (source I), and Ext^i only needs the differentials into and out
of that degree.  Asked for one degree, `ext_characters` builds only the
subsets of size k - 1, k and k + 1, which is O(r^(k+1)) of them rather than
2^r; asked for several, the sizes from the lowest k - 1 to the highest
k + 1.  Without a degree it builds every subset and returns every degree.

The Euler characteristic needs no ranks at all: each differential cancels
equal dimensions in adjacent degrees, so `euler_character` sums the signed
cochains directly.

The fixed points of the localization do not come through here: their
tangent character is counted from graph components in `localize`.  These
routes serve the checks, `vertex_oracle_check` (through `euler_character`),
`obstruction_crosscheck` (Ext^0 and Ext^1 of I in one call) and the cyclic
completion report behind `cyclic-check`.

Characters are returned as Laurent polynomials in t1..t4 with int
coefficients, since every dimension and signed cochain count is an integer;
ideals in fewer variables are embedded with zero exponents in the unused
slots.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .errors import BoundExceeded, InternalInconsistency
from .exact import Laurent
from .partitions import MonomialIdeal

GENERATOR_CAP = 16


def _rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix given as a list of rows.

    Fraction-free elimination below each pivot; each updated row is divided
    by the gcd of its entries, so the entries stay small.
    """
    m = [row for row in rows if any(row)]
    rank = 0
    for col in range(len(m[0]) if m else 0):
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


def _source_shift(ideal: MonomialIdeal, source: str) -> int:
    """Taylor degree of the Ext^0 cochains, after the checks every route makes.

    Ext^i(I, O_Z) is cohomology of the same cochain complex as
    Ext^i(O_Z, O_Z) with the degree zero column dropped and indices moved
    down by one, so the shift is 0 for source "OZ,OZ" and 1 for "I,OZ".
    """
    if source not in ("OZ,OZ", "I,OZ"):
        raise ValueError(f"unknown source {source!r}")
    r = len(ideal.gens)
    if r > GENERATOR_CAP:
        raise BoundExceeded(f"{r} generators exceeds the Taylor complex cap {GENERATOR_CAP}")
    return 0 if source == "OZ,OZ" else 1


def _subsets(gens, nv: int, sizes):
    """(size, bit mask, lcm) of every subset of the generators with a size in sizes."""
    zero = (0,) * nv
    for k in sizes:
        for subset in combinations(range(len(gens)), k):
            lcm = tuple(map(max, zip(zero, *(gens[g] for g in subset))))
            yield k, sum(1 << g for g in subset), lcm


def ext_characters(ideal: MonomialIdeal, source: str = "OZ,OZ",
                   degree: int | tuple[int, ...] | None = None) -> dict[int, Laurent]:
    """Characters of Ext^i(F, O_Z) for F = O_Z (source "OZ,OZ") or F = I ("I,OZ").

    Returns a dict mapping cohomological degree to the exact torus character;
    degrees with vanishing Ext are simply absent.  With `degree` set to one
    degree or a tuple of them, only those are computed, from the subsets of
    the generators they need.
    """
    shift = _source_shift(ideal, source)
    boxes = ideal.staircase()
    nv = ideal.nvars
    gens = ideal.gens
    r = len(gens)
    if not boxes:
        return {}

    top = nv - shift
    if degree is None:
        sizes = range(shift, r + 1)
        wanted = sizes
    else:
        wanted = tuple(i + shift for i in ((degree,) if isinstance(degree, int) else degree))
        sizes = range(max(min(wanted) - 1, shift), min(max(wanted) + 1, r) + 1)

    # cochain basis: (mask, box) in degree |S|, multidegree box - lcm(S)
    lcms: dict[int, tuple[int, ...]] = {}
    by_mdeg: dict[tuple[int, ...], dict[int, list[tuple[int, tuple[int, ...]]]]] = {}
    for k, mask, a in _subsets(gens, nv, sizes):
        lcms[mask] = a
        for b in boxes:
            mu = tuple(x - y for x, y in zip(b, a))
            by_mdeg.setdefault(mu, {}).setdefault(k, []).append((mask, b))

    chars: dict[int, dict[tuple[int, ...], int]] = {}
    for mu, levels in sorted(by_mdeg.items()):
        if not any(k in levels for k in wanted):
            continue
        for lst in levels.values():
            lst.sort()
        index = {k: {elem: i for i, elem in enumerate(lst)} for k, lst in levels.items()}
        ranks: dict[int, int] = {}
        for k in sorted(levels):
            cols = levels[k]
            rows_index = index.get(k + 1)
            if not rows_index:
                continue
            mat = [[0] * len(cols) for _ in rows_index]
            for j, (mask, b) in enumerate(cols):
                for g in range(r):
                    bit = 1 << g
                    if mask & bit:
                        continue
                    umask = mask | bit
                    # image box: b + lcm(U) - lcm(S), equivalently mu + lcm(U)
                    cbox = tuple(x + y for x, y in zip(mu, lcms[umask]))
                    row = rows_index.get((umask, cbox))
                    if row is None:
                        continue
                    below = (umask & (bit - 1)).bit_count()
                    sign = 1 if below % 2 == 0 else -1
                    mat[row][j] = sign
            ranks[k] = _rank(mat)
        for k in wanted:
            if k not in levels:
                continue
            i = k - shift
            dim = len(levels[k]) - ranks.get(k, 0) - ranks.get(k - 1, 0)
            if dim < 0:
                raise InternalInconsistency(
                    f"negative cohomology dimension {dim} of Ext^{i} at multidegree {mu}")
            if dim:
                if i > top:
                    raise InternalInconsistency(
                        f"nonzero Ext^{i} beyond the global dimension at multidegree {mu}")
                pad = mu + (0,) * (4 - nv)
                chars.setdefault(i, {})[pad] = dim

    return {i: Laurent(terms) for i, terms in sorted(chars.items())}


def euler_character(ideal: MonomialIdeal, source: str = "OZ,OZ") -> Laurent:
    """Alternating sum of the Ext characters, read off the cochains alone.

    The cochain of a subset S and a box b sits in Ext degree |S| - shift at
    multidegree b - lcm(S); summing (-1)^degree t^multidegree over all of
    them gives the Euler characteristic with no differential and no rank.
    """
    shift = _source_shift(ideal, source)
    boxes = ideal.staircase()
    pad = (0,) * (4 - ideal.nvars)
    terms: dict[tuple[int, ...], int] = {}
    for k, _, a in _subsets(ideal.gens, ideal.nvars, range(shift, len(ideal.gens) + 1)):
        sign = -1 if (k - shift) % 2 else 1
        for b in boxes:
            mu = tuple(x - y for x, y in zip(b, a)) + pad
            terms[mu] = terms.get(mu, 0) + sign
    return Laurent(terms)
