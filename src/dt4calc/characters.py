"""A fixed point's characters as flat int dicts, with no Laurent polynomial.

Each exponent vector, reduced to the subtorus t1 t2 t3 t4 = 1, is packed
into one int (`subtorus_code`), so sums of vectors are sums of ints.

There (1 - t1^-1)...(1 - t4^-1) = P123 + bar(P123) with
P123 = (1 - t1^-1)(1 - t2^-1)(1 - t3^-1), so the virtual tangent character
is T = V + bar(V) (`mirrored`) with V = Q - Q bar(Q) P123, eight shifts of
the box differences (`half_codes`).  On the full torus, where exponents
are packed too (`torus_code`), T itself is 16 shifts of them
(`vertex_character`).  Both packings have one base for every level, fixed
for points of up to MAX_N boxes, whose codes, even a row target of
`tangent_codes`, are one-digit ints, below 2^30; a larger point raises
BoundExceeded before any code is built.

The tangent character E1 = Hom(I, O_Z) is counted from graph components at
each multidegree (`tangent_codes`), with no Taylor complex, no ideal and no
rank, and written straight to subtorus codes, its full torus terms kept
packed.  The resolution oracle packs the Taylor route's terms the same
ways (`pack_moved`); `unpack_terms` reads full torus terms as a Laurent
polynomial, for the `vertex` report and a failing check.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .errors import BoundExceeded
from .exact import Laurent, unpack
from .partitions import DPartition

MAX_N = 90
FULL = 2 * MAX_N + 1
SUB = 4 * MAX_N + 1


def torus_code(e) -> int:
    """The exponent vector e on the full torus as one int: signed digits in base
    FULL, the first most significant, distinct for vectors in [-MAX_N, MAX_N]^4."""
    return ((e[0] * FULL + e[1]) * FULL + e[2]) * FULL + e[3]


def subtorus_code(e) -> int:
    """The exponent or coefficient vector e on the subtorus, (e1-e4, e2-e4,
    e3-e4), as one int: signed digits in base SUB, the first most significant."""
    return ((e[0] - e[3]) * SUB + e[1] - e[3]) * SUB + e[2] - e[3]


def subtorus_triple(code: int) -> tuple[int, int, int]:
    """The reduced triple a `subtorus_code` packs."""
    return unpack(code, 3, SUB)


def _packable(partition: DPartition) -> tuple:
    """The boxes of a partition the packing serves; BoundExceeded past MAX_N."""
    if partition.size > MAX_N:
        raise BoundExceeded(f"{partition.size} boxes exceeds the packing cap {MAX_N}")
    return partition.boxes


# the (code, sign) of each term (-1)^|e| t^e of P1234 = (1 - t1^-1)...(1 - t4^-1)
# on the full torus, and of P123 = (1 - t1^-1)(1 - t2^-1)(1 - t3^-1) on the subtorus
_FULL_SHIFTS = [(torus_code(e), (-1) ** -sum(e)) for e in product((0, -1), repeat=4)]
_HALF_SHIFTS = [(subtorus_code(e + (0,)), (-1) ** -sum(e)) for e in product((0, -1), repeat=3)]


def _less_box_differences(boxes: list[int], shifts, out: dict[int, int]) -> dict[int, int]:
    """`out` less D times the sum of sign * t^shift over the (shift, sign)
    pairs, with no zero terms, all as codes of one packing: D = Q bar(Q) is
    the box differences, from the code of each box in `boxes`."""
    diffs: dict[int, int] = {}
    get = diffs.get
    for a in boxes:
        for b in boxes:
            d = a - b
            diffs[d] = get(d, 0) + 1
    # the terms of -sign * D, by sign
    signed = {1: [(d, -m) for d, m in diffs.items()], -1: list(diffs.items())}
    get = out.get
    for shift, sign in shifts:
        for d, m in signed[sign]:
            k = d + shift
            out[k] = get(k, 0) + m
    return {k: m for k, m in out.items() if m}


def half_codes(partition: DPartition) -> dict[int, int]:
    """The half V of the virtual tangent character T = V + bar(V) on the
    subtorus, code -> multiplicity, with no zero terms.

    There P1234 equals P123 + bar(P123), and the box differences
    D = Q bar(Q) are self dual, so V = Q - D P123: eight shifts of the box
    differences.
    """
    boxes = [subtorus_code(b) for b in _packable(partition)]
    return _less_box_differences(boxes, _HALF_SHIFTS, dict.fromkeys(boxes, 1))


def vertex_character(partition: DPartition) -> dict[int, int]:
    """The virtual tangent character T at a fixed point, code -> multiplicity
    on the full torus (`torus_code`), with no zero terms: Q + bar(Q) kappa^-1
    less 16 shifts of the box differences D = Q bar(Q), the terms of D P1234.
    Every exponent lies in [-n, n], so codes are equal only when exponents are."""
    if partition.d != 4:
        raise ValueError("fixed points live in dimension 4")
    boxes = [torus_code(b) for b in _packable(partition)]
    # bar(Q) kappa^-1 has the exponent -b - 1 for a box b, negative, so no box
    units = dict.fromkeys(boxes + [torus_code([-x - 1 for x in b]) for b in partition.boxes], 1)
    return _less_box_differences(boxes, _FULL_SHIFTS, units)


def pack_moved(terms, perm) -> tuple[dict[int, int], dict[int, int]]:
    """(exponent, value) terms with each exponent e moved as `DPartition.relabeled(perm)`
    moves a box, as (full torus, subtorus) codes -> value, each code a dot
    product of e with the codes of the moved unit vectors (`_moved_units`);
    exact for exponents in [-MAX_N, MAX_N], where full torus codes do not alias."""
    (f0, f1, f2, f3), (s0, s1, s2, s3) = _moved_units(perm)
    full: dict[int, int] = {}
    sub: dict[int, int] = {}
    get = sub.get
    for (a, b, c, d), m in terms:
        full[a * f0 + b * f1 + c * f2 + d * f3] = m
        k = a * s0 + b * s1 + c * s2 + d * s3
        sub[k] = get(k, 0) + m
    return full, {k: m for k, m in sub.items() if m}


@cache
def _moved_units(perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (full torus, subtorus) codes of the unit vectors `pack_moved` moves."""
    units = [tuple(int(i == perm.index(j)) for i in range(4)) for j in range(4)]
    return tuple(map(torus_code, units)), tuple(map(subtorus_code, units))


def mirrored(codes: dict[int, int]) -> dict[int, int]:
    """codes + bar(codes), with zero terms dropped: a self dual character."""
    out: dict[int, int] = {}
    for k, m in codes.items():
        m += codes.get(-k, 0)
        if m:
            out[k] = out[-k] = m
    return out


def tangent_codes(partition: DPartition) -> tuple[dict[int, int], dict[int, int]]:
    """E1 = Hom(I, O_Z) at a solid partition, with no matrix and no rank, as
    (codes, terms): subtorus code -> multiplicity, and the full torus terms,
    packed exponent -> multiplicity (`unpack_terms`).

    At a multidegree mu, Hom_mu is the kernel of the first Taylor
    differential on the generators h with mu + h a box, the live ones.  A
    pair {g, h} with mu + lcm(g, h) a box gives one row of it: c_h - c_g
    when both ends are live, which joins them, and c_g alone when only g is
    live, which grounds g.  So dim Hom_mu is the number of connected
    components of live generators that hold no grounded vertex.

    Generators are the addable boxes.  One pass over the (box, generator)
    pairs groups them by mu = box - generator, which gives each mu its live
    generators as a bitmask, and its subtorus code as code(box) -
    code(generator).  Every full torus vector compared here (`torus_code`)
    has coordinates in [-n, 2n - 1] and every box in [0, n - 1], so two of
    them differ by less than FULL = 2 MAX_N + 1 in each coordinate, and
    their codes are equal only when the vectors are.
    """
    boxes = _packable(partition)
    gens = partition.addable_boxes()
    box_codes = {torus_code(b) for b in boxes}
    gen_codes = [torus_code(g) for g in gens]
    gen_info = [(1 << i, pg, subtorus_code(g))
                for i, (g, pg) in enumerate(zip(gens, gen_codes))]
    # for each generator g, the (bit, packed lcm(g, h) - g) of the other
    # generators h whose lcm(g, h) - g is a box: when g is live, mu + g is a
    # box, so mu + lcm(g, h) is one only if lcm(g, h) - g, below it, is one
    pairs = []
    for i, (g0, g1, g2, g3) in enumerate(gens):
        row = []
        for j, (h0, h1, h2, h3) in enumerate(gens):
            d = ((((h0 - g0 if h0 > g0 else 0) * FULL + (h1 - g1 if h1 > g1 else 0)) * FULL
                  + (h2 - g2 if h2 > g2 else 0)) * FULL + (h3 - g3 if h3 > g3 else 0))
            if j != i and d in box_codes:
                row.append((1 << j, d))
        pairs.append(row)
    live: dict[int, int] = {}
    sub: dict[int, int] = {}
    for b in boxes:
        pb, sb = torus_code(b), subtorus_code(b)
        for bit, pg, sg in gen_info:
            mu = pb - pg
            mask = live.get(mu)
            if mask is None:
                live[mu] = bit
                sub[mu] = sb - sg
            else:
                live[mu] = mask | bit
    codes: dict[int, int] = {}
    terms: dict[int, int] = {}
    for mu, mask in live.items():
        todo = mask
        dim = 0
        while todo:
            stack = todo & -todo
            todo ^= stack
            grounded = False
            while stack:
                low = stack & -stack
                stack ^= low
                i = low.bit_length() - 1
                at = mu + gen_codes[i]
                for bit, d in pairs[i]:
                    if at + d in box_codes:
                        if bit & todo:
                            todo ^= bit
                            stack |= bit
                        elif not bit & mask:
                            grounded = True
            dim += not grounded
        if dim:
            terms[mu] = dim
            k = sub[mu]
            codes[k] = codes.get(k, 0) + dim
    return codes, terms


def unpack_terms(terms: dict[int, int]) -> Laurent:
    """Packed full torus terms, such as those of `tangent_codes`, as a
    Laurent polynomial: each key is a `torus_code`, four signed digits."""
    return Laurent({unpack(code, 4, FULL): m for code, m in terms.items()})
