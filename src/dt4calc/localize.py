"""Equivariant localization for degree zero ideal-sheaf counting on C^4.

Fixed points of the torus action are monomial ideals, one per solid
partition.  At a fixed point the virtual tangent character is the closed
form

    T = Q + bar(Q) kappa^{-1} - Q bar(Q) (1 - t1^{-1})(1 - t2^{-1})(1 - t3^{-1})(1 - t4^{-1})

with Q the box character and kappa = t1 t2 t3 t4.  On the subtorus where
kappa = 1 the obstruction weights pair off as (w, -w); the contribution of
the fixed point is a sign choice times the product of one weight from each
pair, divided by the product of the tangent weights.  All arithmetic is
exact.

Only that last evaluation depends on the parameters.  The rest of a summand
is kept per process in a compact `Summand` record per partition, so a
second series at new parameters builds no fixed point data.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InternalInconsistency, NonGenericParameters, NotEffective, OddPairing
from .exact import FactoredWeightProduct, Laurent, LinForm, integer_scaling, weight_of
from .partitions import DPartition, MonomialIdeal, enumerate_partitions, partition_from_id
from .taylor import ext_characters, euler_character

KAPPA_INV = Laurent.monomial((-1, -1, -1, -1))


def _conjugation_factor() -> Laurent:
    p = Laurent.one()
    for i in range(1, 5):
        p = p * (Laurent.one() - Laurent.variable(i, -1))
    return p


_CONJ = _conjugation_factor()


def vertex_character(q: Laurent) -> Laurent:
    """Virtual tangent character at the fixed point with box character q."""
    qb = q.bar()
    return q + qb * KAPPA_INV - q * qb * _CONJ


class TorusParams:
    """A rational parameter vector (s1, s2, s3, s4) with coordinate sum zero.

    `scaled` is (L, L*s) with L the lcm of the denominators, for evaluating
    weights over the integers.
    """

    __slots__ = ("s", "scaled")

    def __init__(self, s):
        s = tuple(Fraction(x) for x in s)
        if len(s) != 4:
            raise ValueError("parameter vector must have four entries")
        if sum(s) != 0:
            shown = ",".join(str(x) for x in s)
            raise ValueError(f"parameter coordinates must sum to zero, got {shown}")
        self.s = s
        self.scaled = integer_scaling(s)

    @classmethod
    def default(cls) -> "TorusParams":
        return cls((1, 2, 3, -6))

    @classmethod
    def parse(cls, text: str) -> "TorusParams":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError(f"expected four comma separated values, got {text!r}")
        return cls(tuple(Fraction(p) for p in parts))

    def permuted(self, perm) -> "TorusParams":
        return TorusParams(tuple(self.s[perm[i]] for i in range(4)))

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.s)


class OrientationData:
    """Sign choice per fixed point, keyed by canonical partition id.

    Missing entries default to +1, so the empty map is the reference
    orientation convention.  A key that names no solid partition would be
    silently ignored, so it is rejected, as is any sign that is not the
    integer +1 or -1 (JSON `true` and `1.0` compare equal to 1).  Each key
    is resolved to its partition once, here, so looking up a partition's
    sign builds no id.
    """

    __slots__ = ("signs", "by_partition")

    def __init__(self, signs: dict[str, int] | None = None):
        signs = dict(signs or {})
        by_partition: dict[DPartition, int] = {}
        for key, val in signs.items():
            if not isinstance(key, str):
                raise ValueError(f"orientation key {key!r} is not a string")
            pi = partition_from_id(key, 4)
            if pi is None:
                raise ValueError(f"orientation key {key!r} is not the canonical id "
                                 f"of a solid partition")
            if type(val) is not int or val not in (1, -1):
                raise ValueError(f"orientation for {key!r} must be +1 or -1, got {val!r}")
            by_partition[pi] = val
        self.signs = signs
        self.by_partition = by_partition

    @classmethod
    def from_file(cls, path: str) -> "OrientationData":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as e:
                raise ValueError(f"orientation file {path} is not valid JSON: {e}")
        if not isinstance(raw, dict):
            raise ValueError(f"orientation file {path} must hold a JSON object")
        return cls(raw)

    def sign(self, partition_or_id) -> int:
        if isinstance(partition_or_id, DPartition):
            return self.by_partition.get(partition_or_id, 1)
        return self.signs.get(partition_or_id, 1)

    def flipped(self, key: str) -> "OrientationData":
        signs = dict(self.signs)
        signs[key] = -self.signs.get(key, 1)
        return OrientationData(signs)


def character_weights(ch: Laurent, what: str) -> list[LinForm]:
    """Expand an effective integral character into a sorted weight list."""
    bad = [(e, c) for e, c in ch.terms.items() if c.denominator != 1 or c < 0]
    if bad:
        raise NotEffective(f"{what} character has non effective terms {bad}")
    out: list[LinForm] = []
    for exp, c in ch.items_sorted():
        out.extend([weight_of(exp)] * int(c))
    out.sort(key=lambda w: w.reduced)
    return out


def half_euler(weights, orientation: int = 1) -> FactoredWeightProduct:
    """One weight from each (w, -w) pair, as a factored product times the sign.

    A zero weight makes the product zero.  If the multiset does not split
    into opposite pairs the square root does not exist and OddPairing is
    raised.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    counter: dict[LinForm, int] = {}
    for w in weights:
        if w.is_zero():
            return FactoredWeightProduct.zero_product()
        counter[w] = counter.get(w, 0) + 1
    for w, m in counter.items():
        if counter.get(-w, 0) != m:
            raise OddPairing(
                f"weight {w} has multiplicity {m} but {-w} has {counter.get(-w, 0)}")
    out = FactoredWeightProduct(sign=orientation)
    for w, m in sorted(counter.items(), key=lambda kv: kv[0].reduced):
        if w.is_canonical():
            out = out.times_weight(w, m)
    return out


class FixedPointData:
    """Everything the localization formula needs at one fixed point."""

    __slots__ = ("partition", "ideal", "q", "tvir", "e1_char", "e1_weights",
                 "e2_char", "e2_weights")

    def __init__(self, partition: DPartition):
        if partition.d != 4:
            raise ValueError("fixed points live in dimension 4")
        self.partition = partition
        self.ideal = partition.to_ideal()
        self.q = partition.character()
        self.tvir = vertex_character(self.q)
        n = partition.size
        if self.tvir.coeff_sum() != 2 * n:
            raise InternalInconsistency(
                f"virtual dimension shadow {self.tvir.coeff_sum()} != {2 * n}")
        self.e1_char = ext_characters(self.ideal, "I,OZ", degree=0).get(0, Laurent.zero())
        self.e1_weights = character_weights(self.e1_char, "tangent")
        e1cy = self.e1_char.cy_reduce()
        self.e2_char = e1cy + e1cy.bar() - self.tvir.cy_reduce()
        self.e2_weights = character_weights(self.e2_char, "obstruction")
        if self.e2_char != self.e2_char.bar():
            raise InternalInconsistency("obstruction character is not self dual")
        if len(self.e2_weights) != 2 * len(self.e1_weights) - 2 * n:
            raise InternalInconsistency("weight count violates the dimension law")

    def half(self, orientation: int = 1) -> FactoredWeightProduct:
        return half_euler(self.e2_weights, orientation)

    def summand(self) -> "Summand":
        """The compact record of this point's summand, made once per process."""
        record = _SUMMANDS.get(self.partition)
        if record is None:
            record = _SUMMANDS[self.partition] = Summand(self)
        return record

    def contribution(self, params: TorusParams, orientation: int = 1) -> Fraction:
        """Signed half Euler value over the tangent weight product at s.

        Genericity is enforced against every denominator weight; a vanishing
        numerator factor only kills this one summand, which leaves the total
        over all fixed points unchanged, so it evaluates to zero rather than
        raising.
        """
        return self.summand().value(params, orientation)


class Summand:
    """The parameter-free part of one fixed point's summand.

    `tangent` holds the tangent weights and `factors` the half Euler factors,
    each as (form, multiplicity) pairs in sorted order; `sign` is the half
    Euler sign at orientation +1, or 0 when an obstruction weight is the zero
    form.  No characters are kept.  The checks that do not depend on the
    parameters run here, once per point.
    """

    __slots__ = ("tangent", "sign", "factors", "tangent_count", "degree")

    def __init__(self, data: FixedPointData):
        tangent: dict[LinForm, int] = {}
        for w in data.e1_weights:  # sorted, and the dict keeps first-seen order
            if w.is_zero():
                raise InternalInconsistency("zero weight in the tangent character")
            tangent[w] = tangent.get(w, 0) + 1
        half = data.half(1)
        factors = sorted(half.factors.items(), key=lambda kv: kv[0].reduced)
        if any(m <= 0 for _, m in factors):
            raise InternalInconsistency("denominator factor in a half Euler product")
        self.tangent = tuple(tangent.items())
        self.sign = 0 if half.zero else half.sign
        self.factors = tuple(factors)
        self.tangent_count = len(data.e1_weights)
        self.degree = half.degree()

    def value(self, params: TorusParams, orientation: int = 1) -> Fraction:
        """The summand at s with the given orientation sign.

        Weights are evaluated at L*s, so both products are integers and one
        Fraction is built at the end.  The first tangent weight, in sorted
        order, that vanishes raises NonGenericParameters; a vanishing
        numerator factor makes the summand zero.
        """
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        scale, s = params.scaled
        den = 1
        for w, m in self.tangent:
            v = w.evaluate(s)
            if v == 0:
                raise NonGenericParameters(f"tangent weight {w} vanishes at s = {params}")
            den *= v ** m
        num = orientation * self.sign
        if not num:
            return Fraction(0)
        for w, m in self.factors:
            v = w.evaluate(s)
            if v == 0:
                return Fraction(0)
            num *= v ** m
        return Fraction(num * scale ** self.tangent_count, den * scale ** self.degree)


# summand cache: partition -> Summand, filled as points are first built and
# kept for the life of the process, like the partition levels it is keyed by
_SUMMANDS: dict[DPartition, Summand] = {}


def summand(pi: DPartition) -> Summand:
    """The cached summand record of a fixed point, building the point on a miss."""
    record = _SUMMANDS.get(pi)
    return record if record is not None else FixedPointData(pi).summand()


def vertex_oracle_check(data: FixedPointData) -> tuple[bool, Laurent, Laurent]:
    """Closed form versus the resolution route, on the full torus."""
    q = data.q
    rhs = q + q.bar() * KAPPA_INV - euler_character(data.ideal, "OZ,OZ")
    return data.tvir == rhs, data.tvir, rhs


def obstruction_crosscheck(data: FixedPointData) -> tuple[bool, Laurent, Laurent]:
    """Obstruction character versus Ext^1(I, O_Z) from the resolution route."""
    rhs = ext_characters(data.ideal, "I,OZ", degree=1).get(1, Laurent.zero()).cy_reduce()
    return data.e2_char == rhs, data.e2_char, rhs


def dt4_degree0_series(n_max: int, params: TorusParams | None = None,
                       orientation: OrientationData | None = None,
                       jobs: int = 1, want_details: bool = False):
    """Degree zero invariants as exact series coefficients c_0..c_{n_max}.

    c_n is the sum of fixed point contributions over all solid partitions of
    size n, in canonical partition order.  A point is built the first time
    any call in the process needs it, and its `Summand` record is kept, so a
    later call at new parameters or a new orientation only evaluates.  The
    orientation sign is applied after the record, at evaluation.  `jobs` is
    accepted and ignored: everything runs on the calling thread, because
    threads only contend for the interpreter lock here.
    """
    if params is None:
        params = TorusParams.default()
    if orientation is None:
        orientation = OrientationData()
    levels = [enumerate_partitions(4, n) for n in range(n_max + 1)]

    coeffs = []
    details = []
    for n, level in enumerate(levels):
        total = Fraction(0)
        for pi in level:
            sign = orientation.sign(pi)
            record = _SUMMANDS.get(pi)
            if record is None:
                v = FixedPointData(pi).contribution(params, sign)
            else:
                v = record.value(params, sign)
            total += v
            if want_details:
                details.append((n, pi.id(), v))
        coeffs.append(total)
    if want_details:
        return coeffs, details
    return coeffs


def relabeled_form(w: LinForm, perm) -> LinForm:
    """Coefficient vector permuted the same way box coordinates are."""
    return LinForm(tuple(w.a[perm[i]] for i in range(4)))


def transported_orientation(perm, n_max: int,
                            base: OrientationData | None = None) -> OrientationData:
    """Orientation data for relabeled partitions that matches a base choice.

    Relabeling coordinates maps the weight pairs of a partition to those of
    the relabeled partition, but the canonical representative of a pair can
    land on the opposite sign.  The transported orientation absorbs exactly
    those flips, so evaluating the relabeled partition at the permuted
    parameters reproduces the original summand value for value level
    symmetry of the whole sum.
    """
    if base is None:
        base = OrientationData()
    signs: dict[str, int] = {}
    for n in range(n_max + 1):
        for pi in enumerate_partitions(4, n):
            eps = 1
            for w, m in summand(pi).factors:
                if not relabeled_form(w, perm).is_canonical() and m % 2 == 1:
                    eps = -eps
            sign = eps * base.sign(pi)
            if sign != 1:
                signs[pi.relabeled(perm).id()] = sign
    return OrientationData(signs)


def cyclic_completion_report(pi3: DPartition) -> dict:
    """Compare Ext on C^4 for a plane partition pushed into the hyperplane
    against the two sided completion of its Ext on C^3, after reduction to
    the subtorus."""
    if pi3.d != 3:
        raise ValueError("cyclic completion compares dimension 3 against 4")
    ideal3 = pi3.to_ideal()
    ideal4 = ideal3.embed_in_four()
    ext3 = ext_characters(ideal3, "OZ,OZ")
    ext4 = ext_characters(ideal4, "OZ,OZ")
    rows = []
    ok = True
    for i in range(5):
        lhs = ext4.get(i, Laurent.zero()).cy_reduce()
        low = ext3.get(i, Laurent.zero()).cy_reduce()
        dual = ext3.get(4 - i, Laurent.zero()).bar().cy_reduce()
        rhs = low + dual
        match = lhs == rhs
        ok = ok and match
        rows.append({"degree": i, "match": match, "lhs": lhs, "rhs": rhs})
    return {"partition": pi3.id(), "ok": ok, "rows": rows}


# reduced polynomials in s1, s2, s3 (s4 eliminated), for symbolic checks

RPoly = dict[tuple[int, int, int], Fraction]


def _rp_scale(p: RPoly, c: Fraction) -> RPoly:
    return {e: c * v for e, v in p.items()} if c else {}


def _rp_add(p: RPoly, q: RPoly) -> RPoly:
    out = dict(p)
    for e, v in q.items():
        s = out.get(e, Fraction(0)) + v
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _rp_mul(p: RPoly, q: RPoly) -> RPoly:
    out: RPoly = {}
    for ea, va in p.items():
        for eb, vb in q.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            s = out.get(e, Fraction(0)) + va * vb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _rp_of_form(w: LinForm) -> RPoly:
    r = w.reduced
    out: RPoly = {}
    for i, c in enumerate(r):
        if c:
            e = [0, 0, 0]
            e[i] = 1
            out[tuple(e)] = Fraction(c)
    return out


def _rp_elementary(k: int) -> RPoly:
    """e_k(s1..s4) with s4 = -s1-s2-s3 substituted."""
    from itertools import combinations
    coords = [
        {(1, 0, 0): Fraction(1)},
        {(0, 1, 0): Fraction(1)},
        {(0, 0, 1): Fraction(1)},
        {(1, 0, 0): Fraction(-1), (0, 1, 0): Fraction(-1), (0, 0, 1): Fraction(-1)},
    ]
    total: RPoly = {}
    for idx in combinations(range(4), k):
        term: RPoly = {(0, 0, 0): Fraction(1)}
        for i in idx:
            term = _rp_mul(term, coords[i])
        total = _rp_add(total, term)
    return total


def _rp_product(sign: int, pairs) -> RPoly:
    """sign times the product of the forms to their multiplicities, expanded."""
    out: RPoly = {(0, 0, 0): Fraction(sign)} if sign else {}
    for w, m in pairs:
        p = _rp_of_form(w)
        for _ in range(m):
            out = _rp_mul(out, p)
    return out


def one_box_symbolic_report() -> dict:
    """Symbolic shape of the one box contribution.

    The numerator must be plus or minus the third elementary symmetric
    function of s1..s4 and the denominator product of tangent weights must
    be the fourth, both modulo the coordinate sum relation.  Both are read
    from the point's `Summand` record, the factors the series evaluates.
    """
    record = summand(DPartition(4, [(0, 0, 0, 0)]))
    num = _rp_product(record.sign, record.factors)
    e3 = _rp_elementary(3)
    e4 = _rp_elementary(4)
    num_sign = 0
    if num == e3:
        num_sign = 1
    elif num == _rp_scale(e3, Fraction(-1)):
        num_sign = -1
    den_matches = _rp_product(1, record.tangent) == e4
    return {"numerator_sign": num_sign, "denominator_matches": den_matches,
            "ok": num_sign != 0 and den_matches}
