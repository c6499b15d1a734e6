"""Equivariant localization for degree zero ideal-sheaf counting on C^4.

Fixed points of the torus action are monomial ideals, one per solid
partition.  At a fixed point the virtual tangent character is the closed
form

    T = Q + bar(Q) kappa^{-1} - Q bar(Q) (1 - t1^{-1})(1 - t2^{-1})(1 - t3^{-1})(1 - t4^{-1})

with Q the box character and kappa = t1 t2 t3 t4.  On the subtorus where
kappa = 1 the obstruction weights pair off as (w, -w), a zero weight with
itself; the contribution of the fixed point is the orientation sign times
the product of one weight from each pair, divided by the product of the
tangent weights, so a zero weight makes it zero.  All arithmetic is exact.

The summand needs the characters only on that subtorus, where
T = V + bar(V) with V = Q - Q bar(Q) (1 - t1^{-1})(1 - t2^{-1})(1 - t3^{-1}).
A fixed point is built from V and E1 = Hom(I, O_Z) as flat int dicts keyed
by packed subtorus codes, with no Laurent polynomial (`characters`).  A
summand record holds its weights as reduced int triples, each code decoded
once per process, and evaluates them with local arithmetic; the record
oracle decodes the codes again and evaluates them with its own `LinForm`.
The closed form T on the full torus is built the same way, packed with
one base for every level (`vertex_character`); the `vertex` report reads
it as a Laurent polynomial.  The Taylor complex of `taylor` serves only the
checks, the resolution oracle and the cross-check of E1 and E2 against
Ext^1 and Ext^2(O_Z, O_Z), and the cyclic completion report, so E1 comes
from a different route than every Taylor oracle that checks it.  The two
oracles read it through `resolution`, once per S4 orbit and run, as the
exponents at the orbit's first point the run meets, packed at each point
along the perm that relabels that point to it, as `Summand.relabeled`
moves a record: a passing check compares int codes and builds no Laurent
polynomial, a failing one reports both sides as Laurent polynomials.

Only that last evaluation depends on the parameters; it gives each point
as exact ints (num, den), and the series reduces each level once.  The
rest of a summand is kept per process in a compact `Summand` record, so a
second series at new parameters builds no fixed point data.  Relabeling
the four axes
permutes the fixed points and carries their weights along, so every cache
entry has one shape, (record, perm, eps): the point's summand at s is eps
times the record's at s permuted.  Only the series writes the cache: when
it builds the first point of an S4 orbit, in level order, it writes the
entry of every point of the orbit, its own with the identity and +1; a
point built elsewhere keeps its record on itself.  `record_oracle_check`
compares each entry's record, moved along its permutation
(`Summand.relabeled`), with the point's direct build, and the value the
series printed with a product over the point's own codes, decoded and
evaluated apart.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, product
from math import prod
from operator import itemgetter

from .characters import (_moved_units, half_codes, mirrored, pack_moved, subtorus_triple,
                         tangent_codes, unpack_terms, vertex_character)
from .errors import InternalInconsistency, NonGenericParameters
from .exact import Laurent, LinForm, form_str, fraction_sum, integer_scaling, number_str
from .partitions import DPartition, partition_from_id, partition_levels
from .taylor import ext_characters, euler_character

# the exponent of a decimal coordinate such as 15e-1, written as Fraction reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")


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
            try:
                got = ", got " + ",".join(map(str, s))
            except ValueError:  # a coordinate past the int string limit
                got = ""
            raise ValueError(f"parameter coordinates must sum to zero{got}")
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
        # Fraction builds 10**exponent first, so a huge exponent would hang it
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        for p in parts:
            if len(p) > limit:  # int() would refuse its digits
                raise ValueError(f"a coordinate is longer than {limit} characters")
            if (m := _EXPONENT.search(p)) and abs(int(m[1])) > limit:
                raise ValueError(f"the exponent of {p!r} exceeds {limit} in magnitude")
        return cls(tuple(Fraction(p) for p in parts))

    def __str__(self) -> str:
        return ",".join(map(number_str, self.s))


class OrientationData:
    """Sign choice per fixed point, keyed by canonical partition id.

    Missing entries default to +1, so the empty map is the reference
    orientation convention.  A key that names no solid partition would be
    silently ignored, so it is rejected, as is any sign that is not the
    integer +1 or -1 (JSON `true` and `1.0` compare equal to 1).  Each key
    is resolved to its partition once, here, so looking up a partition's
    sign builds no id.
    """

    __slots__ = ("by_partition",)

    def __init__(self, signs: dict[str, int] | None = None):
        by_partition: dict[DPartition, int] = {}
        for key, val in (signs or {}).items():
            if not isinstance(key, str):
                raise ValueError(f"orientation key {key!r} is not a string")
            pi = partition_from_id(key, 4)
            if pi is None:
                raise ValueError(f"orientation key {key!r} is not the canonical id "
                                 f"of a solid partition")
            if type(val) is not int or val not in (1, -1):
                raise ValueError(f"orientation for {key!r} must be +1 or -1, got {val!r}")
            by_partition[pi] = val
        self.by_partition = by_partition

    # the most characters an orientation file may hold; a file that names
    # every point with n <= 13 holds about 5.5 million
    MAX_CHARS = 16 * 2 ** 20

    @classmethod
    def from_file(cls, path: str) -> "OrientationData":
        import json
        with open(path) as fh:
            text = fh.read(cls.MAX_CHARS + 1)
        if len(text) > cls.MAX_CHARS:
            raise ValueError(f"longer than {cls.MAX_CHARS} characters")
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(f"not valid JSON: {e}")
        except RecursionError:
            raise ValueError("nested too deeply to read")
        except ValueError:  # an integer of more digits than int() reads
            raise ValueError("holds an integer too long to read")
        if not isinstance(raw, dict):
            raise ValueError("must hold a JSON object")
        return cls(raw)

    def sign(self, partition: DPartition) -> int:
        return self.by_partition.get(partition, 1)

    def flipped(self, partition: DPartition) -> "OrientationData":
        """A copy with the sign of `partition` negated."""
        out = OrientationData()
        out.by_partition = {**self.by_partition, partition: -self.by_partition.get(partition, 1)}
        return out


def half_euler(codes: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """One weight from each (w, -w) pair, as sorted (code, multiplicity) pairs.

    The weights are `subtorus_code`s with their multiplicities; each pair
    gives its positive weight.  The zero weight is its own pair and gives
    half its multiplicity, a zero factor that makes the product zero.  A
    multiset that does not split into opposite pairs, or an odd multiplicity
    at zero, has no square root, a broken invariant: InternalInconsistency.
    """
    for w, m in codes.items():
        if codes.get(-w, 0) != m:
            raise InternalInconsistency(
                f"weight {w} has multiplicity {m} but {-w} has {codes.get(-w, 0)}")
    if codes.get(0, 0) % 2:
        raise InternalInconsistency(f"the zero weight has odd multiplicity {codes[0]}")
    return tuple(sorted((w, m // 2 if w == 0 else m) for w, m in codes.items() if w >= 0))


# code -> reduced triple, decoded once per process, so every record at
# every level that holds a weight shares one triple for it
_TRIPLES: dict[int, tuple[int, int, int]] = {}


def weight_triples(codes) -> tuple[tuple[int, int, int], ...]:
    """The reduced triple of each code, in order, from the shared cache."""
    get = _TRIPLES.get
    return tuple(get(k) or _TRIPLES.setdefault(k, subtorus_triple(k)) for k in codes)


def sorted_triples(codes: dict[int, int]) -> tuple[tuple[int, int, int], ...]:
    """A code -> multiplicity map as reduced triples sorted by code, each
    repeated by its multiplicity."""
    return weight_triples([k for k in sorted(codes) for _ in range(codes[k])])


class FixedPointData:
    """Everything the localization formula needs at one fixed point.

    The characters the summand needs are restricted to the subtorus and kept
    as dicts from `subtorus_code` to multiplicity: `half` holds V, `e1` the
    tangent and `e2` the obstruction character E1 + bar(E1) - T, built as
    `mirrored(e1 - half)`, so self dual and of 2|E1| - 2n weights by
    construction; the rank of V and the effectivity of E1 and E2 are
    checked.  Every reduced coefficient they hold lies in [-2n + 1, 2n - 1],
    inside the digit range, so adding codes adds vectors, negating is `bar`,
    codes sort as their reduced triples do, and a code is positive exactly
    when its triple is above (0, 0, 0).  `e1_terms` holds E1 on the full
    torus, packed as `tangent_codes` counts it.

    Views, each built on first access: `tvir_codes`, the packed closed
    form of `vertex_character` that the resolution oracle compares, and
    what the `vertex` report reads, `tvir`, the same as a Laurent
    polynomial, and the weight lists, as records hold them (`sorted_triples`).
    """

    def __init__(self, partition: DPartition):
        if partition.d != 4:
            raise ValueError("fixed points live in dimension 4")
        self.partition = partition
        n = partition.size
        self.half = half = half_codes(partition)
        if sum(half.values()) != n:
            raise InternalInconsistency(
                f"virtual dimension shadow {2 * sum(half.values())} != {2 * n}")
        self.e1, self.e1_terms = tangent_codes(partition)
        self._effective(self.e1, "tangent")
        w = dict(self.e1)
        for k, m in half.items():
            w[k] = w.get(k, 0) - m
        self.e2 = mirrored(w)
        self._effective(self.e2, "obstruction")

    def _effective(self, codes: dict[int, int], what: str) -> None:
        bad = {form_str(subtorus_triple(k)): m for k, m in codes.items() if m < 0}
        if bad:
            raise InternalInconsistency(f"{what} character has non effective terms {bad}")

    @cached_property
    def tvir_codes(self) -> dict[int, int]:
        return vertex_character(self.partition)

    @cached_property
    def tvir(self) -> Laurent:
        return unpack_terms(self.tvir_codes)

    @cached_property
    def e1_weights(self) -> tuple[tuple[int, int, int], ...]:
        return sorted_triples(self.e1)

    @cached_property
    def e2_weights(self) -> tuple[tuple[int, int, int], ...]:
        return sorted_triples(self.e2)

    def summand(self) -> "Summand":
        """The compact record of this point's summand, built on first call
        and kept on the point; no module cache is read or written."""
        if "_summand" not in self.__dict__:
            self._summand = Summand(self)
        return self._summand

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
    each a tuple of reduced int triples sorted by code, every weight repeated
    by its multiplicity, so their lengths are the two degrees.  A zero
    obstruction weight is a zero factor, (0, 0, 0), so the product is zero;
    the orientation sign, applied only in `value`, is the only sign a
    summand meets.  No characters are kept.  They are read from the point's
    `e1` and `e2` codes, one shared triple per distinct code
    (`weight_triples`), and the checks that do not depend on the parameters
    run here, once per point.
    """

    __slots__ = ("tangent", "factors")

    def __init__(self, data: FixedPointData):
        if 0 in data.e1:
            raise InternalInconsistency("zero weight in the tangent character")
        self.tangent = sorted_triples(data.e1)
        self.factors = sorted_triples(dict(half_euler(data.e2)))

    def value(self, params: TorusParams, orientation: int = 1, at=None) -> Fraction:
        """The summand at s with the given orientation sign, from `ints` at
        L*s or at `at`, such as L*s permuted.  The first tangent weight, in
        sorted order, that vanishes raises NonGenericParameters."""
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        scale, s = params.scaled
        at = s if at is None else at
        num, den = self.ints(scale, at, orientation)
        if not den:
            x, y, z, _ = at
            w = next(w for w in self.tangent if w[0] * x + w[1] * y + w[2] * z == 0)
            raise NonGenericParameters(f"tangent weight {form_str(w)} vanishes at s = {params}")
        return Fraction(num, den)

    def ints(self, scale: int, at, sign: int) -> tuple[int, int]:
        """(num, den), the summand as num/den with its weights at `at`, L*s
        or L*s permuted for L = `scale`: sign times the factor product times
        L to the tangent degree, over the tangent product times L to the
        factor degree.  A zero factor makes num 0, a vanishing tangent
        weight den 0."""
        x, y, z, _ = at
        num = sign * prod([a * x + b * y + c * z for a, b, c in self.factors])
        den = prod([a * x + b * y + c * z for a, b, c in self.tangent])
        return num * scale ** len(self.tangent), den * scale ** len(self.factors)

    def relabeled(self, perm) -> "Summand":
        """The record of the relabeled point `pi.relabeled(perm)`, from this one.

        Each weight moves to its permuted triple (`moved_codes`), each factor
        to the positive code of its pair, and both are sorted by code again,
        so the result equals the direct build field by field.
        """
        out = Summand.__new__(Summand)
        out.tangent = weight_triples(sorted(moved_codes(self.tangent, perm)))
        out.factors = weight_triples(sorted(map(abs, moved_codes(self.factors, perm))))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Summand):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in Summand.__slots__)


def moved_codes(triples, perm) -> list[int]:
    """The code of each reduced triple, in order, with its coefficients
    permuted as `DPartition.relabeled(perm)` permutes box coordinates: with
    v = triple + (0,), the triple (v[p0] - v[p3], v[p1] - v[p3],
    v[p2] - v[p3]).  The move and the packing are linear in the triple, so
    the code is read off the moved unit codes that `pack_moved` reads too.
    """
    k0, k1, k2, _ = _moved_units(perm)[1]
    return [a * k0 + b * k1 + c * k2 for a, b, c in triples]


def transport_sign(record: Summand, perm) -> int:
    """The sign eps with summand(q) at s = eps * summand(rep) at s', for
    q = rep.relabeled(perm) and s'[j] = s[perm.index(j)]: -1 to the number
    of factor occurrences whose moved code (`moved_codes`) is negative, the
    factors that `Summand.relabeled` turns to the positive code of their
    pair."""
    return -1 if sum(k < 0 for k in moved_codes(record.factors, perm)) % 2 else 1


# each perm of the four axes with the getter that moves a box as
# `DPartition.relabeled(perm)` does and the one that moves s as the series
# does, s'[j] = s[perm.index(j)]
_MOVES = [(perm, itemgetter(*perm), itemgetter(*map(perm.index, range(4))))
          for perm in permutations(range(4))]

# summand cache: partition -> (record, perm, eps), the point's summand at s
# being eps times the record's at L*s permuted by perm; the built point of
# an orbit has (identity, 1).  Written only by `dt4_degree0_series`, for a
# whole orbit when it builds the orbit's first point; kept for the life of
# the process, like the partition levels it is keyed by
_SUMMANDS: dict[DPartition, tuple[Summand, tuple, int]] = {}


def resolution(partition: DPartition, what: str, memo=None) -> tuple[tuple, dict, bool]:
    """The resolution route at a point by degree: for `what` "tvir",
    Q + bar(Q) kappa^-1 - chi(O_Z, O_Z) at 0, for "ext" the (1, 2) window
    of Ext; computed at most once per `memo`, its own if None, and S4
    orbit, on the ideal of the orbit's first point the memo meets, which
    maps the boxes of each of its relabelings q = point.relabeled(perm) to
    (ideal, perm).  Returns (perm, terms, fits): the route's (exponent,
    value) pairs at that point, which Ext of a monomial ideal, equivariant
    under permuting the variables, moves to q as `relabeled` moves a box;
    and whether every exponent lies in [-n, n], where packed codes
    (`pack_moved`) cannot alias."""
    memo = {} if memo is None else memo
    if partition.boxes not in memo:
        ideal = partition.to_ideal()
        for perm, move, _ in _MOVES:
            memo.setdefault(tuple(sorted(map(move, partition.boxes))), (ideal, perm))
    ideal, perm = memo[partition.boxes]
    got = memo.get((ideal, what))
    if got is None:
        if what == "tvir":
            units = Laurent({e: 1 for b in ideal.staircase()
                             for e in (b, tuple(-x - 1 for x in b))})
            chars = {0: units - euler_character(ideal)}
        else:
            chars = ext_characters(ideal, degree=(1, 2))
        terms = {i: list(ch.terms.items()) for i, ch in chars.items()}
        n = partition.size
        got = memo[ideal, what] = terms, all(
            -n <= x <= n for pairs in terms.values() for e, _ in pairs for x in e)
    return perm, *got


def _moved_laurent(terms, perm) -> Laurent:
    """Terms of `resolution` moved to the point as a Laurent polynomial."""
    move = itemgetter(*perm)
    return Laurent({move(e): m for e, m in terms})


def vertex_oracle_check(data: FixedPointData, memo=None) -> tuple[bool, object, object]:
    """The closed form T (`vertex_character`) on the full torus, and the
    point's packed T, `mirrored(half)`, on the subtorus, versus the route
    Q + bar(Q) kappa^-1 - chi(O_Z, O_Z) as packed codes, read through
    `resolution` on the run's `memo`.  Returns (ok, lhs, rhs): T and the
    route as Laurent polynomials when they disagree, else None for both,
    so a passing check builds no Laurent polynomial."""
    perm, route, fits = resolution(data.partition, "tvir", memo)
    if fits and pack_moved(route[0], perm) == (data.tvir_codes, mirrored(data.half)):
        return True, None, None
    return False, data.tvir, _moved_laurent(route[0], perm)


def obstruction_crosscheck(data: FixedPointData, memo=None) -> tuple[bool, object, object]:
    """E1 and the obstruction character versus Ext^1 and Ext^2(O_Z, O_Z)
    from the resolution route, which are Ext^0 and Ext^1(I, O_Z) by the
    ideal sequence.

    One Taylor call gives both degrees: Ext^1 needs the rank of d1, which
    Ext^2 builds anyway, and the rank of d0, which is zero.  E1 is
    compared on the full torus, as the packed `e1_terms`, and as the
    point's packed `e1`, E2 as the packed `e2` the summand is read from,
    all as packed codes; the window is read through `resolution`, on the
    run's `memo`.  Returns (ok, lhs, rhs): (E1, packed E2) and (Ext^1,
    packed Ext^2), E1 and Ext^1 as Laurent polynomials, when they
    disagree, else None for both.
    """
    perm, ext, fits = resolution(data.partition, "ext", memo)
    e1, e2 = ext.get(1, ()), pack_moved(ext.get(2, ()), perm)[1]
    if fits and pack_moved(e1, perm) == (data.e1_terms, data.e1) and data.e2 == e2:
        return True, None, None
    return False, (unpack_terms(data.e1_terms), data.e2), (_moved_laurent(e1, perm), e2)


def record_oracle_check(data: FixedPointData, params: TorusParams, orientation: int,
                        printed: Fraction) -> bool:
    """The point's entry in the summand cache versus its direct build.

    The entry's record moved along its permutation, the identity for the
    point a series built, must equal the direct build field by field.  The
    value the series printed must equal, with the point's orientation sign,
    a product at L*s over the point's own codes, each decoded here and
    evaluated by a `LinForm`: one weight of each (w, -w) pair of `e2`, the
    one above the zero triple, over every weight of `e1`, each to its
    multiplicity.  That product shares no code with `Summand.ints`.  A
    point with no entry fails, and the cache is only read.
    """
    entry = _SUMMANDS.get(data.partition)
    if entry is None:
        return False
    rep, perm, _ = entry
    if rep.relabeled(perm) != Summand(data):
        return False
    scale, s = params.scaled
    tangent = [(LinForm(subtorus_triple(k)), m) for k, m in data.e1.items()]
    obstruction = [(LinForm(subtorus_triple(k)), m) for k, m in data.e2.items()]
    den = prod(w.evaluate(s) ** m for w, m in tangent)
    if not den:
        return False
    if any(w.reduced == (0, 0, 0) for w, _ in obstruction):
        return printed == 0
    halves = [(w, m) for w, m in obstruction if w.reduced > (0, 0, 0)]
    num = orientation * prod(w.evaluate(s) ** m for w, m in halves)
    return Fraction(num * scale ** sum(m for _, m in tangent),
                    den * scale ** sum(m for _, m in halves)) == printed


def dt4_degree0_series(n_max: int, params: TorusParams | None = None,
                       orientation: OrientationData | None = None,
                       want_details: bool = False):
    """Degree zero invariants as exact series coefficients c_0..c_{n_max}.

    c_n is the sum of fixed point contributions over all solid partitions of
    size n, in canonical partition order.  Every point is evaluated from its
    cache entry (record, perm, eps) as eps times the record at L*s permuted,
    s'[j] = s[perm.index(j)].  A point with no entry is built, and every
    point q = pi.relabeled(perm) of its S4 orbit with no entry yet, pi
    itself first, gets (pi's record, perm, eps) (`transport_sign`).  Only
    this writes the cache, so the identity entries are the first point of
    each orbit in level order; a cold call builds only those and a later
    call at new parameters or a new orientation only evaluates.  When an
    evaluation meets a vanishing tangent weight, the record moved to the
    point raises instead, so the error names the first such weight in the
    point's own sorted order.  The orientation sign is applied at
    evaluation.  A point is evaluated as exact ints (`Summand.ints`), a
    point the call builds or a printed row as its reduced Fraction, and each
    level is reduced once (`fraction_sum`).  Everything runs on the calling
    thread.
    """
    if params is None:
        params = TorusParams.default()
    if orientation is None:
        orientation = OrientationData()
    levels = partition_levels(4, n_max)
    scale, scaled = params.scaled
    moved_s = {perm: unmove(scaled) for perm, _, unmove in _MOVES}

    coeffs = []
    details = []
    for n, level in enumerate(levels):
        pairs = []
        by_boxes = None  # boxes -> the level's own point, made at its first build
        for pi in level:
            sign = orientation.sign(pi)
            entry = _SUMMANDS.get(pi)
            v = None
            if entry is None:
                data = FixedPointData(pi)
                rep = data.summand()
                if by_boxes is None:
                    by_boxes = {q.boxes: q for q in level}
                for perm, move, _ in _MOVES:
                    q = by_boxes[tuple(sorted(map(move, pi.boxes)))]
                    if q not in _SUMMANDS:
                        _SUMMANDS[q] = (rep, perm, transport_sign(rep, perm))
                v = data.contribution(params, sign)
            else:
                rep, perm, eps = entry
                num, den = rep.ints(scale, moved_s[perm], eps * sign)
                if not den:
                    v = rep.relabeled(perm).value(params, sign)
                elif want_details:
                    v = Fraction(num, den)
            if v is not None:
                num, den = v.numerator, v.denominator
            pairs.append((num, den))
            if want_details:
                details.append((n, pi.id(), v))
        coeffs.append(fraction_sum(pairs))
    if want_details:
        return coeffs, details
    return coeffs


def cyclic_completion_report(pi3: DPartition) -> dict:
    """Compare Ext on C^4 for a plane partition pushed into the hyperplane
    against the two sided completion of its Ext on C^3, after reduction to
    the subtorus.  The pushed partition is the same boxes with a zero fourth
    coordinate."""
    if pi3.d != 3:
        raise ValueError("cyclic completion compares dimension 3 against 4")
    ideal3 = pi3.to_ideal()
    ideal4 = DPartition(4, [b + (0,) for b in pi3.boxes]).to_ideal()
    ext3 = ext_characters(ideal3)
    ext4 = ext_characters(ideal4)
    rows = []
    ok = True
    for i in range(5):
        lhs = ext4.get(i, Laurent()).cy_reduce()
        low = ext3.get(i, Laurent()).cy_reduce()
        dual = ext3.get(4 - i, Laurent()).bar().cy_reduce()
        rhs = low + dual
        match = lhs == rhs
        ok = ok and match
        rows.append({"degree": i, "match": match, "lhs": lhs, "rhs": rhs})
    return {"partition": pi3.id(), "ok": ok, "rows": rows}


def one_box_symbolic_report() -> dict:
    """Symbolic shape of the one box contribution.

    The numerator must be plus or minus the third elementary symmetric
    function of s1..s4 and the denominator product of tangent weights must
    be the fourth, both modulo the coordinate sum relation.  Both are read
    from the point's `Summand` record, the factors the series evaluates.

    Each side is compared by exact value on the grid {0..D}^3 of (s1, s2, s3),
    s4 = -(s1 + s2 + s3), with D the largest total degree among the two
    products (the lengths of the record's `factors` and `tangent`), e3 and
    e4.  A polynomial of degree at most D in each variable that vanishes on
    that grid is zero, so agreement there is an identity.
    """
    record = FixedPointData(DPartition(4, [(0, 0, 0, 0)])).summand()

    def value(triples, s):
        return prod(a * s[0] + b * s[1] + c * s[2] for a, b, c in triples)

    bound = max(len(record.factors), len(record.tangent), 4)
    grid = [head + (-sum(head),) for head in product(range(bound + 1), repeat=3)]
    num = [value(record.factors, s) for s in grid]
    e3 = [sum(prod(c) for c in combinations(s, 3)) for s in grid]
    num_sign = next((sign for sign in (1, -1) if num == [sign * v for v in e3]), 0)
    # e4 has the one term s1 s2 s3 s4
    den_matches = all(value(record.tangent, s) == prod(s) for s in grid)
    return {"numerator_sign": num_sign, "denominator_matches": den_matches,
            "ok": num_sign != 0 and den_matches}
