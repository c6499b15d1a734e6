"""Ext characters of monomial ideals via the lcm-twisted free resolution."""

import itertools

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dt4calc import taylor
from dt4calc.errors import BoundExceeded, InternalInconsistency
from dt4calc.exact import Laurent
from dt4calc.partitions import DPartition, enumerate_partitions
from dt4calc.taylor import _rank, ext_characters, euler_character


def elementary_in_inverses(k, nv):
    """e_k(t_1^-1 .. t_nv^-1) as a Laurent polynomial in four slots."""
    out = Laurent()
    for combo in itertools.combinations(range(nv), k):
        e = [0, 0, 0, 0]
        for i in combo:
            e[i] = -1
        out = out + Laurent.monomial(e)
    return out


def box_character(ideal) -> Laurent:
    out = Laurent()
    for b in ideal.staircase():
        e = list(b) + [0] * (4 - len(b))
        out = out + Laurent.monomial(e)
    return out


def conj_product(nv) -> Laurent:
    out = Laurent({(0, 0, 0, 0): 1})
    for i in range(nv):
        e = [0, 0, 0, 0]
        e[i] = -1
        out = out * (Laurent({(0, 0, 0, 0): 1}) - Laurent.monomial(e))
    return out


# The subset-by-subset routes that `ext_characters` and `euler_character`
# replaced, kept as references: every cochain as a (mask, box) pair with a
# tuple multidegree, every row of every differential built, and the Euler
# character summed over all 2^r subsets and all boxes.  Each computes
# Ext^i(F, O_Z) for F = O_Z (source "OZ,OZ") or F = I ("I,OZ") directly:
# the cochains of Ext^i(I, O_Z) are the subsets of size i + 1.

SHIFT = {"OZ,OZ": 0, "I,OZ": 1}


def reference_subsets(gens, nv, sizes):
    zero = (0,) * nv
    for k in sizes:
        for subset in itertools.combinations(range(len(gens)), k):
            lcm = tuple(map(max, zip(zero, *(gens[g] for g in subset))))
            yield k, sum(1 << g for g in subset), lcm


def reference_ext_characters(ideal, source="OZ,OZ"):
    shift = SHIFT[source]
    boxes = ideal.staircase()
    nv = ideal.nvars
    gens = ideal.gens
    r = len(gens)
    if not boxes:
        return {}
    top = nv - shift
    lcms = {}
    by_mdeg = {}
    for k, mask, a in reference_subsets(gens, nv, range(shift, r + 1)):
        lcms[mask] = a
        for b in boxes:
            mu = tuple(x - y for x, y in zip(b, a))
            by_mdeg.setdefault(mu, {}).setdefault(k, []).append((mask, b))
    chars = {}
    for mu, levels in sorted(by_mdeg.items()):
        for lst in levels.values():
            lst.sort()
        index = {k: {elem: i for i, elem in enumerate(lst)} for k, lst in levels.items()}
        ranks = {}
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
                    cbox = tuple(x + y for x, y in zip(mu, lcms[umask]))
                    row = rows_index.get((umask, cbox))
                    if row is None:
                        continue
                    below = (umask & (bit - 1)).bit_count()
                    mat[row][j] = 1 if below % 2 == 0 else -1
            ranks[k] = _rank(mat)
        for k, cols in levels.items():
            i = k - shift
            dim = len(cols) - ranks.get(k, 0) - ranks.get(k - 1, 0)
            assert dim >= 0 and (not dim or i <= top), (mu, i, dim)
            if dim:
                chars.setdefault(i, {})[mu + (0,) * (4 - nv)] = dim
    return {i: Laurent(terms) for i, terms in sorted(chars.items())}


def reference_euler_character(ideal, source="OZ,OZ"):
    shift = SHIFT[source]
    boxes = ideal.staircase()
    pad = (0,) * (4 - ideal.nvars)
    terms = {}
    for k, _, a in reference_subsets(ideal.gens, ideal.nvars,
                                     range(shift, len(ideal.gens) + 1)):
        sign = -1 if (k - shift) % 2 else 1
        for b in boxes:
            mu = tuple(x - y for x, y in zip(b, a)) + pad
            terms[mu] = terms.get(mu, 0) + sign
    return Laurent(terms)


def ext_from(ideal, source, degree=None):
    """Ext^i(F, O_Z) from `ext_characters`, for F as in the references:
    Ext^i(I, O_Z) is read as Ext^(i+1)(O_Z, O_Z), by the ideal sequence."""
    if source == "OZ,OZ":
        return ext_characters(ideal, degree=degree)
    shifted = None if degree is None else tuple(i + 1 for i in degree)
    return {i - 1: ch for i, ch in ext_characters(ideal, degree=shifted).items() if i}


def test_one_point_self_ext_is_the_exterior_algebra():
    ideal = DPartition(4, [(0, 0, 0, 0)]).to_ideal()
    ext = ext_characters(ideal)
    assert [sum(ext[i].terms.values()) for i in range(5)] == [1, 4, 6, 4, 1]
    for i in range(5):
        assert ext[i] == elementary_in_inverses(i, 4)


def test_one_point_in_three_variables():
    ideal = DPartition(3, [(0, 0, 0)]).to_ideal()
    ext = ext_characters(ideal)
    assert [sum(ext.get(i, Laurent()).terms.values()) for i in range(4)] == [1, 3, 3, 1]
    for i in range(4):
        assert ext[i] == elementary_in_inverses(i, 3)
    assert 4 not in ext or not ext[4].terms


def test_one_point_ideal_source_shifts_the_self_ext():
    ideal = DPartition(4, [(0, 0, 0, 0)]).to_ideal()
    oz = ext_characters(ideal)
    ioz = reference_ext_characters(ideal, "I,OZ")
    # Hom(I, O_Z) is the tangent space; higher groups continue the pattern
    assert ioz[0] == oz[1]
    for i in range(1, 4):
        assert ioz[i] == oz[i + 1]


@pytest.mark.parametrize("n", range(4))
def test_euler_characteristic_identity_self(n):
    # alternating sum of Ext(O_Z,O_Z) equals Q * bar(Q) * prod(1 - t_i^-1)
    for pi in enumerate_partitions(4, n):
        ideal = pi.to_ideal()
        q = box_character(ideal)
        assert euler_character(ideal) == q * q.bar() * conj_product(4)


@pytest.mark.parametrize("n", range(4))
def test_euler_characteristic_identity_ideal_source(n):
    # chi(I, O_Z) = chi(O, O_Z) - chi(O_Z, O_Z) = Q - Q * bar(Q) * prod
    for pi in enumerate_partitions(4, n):
        ideal = pi.to_ideal()
        q = box_character(ideal)
        expected = q - q * q.bar() * conj_product(4)
        assert q - euler_character(ideal) == expected


@pytest.mark.parametrize("n", range(4))
def test_euler_characteristic_identity_three_variables(n):
    for pi in enumerate_partitions(3, n):
        ideal = pi.to_ideal()
        q = box_character(ideal)
        assert euler_character(ideal) == q * q.bar() * conj_product(3)


def test_ext_dimensions_are_nonnegative_and_finite():
    for pi in enumerate_partitions(4, 3):
        for source in ("OZ,OZ", "I,OZ"):
            for i, ch in ext_from(pi.to_ideal(), source).items():
                total = sum(ch.terms.values())
                assert total >= 0
                assert all(c > 0 for c in ch.terms.values())


def test_relabeling_permutes_characters():
    pi = DPartition(4, [(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)])
    perm = (1, 0, 3, 2)
    rho = pi.relabeled(perm)
    ext = ext_characters(pi.to_ideal())
    ext_r = ext_characters(rho.to_ideal())
    for i in ext:
        moved = Laurent({tuple(e[perm.index(j)] for j in range(4)): c
                         for e, c in sorted(ext[i].terms.items())})
        assert ext_r[i] == moved


@pytest.mark.parametrize("route", ["euler_character", "ext_characters"])
def test_generator_cap(route):
    # the triangle {a + b < m} has the m + 1 generators (a, m - a): the cap
    # 16 at m = 15, one more at m = 16
    at_cap, over = (DPartition(2, [(a, b) for a in range(m) for b in range(m - a)]).to_ideal()
                    for m in (15, 16))
    assert (len(at_cap.gens), len(over.gens)) == (16, 17)
    q = box_character(at_cap)
    if route == "euler_character":
        run, expected = euler_character, q * q.bar() * conj_product(2)
    else:
        # Ext^0(O_Z, O_Z) = Hom(O_Z, O_Z) = O_Z, from the empty subset alone
        run, expected = (lambda ideal: ext_characters(ideal, degree=(0,))), {0: q}
    assert run(at_cap) == expected
    with pytest.raises(BoundExceeded,
                       match=r"^17 generators exceeds the Taylor complex cap 16$"):
        run(over)


@pytest.mark.parametrize("d", [4, 3])
def test_degree_window_matches_the_full_complex(d):
    for n in range(5):
        for pi in enumerate_partitions(d, n):
            ideal = pi.to_ideal()
            for source in ("OZ,OZ", "I,OZ"):
                full = ext_from(ideal, source)
                top = d - SHIFT[source]
                for i in range(top + 1):
                    window = ext_from(ideal, source, degree=(i,))
                    assert window == ({i: full[i]} if i in full else {}), (pi.id(), source, i)


@pytest.mark.parametrize("d,n_max", [(4, 5), (3, 4)])
def test_rank_free_euler_character_matches_the_full_complex(d, n_max):
    # 250 cases in all: every solid partition with n <= 5 and every plane
    # partition with n <= 4, each with both sources; chi(I, O_Z) is
    # Q - chi(O_Z, O_Z) by the ideal sequence
    cases = 0
    for n in range(n_max + 1):
        for pi in enumerate_partitions(d, n):
            ideal = pi.to_ideal()
            chi = euler_character(ideal)
            routes = {"OZ,OZ": chi, "I,OZ": box_character(ideal) - chi}
            for source, euler in routes.items():
                alternating = Laurent()
                for i, ch in ext_from(ideal, source).items():
                    alternating = alternating + (ch if i % 2 == 0 else -ch)
                assert euler == alternating, (pi.id(), source)
                cases += 1
    assert cases == {4: 202, 3: 48}[d]


def test_euler_character_computes_no_rank(monkeypatch):
    def refuse(rows):
        raise AssertionError("euler_character called _rank")

    monkeypatch.setattr(taylor, "_rank", refuse)
    ideal = enumerate_partitions(4, 4)[5].to_ideal()
    assert euler_character(ideal).terms


@st.composite
def integer_matrices(draw):
    """Entries in [-2, 2], with some rows and columns zeroed out."""
    nrows = draw(st.integers(0, 10))
    ncols = draw(st.integers(0, 10))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0))))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)], nrows, ncols


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_rank_matches_sympy(case):
    rows, nrows, ncols = case
    expected = sympy.Matrix(nrows, ncols, [x for row in rows for x in row]).rank()
    assert _rank(rows) == expected


def test_rank_is_over_the_rationals_not_mod_two():
    assert _rank([[1, 1], [1, -1]]) == 2
    assert _rank([[2, 4], [1, 2]]) == 1
    assert _rank([]) == 0
    assert _rank([[], []]) == 0


def test_negative_dimension_names_degree_and_multidegree(monkeypatch):
    # a rank larger than the cochain space forces the inconsistency
    monkeypatch.setattr(taylor, "_rank", lambda rows: 99)
    ideal = DPartition(4, [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)]).to_ideal()
    with pytest.raises(InternalInconsistency,
                       match=r"of Ext\^1 at multidegree \(0, 0, -2, 0\)"):
        ext_characters(ideal, degree=(1,))


def test_ext_beyond_the_global_dimension_is_refused(monkeypatch):
    # with every rank zero each cochain survives, and x^2, xy, y^2 in two
    # variables has cochains on its three-element subset
    monkeypatch.setattr(taylor, "_rank", lambda rows: 0)
    ideal = DPartition(2, [(0, 0), (1, 0), (0, 1)]).to_ideal()
    assert len(ideal.gens) > ideal.nvars
    with pytest.raises(InternalInconsistency) as exc:
        ext_characters(ideal)
    assert str(exc.value) == ("nonzero Ext^3 beyond the global dimension at "
                              "multidegree (-2, -2)")


def _windows(ideal, source):
    """Every degree argument the comparison covers: None, each single
    degree up to the global dimension, (0, 1) and (1, 2); the obstruction
    cross-check reads (1, 2) of "OZ,OZ", which is (0, 1) of "I,OZ"."""
    top = ideal.nvars - SHIFT[source]
    return [None, *((i,) for i in range(top + 1)), (0, 1), (1, 2)]


def _assert_routes_match_the_reference(ideal, source):
    full = reference_ext_characters(ideal, source)
    for degree in _windows(ideal, source):
        wanted = full if degree is None else {i: ch for i, ch in full.items() if i in degree}
        assert ext_from(ideal, source, degree) == wanted, (ideal, source, degree)
    euler = euler_character(ideal)
    if source == "I,OZ":
        euler = box_character(ideal) - euler
    assert euler == reference_euler_character(ideal, source), (ideal, source)


@pytest.mark.parametrize("source", ["OZ,OZ", "I,OZ"])
@pytest.mark.parametrize("n", range(7))
def test_routes_match_the_subset_reference_on_solid_partitions(n, source):
    for pi in enumerate_partitions(4, n):
        _assert_routes_match_the_reference(pi.to_ideal(), source)


@pytest.mark.parametrize("source", ["OZ,OZ", "I,OZ"])
@pytest.mark.parametrize("n", range(7))
def test_routes_match_the_subset_reference_on_plane_partitions(n, source):
    for pi in enumerate_partitions(3, n):
        ideal = pi.to_ideal()
        _assert_routes_match_the_reference(ideal, source)
        padded = DPartition(4, [b + (0,) for b in pi.boxes]).to_ideal()
        _assert_routes_match_the_reference(padded, source)


@pytest.mark.parametrize("d,n_max", [(4, 5), (3, 5)])
def test_lcm_sum_matches_the_sum_over_every_subset(d, n_max):
    for n in range(n_max + 1):
        for pi in enumerate_partitions(d, n):
            ideal = pi.to_ideal()
            brute = {}
            for size, _, lcm in reference_subsets(ideal.gens, d, range(len(ideal.gens) + 1)):
                brute[lcm] = brute.get(lcm, 0) + (-1) ** size
            assert taylor._lcm_sum(ideal) == {m: c for m, c in brute.items() if c}, pi.id()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_packing_on_single_axis_columns(d):
    # a column of height h has the largest generator exponent, h, so its
    # multidegrees reach -h and its row targets 2h - 1: the extreme digits;
    # height 0 is the empty partition, whose ideal is the unit ideal, and
    # every route gives it no Ext at all and a zero Euler character
    for axis in range(d):
        for h in range(9):
            column = DPartition(d, [tuple(k if i == axis else 0 for i in range(d))
                                    for k in range(h)])
            for source in ("OZ,OZ", "I,OZ"):
                _assert_routes_match_the_reference(column.to_ideal(), source)
