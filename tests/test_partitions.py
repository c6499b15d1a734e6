"""Downward-closed partition enumeration against a brute-force oracle."""

import itertools

import pytest

from dt4calc import partitions
from dt4calc.errors import BoundExceeded
from dt4calc.exact import Laurent
from dt4calc.partitions import (DEFAULT_BOUNDS, DPartition, ENV_BOUND_VAR,
                                enumerate_partitions, is_downward_closed,
                                partition_counts, partition_from_id, partition_levels,
                                size_bound)


def brute_force_sets(d, n):
    """All downward-closed n-subsets of the grid, by exhaustion over a box
    large enough to contain any of them.  Completely independent of the
    growth-based enumerator."""
    cells = [c for c in itertools.product(range(n if n else 1), repeat=d)
             if sum(c) < n or n == 0]
    out = set()
    for combo in itertools.combinations(cells, n):
        chosen = set(combo)
        ok = all(
            all(tuple(x - (1 if i == j else 0) for i, x in enumerate(c)) in chosen
                for j in range(d) if c[j] > 0)
            for c in chosen)
        if ok:
            out.add(tuple(sorted(combo)))
    return out


@pytest.mark.parametrize("d,n", [(d, n) for d in (2, 3, 4) for n in range(5)])
def test_enumeration_matches_brute_force(d, n):
    got = {pi.boxes for pi in enumerate_partitions(d, n)}
    assert got == brute_force_sets(d, n)


def test_counts_frozen_small_tables():
    assert partition_counts(2, 7) == [1, 1, 2, 3, 5, 7, 11, 15]
    assert partition_counts(3, 5) == [1, 1, 3, 6, 13, 24]
    assert partition_counts(4, 4) == [1, 1, 4, 10, 26]


def test_two_row_counts_match_the_recurrence_far_past_enumeration():
    # d = 2 counts come from the pentagonal recurrence; spot check deep values
    assert partition_counts(2, 50)[50] == 204226
    assert partition_counts(2, 60)[60] == 966467


def test_count_agrees_with_enumeration_length():
    for d in (3, 4):
        for n in range(6 if d == 3 else 5):
            assert partition_counts(d, n)[n] == len(enumerate_partitions(d, n))


def test_enumeration_is_sorted_and_valid():
    for n in range(5):
        seen = []
        for pi in enumerate_partitions(4, n):
            assert pi.size == n
            assert is_downward_closed(pi.boxes, 4)
            seen.append(pi.id())
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)


def test_identifier_round_trip():
    for pi in enumerate_partitions(4, 3) + enumerate_partitions(4, 0):
        token = pi.id()
        assert partition_from_id(token, 4) is not None
        if token == "empty":
            boxes = ()
        else:
            boxes = tuple(tuple(int(x) for x in part.split(","))
                          for part in token.split(";"))
        assert boxes == pi.boxes


@pytest.mark.parametrize("d,n_max", [(2, 8), (3, 5), (4, 4)])
def test_ids_from_the_box_table_join_the_box_texts(d, n_max):
    # the ids read each box's text from a per-process table; they must be
    # the join of the boxes themselves, whatever the table held before
    partitions._BOX_TEXT.clear()
    for level in partition_levels(d, n_max):
        for pi in level:
            token = pi.id()
            assert token == (";".join(",".join(map(str, b)) for b in pi.boxes) or "empty")
            assert partition_from_id(token, d) == pi
    assert set(partitions._BOX_TEXT) == {b for level in partition_levels(d, n_max)
                                         for pi in level for b in pi.boxes}


def test_character_counts_boxes():
    for pi in enumerate_partitions(3, 4):
        ch = pi.character()
        assert sum(ch.terms.values()) == 4
        assert all(c > 0 for c in ch.terms.values())
        for box, _ in sorted(ch.terms.items()):
            assert len(box) == 4 and box[3] == 0


def test_addable_boxes_and_with_box():
    pi = DPartition(4, [(0, 0, 0, 0)])
    assert len(pi.addable_boxes()) == 4
    grown = DPartition(4, pi.boxes + ((1, 0, 0, 0),))
    assert grown.size == 2


def test_constructor_rejects_a_set_that_is_not_downward_closed():
    with pytest.raises(ValueError, match="not downward closed"):
        DPartition(4, [(1, 0, 0, 0)])
    with pytest.raises(ValueError, match="not downward closed"):
        DPartition(3, [(0, 0, 0), (1, 1, 0)])
    assert DPartition(4, [(0, 0, 0, 0), (1, 0, 0, 0)]).size == 2


def test_constructor_rejects_a_coordinate_that_is_not_an_integer():
    with pytest.raises(ValueError, match=r"box \(0\.7, 0, 0, 0\) is not a point of N\^4"):
        DPartition(4, [(0.7, 0, 0, 0)])
    with pytest.raises(ValueError, match=r"box \('1', 0, 0, 0\) is not a point of N\^4"):
        DPartition(4, [(0, 0, 0, 0), ("1", 0, 0, 0)])


def test_constructor_rejects_a_repeated_box():
    with pytest.raises(ValueError, match=r"box \(0, 0, 0, 0\) is repeated"):
        DPartition(4, [(0, 0, 0, 0), (0, 0, 0, 0)])
    with pytest.raises(ValueError, match=r"box \(1, 0, 0\) is repeated"):
        DPartition(3, [(1, 0, 0), (0, 0, 0), (1, 0, 0)])
    assert partition_from_id("0,0,0,0;0,0,0,0", 4) is None


def test_relabeling_permutes_axes():
    pi = DPartition(4, [(0, 0, 0, 0), (1, 0, 0, 0)])
    swapped = pi.relabeled((1, 0, 2, 3))
    assert swapped.boxes == ((0, 0, 0, 0), (0, 1, 0, 0))


@pytest.mark.parametrize("d,n_max", [(2, 12), (3, 8), (4, 6)])
def test_generators_are_the_minimal_points_outside_the_partition(d, n_max):
    # over the box [0, max_i + 1] in each coordinate i, a point is outside the
    # partition exactly when a generator divides it; past that box in
    # coordinate i, the pure power of degree max_i + 1 divides it
    def divides(g, c):
        return all(x <= y for x, y in zip(g, c))

    for n in range(n_max + 1):
        for pi in enumerate_partitions(d, n):
            gens = pi.to_ideal().gens
            boxes = set(pi.boxes)
            tops = [max((b[i] for b in boxes), default=-1) + 1 for i in range(d)]
            for c in itertools.product(*(range(t + 1) for t in tops)):
                assert (c not in boxes) == any(divides(g, c) for g in gens), (pi.id(), c)
            for i, t in enumerate(tops):
                assert tuple(t if j == i else 0 for j in range(d)) in gens, (pi.id(), i)
            assert not any(g != h and divides(g, h) for g in gens for h in gens), pi.id()


def test_enumeration_builds_each_partition_once(monkeypatch):
    # duplicates are dropped as box tuples, before any partition is made
    made = []

    class Counted(DPartition):
        __slots__ = ()

        def __new__(cls, *args):
            made.append(cls)
            return super().__new__(cls)

    monkeypatch.setattr(partitions, "_levels", {})
    monkeypatch.setattr(partitions, "DPartition", Counted)
    for d, n_max in ((2, 12), (3, 8), (4, 8)):
        for n in range(n_max + 1):
            made.clear()
            level = enumerate_partitions(d, n)
            assert len(made) == len(level), (d, n)


def padded(pi: DPartition) -> DPartition:
    """A plane partition pushed into C^4: its boxes with a zero fourth coordinate."""
    return DPartition(4, [b + (0,) for b in pi.boxes])


def test_embedding_into_four_variables():
    ideal = padded(DPartition(3, [(0, 0, 0)])).to_ideal()
    assert ideal.nvars == 4
    assert DPartition(4, ideal.staircase()).size == 1
    assert padded(DPartition(3)).to_ideal().staircase() == ()
    # the padded ideal is the plane partition's ideal padded, with t4 added
    for n in range(1, 7):
        for pi in enumerate_partitions(3, n):
            gens = [g + (0,) for g in pi.to_ideal().gens] + [(0, 0, 0, 1)]
            assert padded(pi).to_ideal().gens == tuple(sorted(gens)), pi.id()


def test_size_bound_and_env_override(monkeypatch):
    monkeypatch.delenv(ENV_BOUND_VAR, raising=False)
    assert size_bound(4) == DEFAULT_BOUNDS[4]
    with pytest.raises(BoundExceeded):
        enumerate_partitions(4, DEFAULT_BOUNDS[4] + 1)
    with pytest.raises(BoundExceeded):
        partition_counts(3, DEFAULT_BOUNDS[3] + 1)
    monkeypatch.setenv(ENV_BOUND_VAR, "9")
    assert size_bound(4) == 9
    assert size_bound(3) == DEFAULT_BOUNDS[3]  # override is d = 4 only
    assert partition_counts(4, 9)[9] == 1464
