"""Finite d-dimensional partitions and their monomial ideals, d in {2, 3, 4}.

A partition is a finite downward-closed set of boxes in N^d: whenever a box
is present, so is every box obtained by decreasing one coordinate.  Size n
means n boxes.  Enumeration is incremental box addition: each level is every
partition of the level below with one addable box added, deduplicated on
the sorted box tuples and sorted, since a partition of size n arises once
from each of its removable boxes; each kept partition is built once.
"""

from __future__ import annotations

import os
from operator import index

from .errors import BoundExceeded
from .exact import Laurent

Box = tuple[int, ...]

DEFAULT_BOUNDS = {2: 25, 3: 12, 4: 8}

ENV_BOUND_VAR = "DT4_MAX_N"


def size_bound(d: int) -> int:
    """Largest admissible n for dimension d; DT4_MAX_N, an integer of at
    least 0, overrides the d = 4 cap."""
    _check_dim(d)
    if d == 4:
        raw = os.environ.get(ENV_BOUND_VAR)
        if raw is not None:
            try:
                bound = int(raw)
            except ValueError:
                raise BoundExceeded(f"{ENV_BOUND_VAR} must be an integer, got {raw!r}")
            if bound < 0:
                raise BoundExceeded(f"{ENV_BOUND_VAR} must be at least 0, got {raw!r}")
            return bound
    return DEFAULT_BOUNDS[d]


def _check_dim(d: int):
    if d not in (2, 3, 4):
        raise ValueError(f"dimension must be 2, 3 or 4, got {d}")


def is_downward_closed(boxes, d: int) -> bool:
    s = set(boxes)
    for b in s:
        for i in range(d):
            if b[i] > 0:
                lower = b[:i] + (b[i] - 1,) + b[i + 1:]
                if lower not in s:
                    return False
    return True


class _BoxText(dict):
    """Box -> its "x,y,.." text, filled on first use: a series names each
    box in thousands of ids, and a lookup is cheaper than a join."""

    def __missing__(self, box: Box) -> str:
        text = self[box] = ",".join(map(str, box))
        return text


_BOX_TEXT = _BoxText()


class DPartition:
    """A finite downward-closed box set, stored as a lex-sorted tuple.

    The constructor checks that every box is a point of N^d, with integer
    coordinates, that no box repeats and that the set is closed, and raises
    ValueError otherwise; `relabeled`, which keeps all three by
    construction, skips the checks.
    """

    __slots__ = ("d", "boxes")

    def __init__(self, d: int, boxes=()):
        _check_dim(d)
        points = []
        for b in boxes:
            try:
                points.append(tuple(map(index, b)))
            except TypeError:  # a coordinate that is not an integer
                raise ValueError(f"box {b!r} is not a point of N^{d}") from None
        boxes = tuple(sorted(points))
        for i, b in enumerate(boxes):
            if len(b) != d or any(x < 0 for x in b):
                raise ValueError(f"box {b!r} is not a point of N^{d}")
            if i and b == boxes[i - 1]:
                raise ValueError(f"box {b!r} is repeated")
        if not is_downward_closed(boxes, d):
            raise ValueError("box set is not downward closed")
        self.d = d
        self.boxes = boxes

    @property
    def size(self) -> int:
        return len(self.boxes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DPartition):
            return NotImplemented
        return self.d == other.d and self.boxes == other.boxes

    def __hash__(self):
        return hash((self.d, self.boxes))

    def id(self) -> str:
        """Canonical identifier: boxes lex-sorted, 'x,y,..;x,y,..', 'empty' for n = 0."""
        if not self.boxes:
            return "empty"
        return ";".join(map(_BOX_TEXT.__getitem__, self.boxes))

    def addable_boxes(self) -> list[Box]:
        """Boxes whose addition keeps the set downward closed, lex-sorted.

        A box c outside the set is addable when c - e_j is in it for every
        j with c_j > 0, that is when it is one step above as many boxes as
        c has nonzero coordinates.
        """
        d = self.d
        if not self.boxes:
            return [(0,) * d]
        above: dict[Box, int] = {}
        get = above.get
        for b in self.boxes:
            for i in range(d):
                c = b[:i] + (b[i] + 1,) + b[i + 1:]
                above[c] = get(c, 0) + 1
        present = set(self.boxes)
        return sorted(c for c, k in above.items() if k == d - c.count(0) and c not in present)

    @classmethod
    def _trusted(cls, d: int, boxes: tuple[Box, ...]) -> "DPartition":
        """A partition of sorted boxes already known to be one, unchecked."""
        out = cls.__new__(cls)
        out.d = d
        out.boxes = boxes
        return out

    def relabeled(self, perm) -> "DPartition":
        """Apply a coordinate permutation; the result is again a partition."""
        if sorted(perm) != list(range(self.d)):
            raise ValueError(f"not a permutation of 0..{self.d - 1}: {perm!r}")
        return DPartition._trusted(self.d, tuple(sorted(
            tuple(b[perm[i]] for i in range(self.d)) for b in self.boxes)))

    def character(self) -> Laurent:
        """Sum of t^box, boxes embedded into four variables with zero padding."""
        pad = (0,) * (4 - self.d)
        return Laurent({b + pad: 1 for b in self.boxes})

    def to_ideal(self) -> "MonomialIdeal":
        """The monomial ideal whose staircase is this partition."""
        return MonomialIdeal(self)

    def __repr__(self) -> str:
        return f"DPartition(d={self.d}, {self.id()!r})"


def partition_from_id(text: str, d: int) -> DPartition | None:
    """The partition in dimension d whose canonical id is `text`, or None."""
    if text == "empty":
        return DPartition(d)
    try:
        boxes = [tuple(int(x) for x in box.split(",")) for box in text.split(";")]
        pi = DPartition(d, boxes)
    except ValueError:
        return None
    return pi if pi.id() == text else None


# level cache: (d, n) -> tuple of DPartition, filled one size at a time
_levels: dict[tuple[int, int], tuple[DPartition, ...]] = {}


def _over_bound(d: int, n: int, bound: int) -> BoundExceeded:
    msg = f"size {n} exceeds the d={d} bound {bound}"
    if d == 4:
        msg += f" (set {ENV_BOUND_VAR} to raise the cap)"
    return BoundExceeded(msg)


def enumerate_partitions(d: int, n: int) -> tuple[DPartition, ...]:
    """All partitions of size n in dimension d, in lex order on box lists."""
    _check_dim(d)
    if n < 0:
        raise ValueError("size must be nonnegative")
    bound = size_bound(d)
    if n > bound:
        raise _over_bound(d, n, bound)
    for k in range(n + 1):
        if (d, k) in _levels:
            continue
        if k == 0:
            _levels[(d, 0)] = (DPartition(d),)
            continue
        grown = {tuple(sorted(pi.boxes + (c,))) for pi in _levels[(d, k - 1)]
                 for c in pi.addable_boxes()}
        _levels[(d, k)] = tuple(DPartition._trusted(d, boxes) for boxes in sorted(grown))
    return _levels[(d, n)]


def partition_levels(d: int, n_max: int) -> list[tuple[DPartition, ...]]:
    """The levels of sizes 0..n_max in dimension d.

    The bound is checked before any level is built: past it, the error
    names the first size over the bound, as a loop over the levels would.
    """
    _check_dim(d)
    if n_max < 0:
        raise ValueError("size must be nonnegative")
    bound = size_bound(d)
    if n_max > bound:
        raise _over_bound(d, bound + 1, bound)
    return [enumerate_partitions(d, n) for n in range(n_max + 1)]


COUNT_BOUND_2 = 10000


def partition_numbers(n_max: int) -> list[int]:
    """p(0)..p(n_max) by the Euler pentagonal number recurrence."""
    if n_max < 0:
        raise ValueError("size must be nonnegative")
    p = [0] * (n_max + 1)
    p[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def partition_counts(d: int, n_max: int) -> list[int]:
    """Number of partitions of each size 0..n_max in dimension d.

    For d = 2 these are the partition numbers, from one pentagonal
    recurrence over the whole range, which stays fast far beyond the range
    where listing every partition is reasonable (up to n = 10000); the
    agreement with enumerate_partitions is covered by tests on the shared
    range.  For d = 3 and 4 they are the lengths of the enumerated levels.
    Either bound is checked before any count is made.
    """
    if d != 2:
        return [len(level) for level in partition_levels(d, n_max)]
    if n_max > COUNT_BOUND_2:
        raise BoundExceeded(f"size {COUNT_BOUND_2 + 1} is out of range for counting")
    return partition_numbers(n_max)


class MonomialIdeal:
    """Monomial ideal of a partition: the span of the monomials outside it.

    The partition is the ideal's staircase, and its addable boxes, the
    minimal points of the complement, are the minimal generators `gens`.
    Every ideal of finite colength is the ideal of its staircase partition.
    """

    __slots__ = ("partition", "nvars", "gens")

    def __init__(self, partition: DPartition):
        self.partition = partition
        self.nvars = partition.d
        self.gens = tuple(partition.addable_boxes())

    def staircase(self) -> tuple[Box, ...]:
        """Boxes outside the ideal: the partition's own boxes."""
        return self.partition.boxes

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.partition == other.partition

    def __hash__(self):
        return hash(self.partition)

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.nvars}, {list(self.gens)})"
