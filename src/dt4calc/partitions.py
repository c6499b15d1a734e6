"""Finite d-dimensional partitions and their monomial ideals, d in {2, 3, 4}.

A partition is a finite downward-closed set of boxes in N^d: whenever a box
is present, so is every box obtained by decreasing one coordinate.  Size n
means n boxes.  Enumeration is incremental box addition with canonical-parent
pruning, so each partition of size n is produced exactly once from the
partition obtained by deleting its lexicographically largest removable box.
"""

from __future__ import annotations

import os

from .errors import BoundExceeded
from .exact import Laurent

Box = tuple[int, ...]

DEFAULT_BOUNDS = {2: 60, 3: 12, 4: 8}

ENV_BOUND_VAR = "DT4_MAX_N"


def size_bound(d: int) -> int:
    """Largest admissible n for dimension d; DT4_MAX_N overrides the d = 4 cap."""
    if d == 4:
        raw = os.environ.get(ENV_BOUND_VAR)
        if raw is not None:
            try:
                return int(raw)
            except ValueError:
                raise BoundExceeded(f"{ENV_BOUND_VAR} must be an integer, got {raw!r}")
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


class DPartition:
    """A finite downward-closed box set, stored as a lex-sorted tuple."""

    __slots__ = ("d", "boxes")

    def __init__(self, d: int, boxes=(), validate: bool = False):
        _check_dim(d)
        boxes = tuple(sorted(tuple(int(x) for x in b) for b in boxes))
        for b in boxes:
            if len(b) != d or any(x < 0 for x in b):
                raise ValueError(f"box {b!r} is not a point of N^{d}")
        if validate and not is_downward_closed(boxes, d):
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

    def __lt__(self, other: "DPartition") -> bool:
        return self.boxes < other.boxes

    def id(self) -> str:
        """Canonical identifier: boxes lex-sorted, 'x,y,..;x,y,..', 'empty' for n = 0."""
        if not self.boxes:
            return "empty"
        return ";".join(",".join(str(x) for x in b) for b in self.boxes)

    def addable_boxes(self) -> list[Box]:
        """Boxes whose addition keeps the set downward closed, lex-sorted."""
        present = set(self.boxes)
        if not present:
            return [(0,) * self.d]
        cands = set()
        for b in present:
            for i in range(self.d):
                cands.add(b[:i] + (b[i] + 1,) + b[i + 1:])
        out = []
        for c in cands:
            if c in present:
                continue
            ok = True
            for i in range(self.d):
                if c[i] > 0 and c[:i] + (c[i] - 1,) + c[i + 1:] not in present:
                    ok = False
                    break
            if ok:
                out.append(c)
        out.sort()
        return out

    def removable_boxes(self) -> list[Box]:
        """Boxes whose deletion keeps the set downward closed, lex-sorted."""
        present = set(self.boxes)
        out = []
        for b in self.boxes:
            if all(b[:i] + (b[i] + 1,) + b[i + 1:] not in present for i in range(self.d)):
                out.append(b)
        return out

    def with_box(self, c: Box) -> "DPartition":
        out = DPartition.__new__(DPartition)
        out.d = self.d
        out.boxes = tuple(sorted(self.boxes + (c,)))
        return out

    def relabeled(self, perm) -> "DPartition":
        """Apply a coordinate permutation; the result is again a partition."""
        if sorted(perm) != list(range(self.d)):
            raise ValueError(f"not a permutation of 0..{self.d - 1}: {perm!r}")
        boxes = tuple(sorted(tuple(b[perm[i]] for i in range(self.d)) for b in self.boxes))
        out = DPartition.__new__(DPartition)
        out.d = self.d
        out.boxes = boxes
        return out

    def character(self) -> Laurent:
        """Sum of t^box, boxes embedded into four variables with zero padding."""
        pad = (0,) * (4 - self.d)
        return Laurent({b + pad: 1 for b in self.boxes})

    def to_ideal(self) -> "MonomialIdeal":
        """Monomial ideal whose staircase complement is this partition.

        The minimal generators are exactly the addable boxes: the minimal
        points of the complement of the box set.
        """
        return MonomialIdeal(self.d, self.addable_boxes())

    def __repr__(self) -> str:
        return f"DPartition(d={self.d}, {self.id()!r})"


def partition_from_id(text: str, d: int) -> DPartition | None:
    """The partition in dimension d whose canonical id is `text`, or None."""
    if text == "empty":
        return DPartition(d)
    try:
        boxes = [tuple(int(x) for x in box.split(",")) for box in text.split(";")]
        pi = DPartition(d, boxes, validate=True)
    except ValueError:
        return None
    return pi if len(set(boxes)) == len(boxes) and pi.id() == text else None


def is_partition_id(text: str, d: int) -> bool:
    """Whether `text` is the canonical id of some partition in dimension d."""
    return partition_from_id(text, d) is not None


# level cache: (d, n) -> tuple of DPartition, filled one size at a time
_levels: dict[tuple[int, int], tuple[DPartition, ...]] = {}


def enumerate_partitions(d: int, n: int) -> tuple[DPartition, ...]:
    """All partitions of size n in dimension d, in lex order on box lists."""
    _check_dim(d)
    if n < 0:
        raise ValueError("size must be nonnegative")
    bound = size_bound(d)
    if n > bound:
        msg = f"size {n} exceeds the d={d} bound {bound}"
        if d == 4:
            msg += f" (set {ENV_BOUND_VAR} to raise the cap)"
        raise BoundExceeded(msg)
    for k in range(n + 1):
        if (d, k) in _levels:
            continue
        if k == 0:
            _levels[(d, 0)] = (DPartition(d),)
            continue
        children = []
        for pi in _levels[(d, k - 1)]:
            present = set(pi.boxes)
            for c in pi.addable_boxes():
                # canonical parent rule: c must be the lex-largest removable
                # box of the child, so scan only boxes beyond c
                canonical = True
                child_present = present | {c}
                for b in pi.boxes:
                    if b <= c:
                        continue
                    if all(b[:i] + (b[i] + 1,) + b[i + 1:] not in child_present
                           for i in range(d)):
                        canonical = False
                        break
                if canonical:
                    children.append(pi.with_box(c))
        children.sort()
        _levels[(d, k)] = tuple(children)
    return _levels[(d, n)]


def _p2_table(n: int) -> list[list[int]]:
    # P[m][k] = partitions of m with parts <= k
    P = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        P[0][k] = 1
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            P[m][k] = P[m][k - 1] + (P[m - k][k] if m >= k else 0)
    return P


def count_partitions(d: int, n: int) -> int:
    """Number of partitions of size n in dimension d.

    For d = 2 this uses the bounded-largest-part recurrence, which stays fast
    far beyond the range where listing every partition is reasonable; the
    agreement with enumerate_partitions is covered by tests on the shared
    range.  For d = 3 and 4 the count is the length of the enumerated level.
    """
    _check_dim(d)
    if n < 0:
        raise ValueError("size must be nonnegative")
    if d == 2:
        if n > size_bound(2) and n > 10000:
            raise BoundExceeded(f"size {n} is out of range for counting")
        return _p2_table(n)[n][n]
    return len(enumerate_partitions(d, n))


class MonomialIdeal:
    """Monomial ideal given by minimal generators in nvars variables."""

    __slots__ = ("nvars", "gens")

    def __init__(self, nvars: int, gens):
        gens = tuple(sorted(tuple(int(x) for x in g) for g in gens))
        for g in gens:
            if len(g) != nvars or any(x < 0 for x in g):
                raise ValueError(f"bad generator exponent {g!r}")
        for g in gens:
            for h in gens:
                if g is not h and all(x <= y for x, y in zip(g, h)):
                    raise ValueError(f"generators not minimal: {g} divides {h}")
        self.nvars = nvars
        self.gens = gens

    def embed_in_four(self) -> "MonomialIdeal":
        """Push forward along the coordinate embedding, adding the missing
        coordinate functions as generators; the quotient keeps the same boxes."""
        if self.nvars == 4:
            return self
        pad = 4 - self.nvars
        gens = [g + (0,) * pad for g in self.gens]
        if any(all(x == 0 for x in g) for g in gens):
            return MonomialIdeal(4, [(0, 0, 0, 0)])
        for j in range(pad):
            e = [0] * 4
            e[self.nvars + j] = 1
            gens.append(tuple(e))
        return MonomialIdeal(4, gens)

    def staircase(self) -> tuple[Box, ...]:
        """Boxes outside the ideal; requires the quotient to be finite."""
        gens = self.gens
        if any(all(x == 0 for x in g) for g in gens):
            return ()
        for i in range(self.nvars):
            if not any(all(x == 0 for j, x in enumerate(g) if j != i) for g in gens):
                raise ValueError("quotient is not finite dimensional")
        seen = set()
        frontier = [(0,) * self.nvars]
        seen.add(frontier[0])
        out = []
        while frontier:
            b = frontier.pop()
            out.append(b)
            for i in range(self.nvars):
                c = b[:i] + (b[i] + 1,) + b[i + 1:]
                if c in seen:
                    continue
                if any(all(x >= y for x, y in zip(c, g)) for g in gens):
                    continue
                seen.add(c)
                frontier.append(c)
        return tuple(sorted(out))

    def to_partition(self) -> DPartition:
        return DPartition(self.nvars, self.staircase())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.nvars == other.nvars and self.gens == other.gens

    def __hash__(self):
        return hash((self.nvars, self.gens))

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.nvars}, {list(self.gens)})"
