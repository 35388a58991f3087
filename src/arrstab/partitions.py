"""Integer partitions, set partitions and the padded arrangement types.

Partitions are stored in a single normal form (weakly decreasing, no
zeros), so they can directly key coefficient maps everywhere else.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class Partition(tuple):
    """Weakly decreasing tuple of positive integers.

    Instances are plain tuples, hence hashable and structurally
    comparable; ``Partition()`` is the unique partition of 0.
    """

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        parts = tuple(int(x) for x in parts)
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive: {parts!r}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {parts!r}")
        return super().__new__(cls, parts)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    @property
    def size(self) -> int:
        return sum(self)

    @property
    def rank(self) -> int:
        """Size minus length; 0 exactly for all-ones partitions."""
        return sum(self) - len(self)

    def conjugate(self) -> "Partition":
        """Transpose of the Ferrers diagram."""
        if not self:
            return Partition()
        return Partition(
            sum(1 for x in self if x > i) for i in range(self[0])
        )

    def add_box(self) -> "Partition":
        """Grow the first part: (a, b, ...) -> (a+1, b, ...)."""
        if not self:
            return Partition((1,))
        return Partition((self[0] + 1,) + self[1:])

    def contains(self, other: "Partition") -> bool:
        """Whether ``other`` fits inside ``self`` as a diagram."""
        if len(other) > len(self):
            return False
        return all(a >= b for a, b in zip(self, other))

    def pad_to(self, n: int) -> "Partition":
        """Append parts of size 1 until the size reaches ``n``."""
        if n < self.size:
            raise ValueError(f"cannot pad {self!r} down to size {n}")
        return Partition(tuple(self) + (1,) * (n - self.size))

    def strip_ones(self) -> "Partition":
        """Drop all parts of size 1."""
        return Partition(x for x in self if x > 1)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse ``[3,1,1]``; exponent shorthand ``[2,1^4]`` is accepted."""
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"partition literal must be bracketed: {text!r}")
        body = text[1:-1].strip()
        if not body:
            return cls()
        parts: list[int] = []
        for token in body.split(","):
            token = token.strip()
            m = re.fullmatch(r"(\d+)(?:\s*\^\s*(\d+))?", token)
            if m is None:
                raise ValueError(f"bad partition token {token!r} in {text!r}")
            part = int(m.group(1))
            mult = int(m.group(2)) if m.group(2) else 1
            parts.extend([part] * mult)
        return cls(parts)

    def text(self) -> str:
        """Bracketed text form, e.g. ``[3,1,1]``."""
        return "[" + ",".join(str(x) for x in self) + "]"


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of ``n``, lexicographically decreasing.

    ``max_part`` caps the largest part.  Each partition appears exactly
    once and the order is deterministic.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(prefix)
            return
        for head in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - head, head, prefix + (head,))

    yield from rec(n, n if max_part is None else min(max_part, n), ())


class SetPartition:
    """Partition of {1..n} into disjoint nonempty blocks.

    Blocks are stored sorted (each block ascending, blocks by least
    element), so equal set partitions compare and hash equal.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        blocks = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise ValueError("blocks must be nonempty")
            for x in block:
                if x in seen:
                    raise ValueError(f"element {x} appears in two blocks")
                seen.add(x)
        if seen != set(range(1, n + 1)):
            raise ValueError(f"blocks must cover 1..{n}: {blocks!r}")
        self.n = n
        self.blocks = blocks

    @classmethod
    def bottom(cls, n: int) -> "SetPartition":
        """The all-singletons partition (the lattice bottom)."""
        return cls(n, [(i,) for i in range(1, n + 1)])

    def type(self) -> Partition:
        """Block sizes, sorted decreasingly."""
        return Partition(sorted((len(b) for b in self.blocks), reverse=True))

    def block_of(self) -> dict[int, int]:
        """Map each element to the index of its block."""
        out = {}
        for idx, block in enumerate(self.blocks):
            for x in block:
                out[x] = idx
        return out

    def refines(self, owner: dict[int, int]) -> bool:
        """Whether every block of ``self`` sits inside one block of the
        set partition whose ``block_of()`` is ``owner``."""
        for block in self.blocks:
            first = owner[block[0]]
            for x in block[1:]:
                if owner[x] != first:
                    return False
        return True

    def is_refinement_of(self, other: "SetPartition") -> bool:
        """Whether every block of ``self`` sits inside a block of ``other``."""
        if self.n != other.n:
            raise ValueError("set partitions of different ground sets")
        return self.refines(other.block_of())

    def __le__(self, other: "SetPartition") -> bool:
        return self.is_refinement_of(other)

    def join(self, other: "SetPartition") -> "SetPartition":
        """Least common coarsening (union-find over both block sets)."""
        parent = list(range(self.n + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for block in self.blocks:
            for x in block[1:]:
                union(block[0], x)
        for block in other.blocks:
            for x in block[1:]:
                union(block[0], x)
        groups: dict[int, list[int]] = {}
        for x in range(1, self.n + 1):
            groups.setdefault(find(x), []).append(x)
        return SetPartition(self.n, groups.values())

    def labels(self) -> tuple[int, ...]:
        """Block labels, 0-indexed: entry x-1 is the least element of
        x's block, less one."""
        label = [0] * self.n
        for block in self.blocks:
            for x in block:
                label[x - 1] = block[0] - 1
        return tuple(label)

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "SetPartition":
        """Inverse of ``labels``."""
        groups: dict[int, list[int]] = {}
        for x, label in enumerate(labels, start=1):
            groups.setdefault(label, []).append(x)
        return cls(len(labels), groups.values())

    def apply(self, perm: tuple[int, ...]) -> "SetPartition":
        """Relabel by a permutation given as a 0-indexed image tuple."""
        return SetPartition(self.n, [[perm[x - 1] + 1 for x in b] for b in self.blocks])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SetPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.blocks))

    def __repr__(self) -> str:
        return "|".join("{" + ",".join(str(x) for x in b) + "}" for b in self.blocks)


def set_partition_type(pi: SetPartition) -> Partition:
    """Type of a set partition: its block sizes sorted decreasingly."""
    return pi.type()


def all_set_partitions(n: int) -> list[SetPartition]:
    """Every set partition of {1..n}, via restricted-growth strings."""
    if n == 0:
        return [SetPartition(0, [])]
    results: list[SetPartition] = []

    def rec(pos: int, assignment: list[int], nblocks: int) -> None:
        if pos == n:
            blocks: list[list[int]] = [[] for _ in range(nblocks)]
            for x, b in enumerate(assignment, start=1):
                blocks[b].append(x)
            results.append(SetPartition(n, blocks))
            return
        for b in range(nblocks):
            assignment.append(b)
            rec(pos + 1, assignment, nblocks)
            assignment.pop()
        assignment.append(nblocks)
        rec(pos + 1, assignment, nblocks + 1)
        assignment.pop()

    rec(0, [], 0)
    return results


@dataclass(frozen=True)
class LambdaSet:
    """Nonempty set of base partitions of one size, all-ones excluded.

    The padding ``extended(n)`` appends parts of size 1, which preserves
    the rank of every member.
    """

    parts: frozenset[Partition]
    n0: int

    def __init__(self, parts: Iterable[Partition]):
        parts = frozenset(Partition(p) for p in parts)
        if not parts:
            raise ValueError("base set must be nonempty")
        sizes = {p.size for p in parts}
        if len(sizes) > 1:
            raise ValueError(f"base partitions must share one size: {sorted(parts)}")
        n0 = sizes.pop()
        if n0 < 2:
            raise ValueError("base partitions must have size at least 2")
        for p in parts:
            if p.rank == 0:
                raise ValueError(f"the all-ones partition {p!r} is excluded")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "n0", n0)

    @property
    def rank(self) -> int:
        """Minimum rank over the base partitions; at least 1."""
        return min(p.rank for p in self.parts)

    def extended(self, n: int) -> frozenset[Partition]:
        """The padded set at size ``n >= n0``."""
        if n < self.n0:
            raise ValueError(f"cannot pad base partitions of {self.n0} to size {n}")
        return frozenset(p.pad_to(n) for p in self.parts)

    @classmethod
    def parse(cls, text: str) -> "LambdaSet":
        """Parse semicolon-separated partition literals, e.g. ``[2,2];[3]``."""
        return cls(Partition.parse(tok) for tok in text.split(";") if tok.strip())

    def text(self) -> str:
        return ";".join(p.text() for p in sorted(self.parts))


def extend_lambda_set(lam: LambdaSet, n: int) -> frozenset[Partition]:
    """Padded arrangement types at size ``n``."""
    return lam.extended(n)
