"""Equivariant reduced homology of order complexes over the rationals.

Simplices are chains of poset elements; the boundary is the usual
alternating face sum, augmented by the empty simplex in degree -1, so
the empty complex has one-dimensional homology there.

The ranks of the boundary maps are found over the rationals, in one
pass over the signed coboundaries.  Chains are listed in lexicographic
order, which is their index order.  The boundary out of degree j+1
reduced left to right, each column's low its largest row, pairs a
j-chain sigma with the (j+1)-chain tau whose reduced column has low
sigma.  Whether a pair is formed depends only on the ranks of the
submatrices below and left of the entry (sigma, tau), with rows >= sigma
and columns <= tau.  Transposing and reversing both orders turns each of
them into the submatrix below and left of the entry (tau, sigma) of the
coboundary out of j, its columns the j-chains and its rows the
(j+1)-chains, both in descending order, so that a column's low is its
least row.  Reduced left to right, the coboundary so forms the same
pairs (de Silva, Morozov and Vejdemo-Johansson, Dualities in persistent
(co)homology, 2011).  The coboundaries are reduced from degree 0 up,
clearing the j-chains that were pivots one degree down, as they reduce
to zero (Chen and Kerber, Persistent homology computation with a twist,
2011); the top degree has no coboundary.

A coface adds one vertex to a chain; put at position p, it enters the
coboundary with the sign (-1)^p of the face that drops it again.  A
column's low before any addition is its least coface.  A vertex below
s_0 comes first in the order, so that coface is s with the least vertex
below s_0 put in front if there is one; failing that, the least vertex
inside the first gap s_i < v < s_(i+1) that has one; failing that, the
least vertex above the last.  The reduction adds to a column only the
column that owns its current low, so while its least coface is free the
column is already reduced, takes it as its pivot and is never built.
Only when the least coface is taken are the column's cofaces listed,
with those of the pivot's owner if that was not built yet, and the
column reduced.  So the rank pass needs no chain index and no face set
except at such collisions, which are rare: none on the braid lattice at
n = 6, 410 on the k=3, n=8 top, which has 75,279 chains.

Columns are combined fraction-free, a*col - b*pivot with a > 0, an
invertible column operation over Q whatever the pivot values, so the
pivot count is the rational rank and the lows are the rational lows.
A pivot other than +-1, which torsion in the integer homology brings,
needs no other treatment.

A permutation g of the poset acts on chains without signs, so by the
Hopf trace formula the alternating sum of its traces on homology is the
alternating count of the chains it fixes, the reduced Euler
characteristic of the fixed subposet.  That gives the trace in the
degree with the most homology (the Lefschetz degree) from the traces in
the others, and needs only to know which vertices g fixes: g fixes a
set partition exactly when it maps each block into a block, since the
image then refines it with as many blocks.

Any other degree j is traced on cocycles: homology over Q carries a
rational character, so the traces on H^j are those on H_j (Ripser's
scheme: Bauer, Ripser, 2021).  They come from the rank pass itself:
every built column carries its record, the j-chains whose coboundary it
is, combined by the same steps.  A j-chain that is not cleared and whose
column reduces to zero gives an essential cocycle z_tau, its record,
whose least row is tau; a chain with no coface is one alone.  Each
degree with homology other than the Lefschetz degree keeps its
essential cocycles and the pivots of the pass out of j-1, the coboundary
echelon into j (into degree 0, the coboundary of the empty chain).  By
the twist, each cleared j-chain is the least row of a column of that
echelon, a coboundary, so these columns and the essential cocycles are
a basis of the cocycles with distinct least rows.  A trace is read off
without solving anything and without another pass: g*z_tau is reduced
from its least row against them until that row is tau, and what is left
at tau, over z_tau[tau], is the coefficient of z_tau.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Sequence

from ..partitions import SetPartition
from .linalg import cancel_factors, combine
from .posets import pair_mask

Chain = tuple[int, ...]
Column = dict[Chain, int]
# a pass's pivots: each low mapped to its column, or to its owner's chain
# while that column is not built
Taken = dict[Chain, Chain | Column]


class IntervalHomology:
    """Reduced order-complex homology of an open interval with its
    induced symmetry action.

    ``vertices`` are the interval's elements, listed with non-increasing
    block counts (as ``PiLambdaLattice.open_interval`` returns them); any
    permutation that maps the vertex set to itself acts on chains without
    signs, since chains are ordered by the poset itself.
    """

    def __init__(self, vertices: Sequence[SetPartition]):
        self.vertices = list(vertices)
        counts = [len(el.blocks) for el in self.vertices]
        if any(a < b for a, b in zip(counts, counts[1:])):
            raise ValueError("vertices must be listed with non-increasing block counts")
        self._labels = [el.labels() for el in self.vertices]
        self.vertex_index = {lab: i for i, lab in enumerate(self._labels)}
        nverts = len(self.vertices)
        # a coarser vertex has fewer blocks, so it comes later; it lies
        # above when every pair sharing a block below shares one above
        self._masks = [pair_mask(lab) for lab in self._labels]
        outside = [~mask for mask in self._masks]
        self._above = [
            [j for j in range(i + 1, nverts) if not mask & outside[j]]
            for i, mask in enumerate(self._masks)
        ]
        self._below: list[list[int]] = [[] for _ in range(nverts)]
        for i, above in enumerate(self._above):
            for j in above:
                self._below[j].append(i)
        # each degree's chains in lexicographic order, which is their
        # index order
        self.simplices: dict[int, list[Chain]] = {-1: [()]}
        frontier = [(i,) for i in range(nverts)]
        dim = 0
        while frontier:
            self.simplices[dim] = frontier
            frontier = [ch + (m,) for ch in frontier for m in self._above[ch[-1]]]
            dim += 1
        self.top = dim - 1

        # the coboundary of the empty chain is every vertex with sign +1,
        # its pivot the least vertex, so the boundary out of degree 0 has
        # rank 1 unless there is none
        taken: Taken = {(0,): {(v,): 1 for v in range(nverts)}}
        self.dims = {} if self.vertices else {-1: 1}
        # each degree with homology keeps the echelon into it, the pivots
        # of the pass one degree down, and its essential cocycles
        self._cocycles: dict[int, tuple[Taken, dict[Chain, Column]]] = {}
        for j in range(self.top + 1):
            cocycles: dict[Chain, Column] = {}
            echelon, taken = taken, self._coboundary_lows(j, taken, cocycles)
            if cocycles:
                self.dims[j] = len(cocycles)
                self._cocycles[j] = echelon, cocycles
        # of two degrees with equal homology the higher has the longer
        # chains, so it is the one not to reduce; an acyclic interval
        # has none.  It is traced from fixed vertices, without its store.
        self.lefschetz_degree = max(self.dims, key=lambda j: (self.dims[j], j), default=None)
        self._cocycles.pop(self.lefschetz_degree, None)
        self._reduced_traces: dict[tuple[int, tuple[int, ...]], int] = {}

    def chain_count(self, degree: int) -> int:
        return len(self.simplices.get(degree, ()))

    def _coboundary_lows(
        self, j: int, cleared: set[Chain] | Taken, cocycles: dict[Chain, Column]
    ) -> Taken:
        """Reduce the coboundary out of degree j over Q; return the
        pivots taken, each low (a (j+1)-chain) mapped to its reduced
        column, or to the j-chain that owns it while that column is not
        built, and store each essential cocycle in ``cocycles`` under its
        least row.

        The j-chains are taken in descending order, each column's pivot
        its least coface, and the ``cleared`` ones skipped: the lows of
        the pass out of j-1.  A column is built only when its least
        coface is already taken, and then carries its record, the
        j-chains whose coboundary it is.  The number of pivots is the
        rank of the boundary out of j+1.  An essential cocycle is the
        record of a column that reduces to zero, or a chain with no
        coface alone.
        """
        taken: Taken = {}
        records: dict[Chain, Column] = {}
        for s in reversed(self.simplices[j]):
            if s in cleared:
                continue
            # a top chain has no coface
            low = self._least_coface(s) if j < self.top else None
            if low in taken:
                record = {s: 1}
                if self._reduce(self._cofaces(s), taken, record, records) is None:
                    cocycles[s] = record
            elif low is None:
                cocycles[s] = {s: 1}
            else:
                taken[low] = s
        return taken

    def _reduce(
        self, col: Column, taken: Taken, record: Column, records: dict[Chain, Column]
    ) -> Chain | None:
        """Reduce a coboundary column fraction-free against the pivots
        taken so far, building each owner's column on first use, while
        ``record`` (the chains whose coboundary the column is) takes the
        same steps; store the column under its new pivot, and its record
        in ``records``, and return that pivot, or None if the column
        reduces to zero."""
        while col:
            low = min(col)
            pivot = taken.get(low)
            if pivot is None:
                taken[low] = col
                records[low] = record
                return low
            if isinstance(pivot, tuple):
                records[low] = {pivot: 1}
                pivot = taken[low] = self._cofaces(pivot)
            a, b = cancel_factors(pivot[low], col[low])
            # rows are chains and no tuple is below (), so every row of
            # the pivot is used
            combine(a, col, b, pivot, ())
            combine(a, record, b, records[low], ())
        return None

    def _between(self, a: int, b: int) -> Iterator[int]:
        """The vertices strictly between vertex a and the vertex b above
        it, in ascending order."""
        outside = ~self._masks[b]
        for v in self._above[a]:
            if v >= b:
                return
            if not self._masks[v] & outside:
                yield v

    def _least_coface(self, s: Chain) -> Chain | None:
        """The least chain that adds one vertex to s, in lexicographic
        order, or None if s is maximal.  A vertex below s[0] is less than
        s[0], so it goes first; failing that, a vertex in the first gap
        that has one; failing that, one above s[-1]."""
        if below := self._below[s[0]]:
            return (below[0],) + s
        for i in range(1, len(s)):
            for v in self._between(s[i - 1], s[i]):
                return s[:i] + (v,) + s[i:]
        if above := self._above[s[-1]]:
            return s + (above[0],)
        return None

    def _cofaces(self, s: Chain) -> Column:
        """Every chain that adds one vertex to s, with its coboundary
        sign (-1)^p for the vertex put at position p."""
        cofaces = {(v,) + s: 1 for v in self._below[s[0]]}
        for i in range(1, len(s)):
            sign = (-1) ** i
            cofaces.update((s[:i] + (v,) + s[i:], sign) for v in self._between(s[i - 1], s[i]))
        sign = (-1) ** len(s)
        cofaces.update((s + (v,), sign) for v in self._above[s[-1]])
        return cofaces

    def vertex_map(self, perm: tuple[int, ...]) -> Callable[[int], int]:
        """Action of a symmetric-group element on a vertex index: each
        block moves onto the block labelled by its least image."""
        image = [0] * len(perm)

        def move(v: int) -> int:
            for block in self.vertices[v].blocks:
                low = min(perm[x - 1] for x in block)
                for x in block:
                    image[perm[x - 1]] = low
            return self.vertex_index[tuple(image)]

        return move

    def trace(self, degree: int, perm: tuple[int, ...]) -> int:
        """Trace of the permutation on reduced homology in ``degree``."""
        if degree not in self.dims:
            return 0
        if degree == self.lefschetz_degree:
            return self._lefschetz_trace(degree, perm)
        return self._reduced_trace(degree, perm)

    def _lefschetz_trace(self, degree: int, perm: tuple[int, ...]) -> int:
        """The trace in ``degree`` by the Hopf trace formula: the fixed
        subposet's reduced Euler characteristic less the signed reduced
        traces in the other degrees, with the sign of ``degree``."""
        others = sum(
            (-1 if j % 2 else 1) * self._reduced_trace(j, perm) for j in self.dims if j != degree
        )
        return (-1 if degree % 2 else 1) * (self._fixed_euler(self._fixed_vertices(perm)) - others)

    def _fixed_vertices(self, perm: tuple[int, ...]) -> list[bool]:
        """Whether the permutation fixes each vertex: it does when it
        maps every block into a block, that is, when each point x and
        the least point lab[x] of its block land in one block."""
        points = range(len(perm))
        return [all(lab[perm[x]] == lab[perm[lab[x]]] for x in points) for lab in self._labels]

    def _fixed_euler(self, fixed: list[bool]) -> int:
        """Reduced Euler characteristic of the order complex of the
        fixed vertices, in one pass from the top: the chains whose least
        element is v count 1 - (those of the fixed vertices above v),
        with sign (-1)^dimension."""
        starting = [0] * len(fixed)
        total = -1
        for v in range(len(fixed) - 1, -1, -1):
            if fixed[v]:
                starting[v] = 1 - sum(starting[w] for w in self._above[v])
                total += starting[v]
        return total

    def _reduced_trace(self, degree: int, perm: tuple[int, ...]) -> int:
        """Trace on ``degree`` by reducing the moved essential cocycles,
        kept per permutation for the Lefschetz degree to reuse.

        Each essential cocycle z_tau is moved by the permutation, which
        keeps its chains increasing, and reduced from its least row; the
        fraction-free steps multiply it by ``scale``, so the coefficient
        of z_tau is x[tau] / (scale * z_tau[tau]).  No step above tau
        can reach tau, so the moved cocycle keeps only its rows <= tau.
        """
        if (degree, perm) in self._reduced_traces:
            return self._reduced_traces[degree, perm]
        echelon, cocycles = self._cocycles[degree]
        move = self.vertex_map(perm)
        # the cocycles may share chains: move each chain once
        moved = {s: tuple(map(move, s)) for s in set().union(*cocycles.values())}
        total = 0
        for tau, z in cocycles.items():
            x = {r: val for s, val in z.items() if (r := moved[s]) <= tau}
            scale = 1
            while x:
                low = min(x)
                if low >= tau:
                    break
                pivot = echelon.get(low)
                if isinstance(pivot, tuple):
                    pivot = echelon[low] = self._cofaces(pivot)
                elif pivot is None:
                    if low not in cocycles:
                        raise AssertionError(f"degree {degree}: no cocycle has least row {low}")
                    pivot = cocycles[low]
                a, b = cancel_factors(pivot[low], x[low])
                combine(a, x, b, pivot, ())
                scale *= a
            den, at_tau = scale * z[tau], x.get(tau, 0)
            # each coefficient is an integer while every pivot is a unit
            total += Fraction(at_tau, den) if at_tau % den else at_tau // den
        if total != int(total):
            raise AssertionError(f"non-integral homology trace {total}")
        self._reduced_traces[degree, perm] = int(total)
        return int(total)
