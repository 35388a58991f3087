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

Any other degree j is reduced on first use.  The boundary echelon one
degree up is built over the integers, clearing the lows two degrees up
that the rank pass found, and the boundaries of the j-simplices are
eliminated with relation vectors, clearing its lows, giving one cycle
z_tau for every essential j-simplex tau: a column that reduces to zero
without having been cleared.  The lows of the boundary
echelon and of the essential cycles are distinct and together span the
cycles, so a trace is read off without solving anything: g*z_tau is
reduced from the top against them until its largest index is at most
tau, and what is left at tau, over z_tau[tau], is the coefficient of
z_tau.  Rows below tau never reach tau, so the reduction keeps only the
rows at or above it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Container, Iterator, Sequence

from ..partitions import SetPartition
from .linalg import cancel_factors, combine, eliminate
from .posets import pair_mask


class _ChainIndex(dict):
    """Each degree's map from chain to index, built on first use."""

    def __init__(self, simplices: dict[int, list[tuple[int, ...]]]):
        super().__init__()
        self._simplices = simplices

    def __missing__(self, degree: int) -> dict[tuple[int, ...], int]:
        index = self[degree] = {s: c for c, s in enumerate(self._simplices[degree])}
        return index


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
        self.simplices: dict[int, list[tuple[int, ...]]] = {-1: [()]}
        self.index = _ChainIndex(self.simplices)
        frontier = [(i,) for i in range(nverts)]
        dim = 0
        while frontier:
            self.simplices[dim] = frontier
            frontier = [ch + (m,) for ch in frontier for m in self._above[ch[-1]]]
            dim += 1
        self.top = dim - 1

        lows = self._coboundary_lows()
        ranks = {j: len(rows) for j, rows in lows.items()} | {-1: 0}
        degrees = range(-1, self.top + 1)
        self.dims = {
            j: h for j in degrees if (h := self.chain_count(j) - ranks[j] - ranks[j + 1])
        }
        # of two degrees with equal homology the higher has the longer
        # chains, so it is the one not to reduce; an acyclic interval
        # has none
        self.lefschetz_degree = max(self.dims, key=lambda j: (self.dims[j], j), default=None)
        # what building the cycles of a degree j clears one degree up
        self._lows = {j + 2: lows.get(j + 2, set()) for j in self.dims}
        self._cycles: dict[int, dict[int, dict[int, int]]] = {}
        self._basis: dict[int, dict[int, dict[int, int]]] = {}
        self._reduced_traces: dict[tuple[int, tuple[int, ...]], int] = {}

    def chain_count(self, degree: int) -> int:
        return len(self.simplices.get(degree, ()))

    def _coboundary_lows(self) -> dict[int, set[int]]:
        """lows[j]: the lows of the boundary out of degree j reduced over
        Q, as indices of (j-1)-chains, found by reducing the coboundaries.

        The coboundary out of each degree j below the top is reduced
        with its j-chains in descending order, each column's pivot its
        least coface, and the j-chains that were pivots one degree down
        cleared.  A column is built only when its least coface is
        already taken; until then a pivot keeps the chain that owns it.
        The column of j-chain c gets a pivot exactly when c is a low of
        the boundary out of j+1.
        """
        lows = {0: {0} if self.vertices else set(), self.top + 1: set()}
        # the one coface of the empty chain is the least vertex
        taken: dict[tuple[int, ...], tuple[int, ...] | dict[tuple[int, ...], int]] = (
            {(0,): ()} if self.vertices else {}
        )
        for j in range(self.top):
            cleared, taken, pivoted = taken, {}, set()
            chains = self.simplices[j]
            for c in range(len(chains) - 1, -1, -1):
                s = chains[c]
                if s in cleared:
                    continue
                low = self._least_coface(s)
                if low in taken:
                    low = self._reduce(self._cofaces(s), taken)
                elif low is not None:
                    taken[low] = s
                if low is not None:
                    pivoted.add(c)
            lows[j + 1] = pivoted
        return lows

    def _reduce(
        self, col: dict[tuple[int, ...], int], taken: dict[tuple[int, ...], tuple[int, ...] | dict]
    ) -> tuple[int, ...] | None:
        """Reduce a coboundary column fraction-free against the pivots
        taken so far, building each owner's column on first use; store
        it under its new pivot and return that, or None if it reduces to
        zero."""
        while col:
            low = min(col)
            pivot = taken.get(low)
            if pivot is None:
                taken[low] = col
                return low
            if isinstance(pivot, tuple):
                pivot = taken[low] = self._cofaces(pivot)
            a, b = cancel_factors(pivot[low], col[low])
            # rows are chains and no tuple is below (), so every row of
            # the pivot is used
            combine(a, col, b, pivot, ())
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

    def _least_coface(self, s: tuple[int, ...]) -> tuple[int, ...] | None:
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

    def _cofaces(self, s: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        """Every chain that adds one vertex to s, with its coboundary
        sign (-1)^p for the vertex put at position p."""
        cofaces = {(v,) + s: 1 for v in self._below[s[0]]}
        for i in range(1, len(s)):
            sign = (-1) ** i
            cofaces.update((s[:i] + (v,) + s[i:], sign) for v in self._between(s[i - 1], s[i]))
        sign = (-1) ** len(s)
        cofaces.update((s + (v,), sign) for v in self._above[s[-1]])
        return cofaces

    def _boundary_columns(self, j: int, cleared: Container[int] = ()) -> list[dict[int, int]]:
        """The boundary of each j-simplex over the (j-1)-simplices, left
        empty for the cleared ones, which elimination skips."""
        face_index = self.index[j - 1]
        return [
            {}
            if c in cleared
            else {face_index[s[:pos] + s[pos + 1 :]]: -1 if pos % 2 else 1 for pos in range(len(s))}
            for c, s in enumerate(self.simplices.get(j, ()))
        ]

    def vertex_map(self, perm: tuple[int, ...]) -> list[int]:
        """Action of a symmetric-group element on the vertex indices:
        each block moves onto the block labelled by its least image."""
        out = []
        image = [0] * len(perm)
        for v in self.vertices:
            for block in v.blocks:
                moved = [perm[x - 1] for x in block]
                low = min(moved)
                for y in moved:
                    image[y] = low
            out.append(self.vertex_index[tuple(image)])
        return out

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

    def _reduced_cycles(self, degree: int) -> tuple[dict, dict]:
        """The essential cycles of ``degree`` and the basis they reduce
        against, the boundary echelon one degree up and the cycles with
        rows in descending order, built on first use."""
        if degree not in self._cycles:
            cleared = self._lows[degree + 2]
            above, _ = eliminate(
                self._boundary_columns(degree + 1, cleared), cleared=cleared, relations=False
            )
            _, cycles = eliminate(self._boundary_columns(degree, above), cleared=above)
            self._cycles[degree] = cycles
            self._basis[degree] = {
                low: dict(sorted(col.items(), reverse=True)) for low, col in above.items()
            } | cycles
        return self._cycles[degree], self._basis[degree]

    def _reduced_trace(self, degree: int, perm: tuple[int, ...]) -> int:
        """Trace on ``degree`` by reducing the moved essential cycles,
        kept per permutation for the Lefschetz degree to reuse.

        Each essential cycle z_tau is moved by the permutation and
        reduced from the top; the fraction-free steps multiply it by
        ``scale``, so the coefficient of z_tau is x[tau] / (scale *
        z_tau[tau]).  No step below tau can reach tau, so only the moved
        cycle's entries at rows >= tau are kept, and each basis column
        is read down to row tau (its rows are in descending order).
        """
        if (degree, perm) in self._reduced_traces:
            return self._reduced_traces[degree, perm]
        cycles, basis = self._reduced_cycles(degree)
        vmap = self.vertex_map(perm)
        simp = self.simplices[degree]
        idx = self.index[degree]
        # the cycles share most of their chains: move each chain once
        moved = {
            a: idx[tuple(map(vmap.__getitem__, simp[a]))]
            for a in set().union(*cycles.values())
        }
        total = 0
        for tau, z in cycles.items():
            x = {r: val for a, val in z.items() if (r := moved[a]) >= tau}
            scale = 1
            while x:
                low = max(x)
                if low == tau:
                    break
                a, b = cancel_factors(basis[low][low], x[low])
                combine(a, x, b, basis[low], tau)
                scale *= a
            den = scale * z[tau]
            coeff, rest = divmod(x.get(tau, 0), den)
            # each coefficient is an integer while every pivot is a unit
            total += Fraction(x[tau], den) if rest else coeff
        if total != int(total):
            raise AssertionError(f"non-integral homology trace {total}")
        self._reduced_traces[degree, perm] = int(total)
        return int(total)
