"""Equivariant reduced homology of order complexes over the rationals.

Simplices are chains of poset elements; the boundary is the usual
alternating face sum, augmented by the empty simplex in degree -1, so
the empty complex has one-dimensional homology there.

The ranks of the boundary maps are found over GF(2) and certified over
the rationals.  Each boundary map is reduced mod 2 once, from the top
degree down, every column the set of its faces, with the lows found one
degree higher cleared (the clearing twist holds over any field).  A
nonzero mod-2 minor is a nonzero integer minor, so no boundary map has
a larger rank mod 2 than over Q, and no degree has less homology mod 2
than over Q.  A degree j with no mod-2 homology then has c_j = r2_j +
r2_{j+1} <= rQ_j + rQ_{j+1} <= c_j, so both of its boundary maps have
the same rank over Q as mod 2.  The one rank left open is that of the
boundary out of a degree j when j and j-1 both carry mod-2 homology,
which torsion can make larger over Q.  It is found by integer column
reduction (``linalg.eliminate``).  An interval with homology in one
degree only, as most are, does no integer elimination at all.

An integer reduction of the boundary out of j may still clear the mod-2
lows L found one degree up, though they are not rational boundaries.
Lift each mod-2 boundary with low l in L to an integer boundary: on the
rows L these lifts form a square matrix that is triangular mod 2 with
ones on its diagonal, so its determinant is odd and it is invertible
over Q.  Rational combinations of the lifts are then cycles that are 1
at one low and 0 at the others, so the boundary of each cleared simplex
is a combination of those of the simplices outside L, which have the
full rational rank and span every rational boundary.

A permutation g of the poset acts on chains without signs, so by the
Hopf trace formula the alternating sum of its traces on homology is the
alternating count of the chains it fixes, the reduced Euler
characteristic of the fixed subposet.  That gives the trace in the
degree with the most homology (the Lefschetz degree) from the traces in
the others, and needs only to know which vertices g fixes: g fixes a
set partition exactly when it maps each block into a block, since the
image then refines it with as many blocks.

Any other degree j is reduced on first use.  The boundary echelon one
degree up is built over the integers, clearing the mod-2 lows two
degrees up, and the boundaries of the j-simplices are eliminated with
relation vectors, clearing its lows,
giving one cycle z_tau for every essential j-simplex tau: a column that
reduces to zero without having been cleared.  The lows of the boundary
echelon and of the essential cycles are distinct and together span the
cycles, so a trace is read off without solving anything: g*z_tau is
reduced from the top against them until its largest index is at most
tau, and what is left at tau, over z_tau[tau], is the coefficient of
z_tau.  Rows below tau never reach tau, so the reduction keeps only the
rows at or above it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Container, Sequence

from ..partitions import SetPartition
from .linalg import cancel_factors, combine, echelon_mod2, eliminate
from .posets import pair_mask


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
        masks = [pair_mask(lab) for lab in self._labels]
        outside = [~mask for mask in masks]
        self._above = [
            [j for j in range(i + 1, nverts) if not mask & outside[j]]
            for i, mask in enumerate(masks)
        ]
        self.simplices: dict[int, list[tuple[int, ...]]] = {-1: [()]}
        self.index: dict[int, dict[tuple[int, ...], int]] = {-1: {(): 0}}
        frontier = [(i,) for i in range(nverts)]
        dim = 0
        while frontier:
            self.simplices[dim] = frontier
            self.index[dim] = {s: c for c, s in enumerate(frontier)}
            frontier = [ch + (m,) for ch in frontier for m in self._above[ch[-1]]]
            dim += 1
        self.top = dim - 1

        # lows[j]: the lows of the boundary out of degree j reduced mod 2,
        # which are cleared in the degree below
        lows: dict[int, set[int]] = {self.top + 1: set()}
        for j in range(self.top, -1, -1):
            face_index = self.index[j - 1]
            cleared = lows[j + 1]
            lows[j] = set(
                echelon_mod2(
                    {face_index[s[:pos] + s[pos + 1 :]] for pos in range(len(s))}
                    for c, s in enumerate(self.simplices[j])
                    if c not in cleared
                )
            )
        ranks = {j: len(rows) for j, rows in lows.items()} | {-1: 0}
        degrees = range(-1, self.top + 1)
        mod2 = {j: self.chain_count(j) - ranks[j] - ranks[j + 1] for j in degrees}
        for j in range(self.top + 1):
            if mod2[j] and mod2[j - 1]:
                ranks[j] = len(self._integer_echelon(j, lows[j + 1]))
        self.dims = {
            j: h for j in degrees if (h := self.chain_count(j) - ranks[j] - ranks[j + 1])
        }
        euler = sum((-1 if j % 2 else 1) * self.chain_count(j) for j in degrees)
        if sum((-1 if j % 2 else 1) * h for j, h in self.dims.items()) != euler:
            raise AssertionError(f"homology {self.dims} misses the Euler characteristic {euler}")
        # of two degrees with equal homology the higher has the longer
        # chains, so it is the one not to reduce; an acyclic interval
        # has none
        self.lefschetz_degree = max(self.dims, key=lambda j: (self.dims[j], j), default=None)
        # what building the cycles of a degree j clears one degree up
        self._mod2_lows = {j + 2: lows.get(j + 2, set()) for j in self.dims}
        self._cycles: dict[int, dict[int, dict[int, int]]] = {}
        self._basis: dict[int, dict[int, dict[int, int]]] = {}
        self._reduced_traces: dict[tuple[int, tuple[int, ...]], int] = {}

    def chain_count(self, degree: int) -> int:
        return len(self.simplices.get(degree, ()))

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

    def _integer_echelon(self, j: int, cleared: Container[int]) -> dict[int, dict[int, int]]:
        """The boundary out of degree j reduced over the integers, with
        the mod-2 lows out of j+1 cleared."""
        echelon, _ = eliminate(self._boundary_columns(j, cleared), cleared=cleared, relations=False)
        return echelon

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
            above = self._integer_echelon(degree + 1, self._mod2_lows.get(degree + 2, ()))
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

    def trace_on_chains(self, degree: int, perm: tuple[int, ...]) -> int:
        """Number of chains fixed pointwise (trace on the chain group)."""
        if degree == -1:
            return 1
        fixed = self._fixed_vertices(perm)
        return sum(1 for s in self.simplices.get(degree, ()) if all(map(fixed.__getitem__, s)))
