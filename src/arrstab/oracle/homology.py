"""Equivariant reduced homology of order complexes over the rationals.

Simplices are chains of poset elements; the boundary is the usual
alternating face sum, augmented by the empty simplex in degree -1, so
the empty complex has one-dimensional homology there.  Each boundary
map is column-reduced once, from the top degree down, with the lows
found one degree higher cleared (``linalg.eliminate``).  Reducing the
boundaries of the j-simplices gives the rank of that map, the echelon
of the boundaries in degree j-1, and one cycle z_tau for every
essential j-simplex tau: a column that reduces to zero without having
been cleared.  These cycles span homology in degree j.

The lows of the boundary echelon and of the essential cycles are
distinct and together span the cycles, so a symmetry's trace is read
off without solving anything: g*z_tau is reduced from the top against
them until its largest index is at most tau, and what is left at tau,
over z_tau[tau], is the coefficient of z_tau.  Rows below tau never
reach tau, so the reduction keeps only the rows at or above it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..partitions import SetPartition
from .linalg import cancel_factors, combine, eliminate


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
        self.vertex_index = {el.labels(): i for i, el in enumerate(self.vertices)}
        nverts = len(self.vertices)
        owners = [el.block_of() for el in self.vertices]
        # a coarser vertex has fewer blocks, so it comes later
        above = [
            [j for j in range(i + 1, nverts) if self.vertices[i].refines(owners[j])]
            for i in range(nverts)
        ]
        self.simplices: dict[int, list[tuple[int, ...]]] = {-1: [()]}
        self.index: dict[int, dict[tuple[int, ...], int]] = {-1: {(): 0}}
        frontier = [(i,) for i in range(nverts)]
        dim = 0
        while frontier:
            self.simplices[dim] = frontier
            self.index[dim] = {s: c for c, s in enumerate(frontier)}
            frontier = [ch + (m,) for ch in frontier for m in above[ch[-1]]]
            dim += 1
        self.top = dim - 1

        dims: dict[int, int] = {}
        self._cycles: dict[int, dict[int, dict[int, int]]] = {}
        self._basis: dict[int, dict[int, dict[int, int]]] = {}
        boundaries: dict[int, dict[int, int]] = {}
        for j in range(self.top, -1, -1):
            echelon, cycles = eliminate(self._boundary_columns(j), cleared=boundaries)
            if cycles:
                dims[j] = len(cycles)
                self._cycles[j] = cycles
                self._basis[j] = boundaries | cycles
            boundaries = echelon
        if not boundaries:
            dims[-1] = 1
        self.dims = dict(sorted(dims.items()))

    def chain_count(self, degree: int) -> int:
        return len(self.simplices.get(degree, ()))

    def _boundary_columns(self, j: int) -> list[dict[int, int]]:
        """The boundary of each j-simplex over the (j-1)-simplices."""
        face_index = self.index[j - 1]
        return [
            {face_index[s[:pos] + s[pos + 1 :]]: -1 if pos % 2 else 1 for pos in range(len(s))}
            for s in self.simplices[j]
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
        """Trace of the permutation on reduced homology in ``degree``.

        Each essential cycle z_tau is moved by the permutation and
        reduced from the top; the fraction-free steps multiply it by
        ``scale``, so the coefficient of z_tau is x[tau] / (scale *
        z_tau[tau]).  No step below tau can reach tau, so only the moved
        cycle's entries at rows >= tau are kept, and each basis column
        is read down to row tau (its rows are in descending order).
        """
        if self.dims.get(degree, 0) == 0:
            return 0
        if degree == -1:
            return 1
        vmap = self.vertex_map(perm)
        simp = self.simplices[degree]
        idx = self.index[degree]
        basis = self._basis[degree]
        cycles = self._cycles[degree]
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
        return int(total)

    def trace_on_chains(self, degree: int, perm: tuple[int, ...]) -> int:
        """Number of chains fixed pointwise (trace on the chain group)."""
        if degree == -1:
            return 1
        vmap = self.vertex_map(perm)
        return sum(
            1
            for s in self.simplices.get(degree, ())
            if all(vmap[v] == v for v in s)
        )
