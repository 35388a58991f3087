"""Exact symmetric function arithmetic in the Schur and power-sum bases.

Coefficients are exact rationals (`int` where integral, `fractions.Fraction`
otherwise).  Basis changes are integer matrix-vector products with the
character table of S_n (`characters`), one homogeneous degree n at a
time: the degree's coefficients are scaled to integer numerators over
the lcm of their denominators, accumulated in plain ints against the
character columns, and divided once at the end (by that lcm, and for
`to_power` also by z_mu).  The two changes are mutually inverse.  Schur
products use Littlewood-Richardson expansion, power products concatenate
keys; a product with a one-row h_q adds horizontal strips.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from ..partitions import Partition
from . import characters, lr

Coeff = int | Fraction


class Basis(Enum):
    SCHUR = "s"
    POWER = "p"


SCHUR = Basis.SCHUR
POWER = Basis.POWER


def _norm(c: Coeff) -> Coeff:
    """Collapse integral fractions to plain ints."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class SymmetricFunction:
    """Finitely supported linear combination of basis elements.

    Values are immutable once constructed; all operations return new
    objects, so instances are safe to share, hash and cache.
    """

    __slots__ = ("basis", "_terms", "_hash")

    def __init__(
        self,
        basis: Basis,
        terms: Mapping[Iterable[int], Coeff] | Iterable[tuple[Iterable[int], Coeff]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Partition, Coeff] = {}
        for key, coeff in items:
            coeff = _norm(coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff))
            if coeff == 0:
                continue
            key = key if type(key) is Partition else Partition(key)
            clean[key] = _norm(clean.get(key, 0) + coeff) if key in clean else coeff
            if clean[key] == 0:
                del clean[key]
        self.basis = basis
        self._terms = clean
        self._hash = None

    @classmethod
    def _raw(cls, basis: Basis, terms: dict[Partition, Coeff]) -> "SymmetricFunction":
        """Internal fast path; ``terms`` must be normalized and is adopted."""
        obj = object.__new__(cls)
        obj.basis = basis
        obj._terms = terms
        obj._hash = None
        return obj

    # -- inspection ---------------------------------------------------

    def items(self) -> Iterator[tuple[Partition, Coeff]]:
        return iter(self._terms.items())

    def support(self) -> list[Partition]:
        return sorted(self._terms)

    def coefficient(self, key: Iterable[int]) -> Coeff:
        return self._terms.get(Partition(key), 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def degrees(self) -> list[int]:
        return sorted({k.size for k in self._terms})

    def degree(self) -> int | None:
        """Largest degree present, or None for the zero function."""
        return max((k.size for k in self._terms), default=None)

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def is_nonnegative_integral(self) -> bool:
        return all(isinstance(c, int) and c >= 0 for c in self._terms.values())

    # -- ring structure -----------------------------------------------

    def _coerced(self, other: "SymmetricFunction") -> "SymmetricFunction":
        if other.basis is self.basis or not other._terms:
            return other
        return to_schur(other) if self.basis is SCHUR else to_power(other)

    def __add__(self, other: "SymmetricFunction") -> "SymmetricFunction":
        if not isinstance(other, SymmetricFunction):
            return NotImplemented
        if not self._terms:
            return other
        other = self._coerced(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = _norm(out.get(key, 0) + c)
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return SymmetricFunction._raw(self.basis, out)

    def __neg__(self) -> "SymmetricFunction":
        return SymmetricFunction._raw(self.basis, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "SymmetricFunction") -> "SymmetricFunction":
        return self + (-other)

    def scale(self, c: Coeff) -> "SymmetricFunction":
        c = _norm(c if isinstance(c, (int, Fraction)) else Fraction(c))
        if c == 0:
            return SymmetricFunction._raw(self.basis, {})
        return SymmetricFunction._raw(
            self.basis, {k: _norm(v * c) for k, v in self._terms.items()}
        )

    def __rmul__(self, c: Coeff) -> "SymmetricFunction":
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other) -> "SymmetricFunction":
        if isinstance(other, SymmetricFunction):
            return mul(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # -- graded pieces ------------------------------------------------

    def homogeneous_part(self, t: int) -> "SymmetricFunction":
        """Terms of degree exactly ``t``."""
        if t < 0:
            return SymmetricFunction._raw(self.basis, {})
        return SymmetricFunction._raw(
            self.basis, {k: c for k, c in self._terms.items() if k.size == t}
        )

    def add_box(self) -> "SymmetricFunction":
        """Replace every Schur key by key+box; input must be homogeneous."""
        if self.basis is not SCHUR:
            raise ValueError("add_box requires the Schur basis")
        if not self.is_homogeneous():
            raise ValueError("add_box requires a homogeneous function")
        return SymmetricFunction._raw(
            SCHUR, {k.add_box(): c for k, c in self._terms.items()}
        )

    # -- equality -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymmetricFunction):
            return NotImplemented
        if self._terms != other._terms:
            return False
        return not self._terms or self.basis is other.basis

    def __hash__(self) -> int:
        if self._hash is None:
            basis = self.basis if self._terms else None
            self._hash = hash((basis, frozenset(self._terms.items())))
        return self._hash

    # -- rendering ----------------------------------------------------

    def to_text(self) -> str:
        """Human-readable expansion, e.g. ``3*s[4,1] + s[3,2]``."""
        if not self._terms:
            return "0"
        letter = self.basis.value
        pieces = []
        for key in sorted(self._terms, reverse=True):
            c = self._terms[key]
            body = f"{letter}{key.text()}"
            mag = abs(c)
            term = body if mag == 1 else f"{mag}*{body}"
            pieces.append(("-" if c < 0 else "+", term))
        sign, first = pieces[0]
        out = ("-" if sign == "-" else "") + first
        for sign, term in pieces[1:]:
            out += f" {sign} {term}"
        return out

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"<SymmetricFunction {self.to_text()}>"

    def to_json_obj(self) -> dict[str, str]:
        """JSON mapping from partition text to rational string."""
        return {k.text(): str(self._terms[k]) for k in sorted(self._terms)}

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, str], basis: Basis = SCHUR) -> "SymmetricFunction":
        return cls(basis, ((Partition.parse(k), Fraction(v)) for k, v in obj.items()))


_TERM_RE = re.compile(r"(?:(\d+(?:/\d+)?)\*)?([sp])(\[[^\]]*\])")


def from_text(text: str, expect_basis: Basis | None = None) -> SymmetricFunction:
    """Parse the ``to_text`` rendering back into a function."""
    text = text.strip()
    if text == "0":
        return SymmetricFunction(expect_basis or SCHUR)
    terms: list[tuple[Partition, Coeff]] = []
    basis_seen: set[str] = set()
    pos, sign = 0, 1
    while pos < len(text):
        ch = text[pos]
        if ch in "+- ":
            if ch == "-":
                sign = -1
            elif ch == "+":
                sign = 1
            pos += 1
            continue
        m = _TERM_RE.match(text, pos)
        if m is None:
            raise ValueError(f"cannot parse symmetric function text: {text!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else 1
        basis_seen.add(m.group(2))
        terms.append((Partition.parse(m.group(3)), sign * coeff))
        sign = 1
        pos = m.end()
    if len(basis_seen) != 1:
        raise ValueError(f"mixed bases in {text!r}")
    basis = SCHUR if basis_seen.pop() == "s" else POWER
    if expect_basis is not None and basis is not expect_basis:
        raise ValueError(f"expected {expect_basis} terms in {text!r}")
    return SymmetricFunction(basis, terms)


# -- constructors ------------------------------------------------------


def zero(basis: Basis = SCHUR) -> SymmetricFunction:
    return SymmetricFunction._raw(basis, {})


def one(basis: Basis = SCHUR) -> SymmetricFunction:
    return SymmetricFunction._raw(basis, {Partition(): 1})


def schur(key: Iterable[int]) -> SymmetricFunction:
    """The Schur function s_key."""
    return SymmetricFunction._raw(SCHUR, {Partition(key): 1})


def h(n: int) -> SymmetricFunction:
    """Complete homogeneous h_n = s_(n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return schur((n,)) if n else one(SCHUR)


def e(n: int) -> SymmetricFunction:
    """Elementary e_n = s_(1^n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return schur((1,) * n)


def p(key: Iterable[int]) -> SymmetricFunction:
    """The power sum p_key."""
    return SymmetricFunction._raw(POWER, {Partition(key): 1})


# -- products ----------------------------------------------------------


def _merge_keys(a: Partition, b: Partition) -> Partition:
    return Partition(sorted(a + b, reverse=True))


def mul(f: SymmetricFunction, g: SymmetricFunction) -> SymmetricFunction:
    """Exact product; result is expressed in the basis of ``f``.

    Schur-basis pairs expand through Littlewood-Richardson coefficients
    (the smaller key acts as the tableau weight); anything involving the
    power basis multiplies by key concatenation.
    """
    if not f._terms or not g._terms:
        return zero(f.basis)
    if f.basis is SCHUR and g.basis is SCHUR:
        out: dict[Partition, Coeff] = {}
        for lam, c1 in f._terms.items():
            for mu, c2 in g._terms.items():
                base, weight = (lam, mu) if lam.size >= mu.size else (mu, lam)
                c = c1 * c2
                for nu, m in lr.lr_expand(base, weight):
                    s = _norm(out.get(nu, 0) + c * m)
                    if s == 0:
                        out.pop(nu, None)
                    else:
                        out[nu] = s
        return SymmetricFunction._raw(SCHUR, out)
    fp, gp = to_power(f), to_power(g)
    out = {}
    for k1, c1 in fp._terms.items():
        for k2, c2 in gp._terms.items():
            key = _merge_keys(k1, k2)
            s = _norm(out.get(key, 0) + c1 * c2)
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    result = SymmetricFunction._raw(POWER, out)
    return to_schur(result) if f.basis is SCHUR else result


def pad(f: SymmetricFunction, q: int) -> SymmetricFunction:
    """The product f * h_q of a Schur-basis ``f``, equal to
    ``mul(f, h(q))``: every key grows by each horizontal q-strip, with
    coefficient 1 (Pieri rule, Macdonald I.(5.16))."""
    out: dict[Partition, Coeff] = {}
    for lam, c in f._terms.items():
        for nu in lr.horizontal_strips(lam, q):
            out[nu] = out.get(nu, 0) + c
    return SymmetricFunction._raw(
        SCHUR, {nu: c if type(c) is int else _norm(c) for nu, c in out.items() if c}
    )


# -- involution and basis change ---------------------------------------


def omega(f: SymmetricFunction) -> SymmetricFunction:
    """The involution sending h_n to e_n.

    Conjugates Schur keys; on power sums multiplies p_mu by
    (-1)^(|mu| - length(mu)).
    """
    if f.basis is SCHUR:
        return SymmetricFunction._raw(
            SCHUR, {k.conjugate(): c for k, c in f._terms.items()}
        )
    return SymmetricFunction._raw(
        POWER,
        {k: (c if (k.size - len(k)) % 2 == 0 else -c) for k, c in f._terms.items()},
    )


def _common_denominator(coeffs: Iterable[Coeff]) -> tuple[list[int], int]:
    """Integer numerators of ``coeffs`` over the lcm of their denominators."""
    coeffs = list(coeffs)
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _ratio(num: int, den: int) -> Coeff:
    """num/den as an ``int`` when it divides, else a reduced ``Fraction``."""
    return num // den if num % den == 0 else Fraction(num, den)


def _by_degree(f: SymmetricFunction) -> dict[int, list[tuple[Partition, Coeff]]]:
    parts: dict[int, list[tuple[Partition, Coeff]]] = {}
    for key, c in f._terms.items():
        parts.setdefault(key.size, []).append((key, c))
    return parts


def to_power(f: SymmetricFunction) -> SymmetricFunction:
    """Exact expansion in the power-sum basis.

    On each degree n: the coefficient of p_mu is the dot product of the
    Schur coefficients with the character column of mu, over z_mu.
    """
    if f.basis is POWER:
        return f
    out: dict[Partition, Coeff] = {}
    for n, terms in _by_degree(f).items():
        nums, den = _common_denominator(c for _, c in terms)
        rows = characters.class_index(n)
        weighted = [(rows[lam], a) for (lam, _), a in zip(terms, nums)]
        for mu in characters.classes(n):
            column = characters.character_column(mu)
            x = sum(column[j] * a for j, a in weighted)
            if x:
                out[mu] = _ratio(x, den * characters.zee(mu))
    return SymmetricFunction._raw(POWER, out)


def to_schur(f: SymmetricFunction) -> SymmetricFunction:
    """Exact expansion in the Schur basis.

    On each degree n: the Schur coefficients are the sum of the
    character columns of the power-sum keys, weighted by the
    coefficients' integer numerators.
    """
    if f.basis is SCHUR:
        return f
    out: dict[Partition, Coeff] = {}
    for n, terms in _by_degree(f).items():
        nums, den = _common_denominator(c for _, c in terms)
        acc = [0] * len(characters.classes(n))
        for (mu, _), a in zip(terms, nums):
            acc = [x + a * y for x, y in zip(acc, characters.character_column(mu))]
        for lam, x in zip(characters.classes(n), acc):
            if x:
                out[lam] = _ratio(x, den)
    return SymmetricFunction._raw(SCHUR, out)
