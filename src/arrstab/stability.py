"""Stabilization pipelines for k-equal arrangement cohomology.

The degree-i characteristic at n points is assembled as a finite sum of
summands psi(n, q, r, t).  Each summand is e_r (even d) or h_r (odd d)
composed into the Lie series, omega-twisted for odd k, composed into the
hook series, omega-twisted for even d, restricted in degree and padded
by a one-row factor h_q.  The degree equation fixes the restricted
degree at m = n - q = r + (i - t(k-2))/(d-1), independent of n, so each
summand needs the one degree m of its core series: plethysm computes
only that degree, from hooks expanded into the power basis once each,
and the Schur piece is cached.  The characteristic at n is the sum over
m of C_m (the pieces of degree m) padded by h_(n-m), one horizontal
strip per key.

Certification walks the pieces instead of rebuilding each n.  By the
Pieri rule a strip with a box in row 1 is a shorter strip plus that box,
so V_n = add_box(V_(n-1)) + D_n, where D_n is C_n plus the strips on
the lower C_m that leave row 1 alone (nonzero only while n - m is at
most the first row).  The add-a-box step holds at n exactly when D_n is
zero, and the last failing step, checked against the proven rational
bounds, is the sharp bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

from .partitions import LambdaSet, Partition
from .symfunc import (
    SCHUR,
    SymmetricFunction,
    e,
    h,
    from_text,
    lie_series,
    mul,
    omega,
    pad,
    plethysm,
    to_power,
    to_schur,
    zero,
)
from .symfunc.lr import horizontal_strips
from .symfunc.series import hook_power_series

Progress = Callable[[str], None] | None


@dataclass(frozen=True)
class PsiParams:
    """Index of one summand; the cohomological degree is derived."""

    n: int
    q: int
    r: int
    t: int
    d: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.q < 0:
            raise ValueError("q must be nonnegative")
        if self.r < 1 or self.t < 1:
            raise ValueError("r and t must be at least 1")
        if self.d < 2:
            raise ValueError("d must be at least 2")
        if self.k < self.d + 1:
            raise ValueError("k must be at least d+1")

    @property
    def i(self) -> int:
        return (self.d - 1) * (self.n - self.r - self.q) + self.t * (self.k - 2)


@cache
def _inner_piece(d_parity: int, k_parity: int, r: int, t: int) -> SymmetricFunction:
    """Degree-t inner factor in the power basis, before composing with
    the hook series."""
    base = to_power(e(r) if d_parity == 0 else h(r))
    piece = plethysm(base, lie_series(t), t)
    return omega(piece) if k_parity else piece


@cache
def _core_piece(d_parity: int, k: int, r: int, t: int, m: int) -> SymmetricFunction:
    """Degree-m part of the inner piece composed into the hook series,
    omega-twisted for even d, in the Schur basis.

    Each of the t hook factors has degree at least k, so hooks above
    degree m - (t-1)k never reach degree m.
    """
    hooks = hook_power_series(k, m - (t - 1) * k)
    piece = plethysm(_inner_piece(d_parity, k % 2, r, t), hooks, m)
    if d_parity == 0:
        piece = omega(piece)
    return to_schur(piece)


def psi_degree_part(params: PsiParams) -> SymmetricFunction:
    """The degree-(n-q) Schur factor of the summand (before the h_q pad)."""
    m = params.n - params.q
    if m < params.t * params.k:
        return zero(SCHUR)
    return _core_piece(params.d % 2, params.k, params.r, params.t, m)


def psi(params: PsiParams) -> SymmetricFunction:
    """One summand of the k-equal characteristic (Schur basis)."""
    part = psi_degree_part(params)
    if not part:
        return part
    return mul(part, h(params.q))


def _check_character(f: SymmetricFunction, degree: int, context: str) -> None:
    if not f:
        return
    if f.degrees() != [degree]:
        raise AssertionError(f"{context}: expected homogeneous degree {degree}, got {f.degrees()}")
    if not f.is_nonnegative_integral():
        raise AssertionError(f"{context}: coefficients are not nonnegative integers: {f}")


def kequal_summands(n: int, i: int, d: int, k: int) -> list[PsiParams]:
    """Admissible (r, t, q) triples for the degree-i sum at n points.

    t ranges over 1..n//k and r over 1..t (larger values vanish), q is
    solved from the degree equation and kept when it is a nonnegative
    integer leaving room for the minimal hook degree t*k.
    """
    out = []
    for t in range(1, n // k + 1):
        rem = i - t * (k - 2)
        if rem % (d - 1) != 0:
            continue
        for r in range(1, t + 1):
            q = n - r - rem // (d - 1)
            if q < 0 or n - q < t * k:
                continue
            out.append(PsiParams(n=n, q=q, r=r, t=t, d=d, k=k))
    return out


@cache
def kequal_char(n: int, i: int, d: int, k: int) -> SymmetricFunction:
    """Characteristic of the degree-i cohomology of the k-equal complement.

    The sum over m of C_m padded by h_(n-m), where C_m collects the
    summands' Schur pieces of degree m.  Exact, homogeneous of degree n,
    and checked to have nonnegative integer Schur coefficients.
    """
    if d < 2 or k < d + 1:
        raise ValueError("need d >= 2 and k >= d+1")
    if n < 1:
        raise ValueError("n must be at least 1")
    if i < 0:
        raise ValueError("i must be nonnegative")
    pieces: dict[int, SymmetricFunction] = {}
    for params in kequal_summands(n, i, d, k):
        m = params.n - params.q
        pieces[m] = pieces.get(m, zero(SCHUR)) + psi_degree_part(params)
    total = zero(SCHUR)
    for m, piece in pieces.items():
        total = total + pad(piece, n - m)
    _check_character(total, n, f"kequal_char(n={n}, i={i}, d={d}, k={k})")
    return total


@cache
def degree_pieces(d: int, k: int, i: int, top: int) -> dict[int, SymmetricFunction]:
    """The pieces {m: C_m} of the degree-i characteristic with m <= top.

    C_m sums the Schur pieces of the summands of restricted degree m;
    those with m <= top are the summands at n = top, with m = top - q.
    The characteristic at n is the sum of pad(C_m, n - m) over m <= n.
    Since r <= t and k >= d+1, every m is at most i/(d-1).  Shared; do
    not mutate.
    """
    pieces: dict[int, SymmetricFunction] = {}
    for params in kequal_summands(top, i, d, k):
        m = top - params.q
        pieces[m] = pieces.get(m, zero(SCHUR)) + psi_degree_part(params)
    return pieces


def lower_pad(f: SymmetricFunction, q: int) -> SymmetricFunction:
    """R_q(f) for q >= 1: the part of pad(f, q) whose horizontal q-strips
    put no box in row 1.

    Such a strip on lambda is a strip on lambda minus its first row that
    stays within lambda_1, so R_q(s_lambda) is zero exactly when
    q > lambda_1.  The other strips, with a box in row 1, are the
    (q-1)-strips with that box added (their second row is at most
    lambda_1), so pad(f, q) = add_box(pad(f, q-1)) + R_q(f).
    """
    out: dict[Partition, int] = {}
    for lam, c in f.items():
        top = lam[0] if lam else 0
        if q > top:
            continue
        for nu in horizontal_strips(lam[1:], q):
            if nu[0] <= top:
                key = Partition((top, *nu))
                out[key] = out.get(key, 0) + c
    return SymmetricFunction(SCHUR, out)


def is_stable_step(v_n: SymmetricFunction, v_prev: SymmetricFunction) -> bool:
    """Whether v_n equals v_prev with a box added to every key."""
    v_n, v_prev = to_schur(v_n), to_schur(v_prev)
    if not v_prev:
        return not v_n
    if not v_n:
        return False
    if not (v_n.is_homogeneous() and v_prev.is_homogeneous()):
        raise ValueError("stability step needs homogeneous inputs")
    if v_n.degree() != v_prev.degree() + 1:
        raise ValueError(
            f"degree mismatch: {v_n.degree()} vs {v_prev.degree()} + 1"
        )
    return v_n == v_prev.add_box()


def theorem_bounds(d: int, k: int, i: int) -> set[Fraction]:
    """Proven stabilization bounds for the k-equal sequence at degree i.

    Always contains 2i/(d-1); for even d and k >= d+2 the second bound
    ki/(k-d-1) applies as well.  "Stabilizes at m" means the add-a-box
    step holds for every n > m.
    """
    if d < 2 or k < d + 1:
        raise ValueError("need d >= 2 and k >= d+1")
    if i < 0:
        raise ValueError("i must be nonnegative")
    bounds = {Fraction(2 * i, d - 1)}
    if d % 2 == 0 and k >= d + 2:
        bounds.add(Fraction(k * i, k - d - 1))
    return bounds


def general_bound(lam: LambdaSet, i: int, d: int) -> Fraction:
    """Stabilization bound 4(i+1-rank)/(d-1) for a padded base set."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return Fraction(4 * (i + 1 - lam.rank), d - 1)


@dataclass
class StabilityReport:
    """Computed characteristics over a range of n with certification.

    ``sharp_bound`` is the largest failing step of a certified window,
    None for a vacuous or horizon-limited one.
    """

    d: int
    k: int
    i: int
    horizon: int
    bounds: tuple[Fraction, ...]
    chars: dict[int, SymmetricFunction]
    stable_steps: dict[int, bool]
    sharp_bound: int | None

    @property
    def certified(self) -> bool:
        """Whether the window reaches the least proven bound."""
        return self.horizon >= math.floor(min(self.bounds))

    @property
    def vacuous(self) -> bool:
        """Whether the sequence is identically zero over the window."""
        return not any(self.chars.values())

    def bound_text(self) -> str:
        if not self.certified:
            return "horizon-limited"
        if self.vacuous:
            return "vacuous"
        return str(self.sharp_bound)

    def to_json_obj(self) -> dict:
        text = self.bound_text()
        return {
            "d": self.d,
            "k": self.k,
            "i": self.i,
            "horizon": self.horizon,
            "bounds": [str(b) for b in self.bounds],
            "chars": {str(n): self.chars[n].to_text() for n in sorted(self.chars)},
            "stable_steps": {str(n): self.stable_steps[n] for n in sorted(self.stable_steps)},
            "sharp_bound": int(text) if text.isdigit() else text,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "StabilityReport":
        sharp = obj["sharp_bound"]
        return cls(
            d=obj["d"],
            k=obj["k"],
            i=obj["i"],
            horizon=obj["horizon"],
            bounds=tuple(Fraction(b) for b in obj["bounds"]),
            chars={int(n): from_text(text) for n, text in obj["chars"].items()},
            stable_steps={int(n): bool(v) for n, v in obj["stable_steps"].items()},
            sharp_bound=sharp if isinstance(sharp, int) else None,
        )

    def csv_row(self) -> str:
        return f"{self.k},{self.i},{self.bound_text()}"


def sharp_bound_certified(
    d: int,
    k: int,
    i: int,
    horizon: int | None = None,
    progress: Progress = None,
) -> StabilityReport:
    """Walk the sequence up to the theorem horizon and certify the sharp
    stabilization point.

    The horizon defaults to floor of the least proven bound; stability
    beyond it is guaranteed, so the largest failing step inside the
    window is the sharp bound.  A lower override gives an uncertified
    report; an identically zero window is reported as vacuous.

    V_0 = 0 and V_n = add_box(V_(n-1)) + D_n with
    D_n = C_n + sum over m < n of lower_pad(C_m, n - m), so the step at n
    holds exactly when D_n is zero.  On a certified window the last
    failing step is also read off the pieces, max(m + lambda_1) over the
    keys lambda of each C_m, and checked against the walk.
    """
    bounds = tuple(sorted(theorem_bounds(d, k, i)))
    least = math.floor(min(bounds))
    window = least if horizon is None else horizon
    pieces = degree_pieces(d, k, i, window)
    for m, piece in pieces.items():
        _check_character(piece, m, f"C_{m} (d={d}, k={k}, i={i})")
        if (d - 1) * m > i:
            raise AssertionError(f"C_{m} above degree i/(d-1) (d={d}, k={k}, i={i})")

    chars: dict[int, SymmetricFunction] = {}
    stable_steps: dict[int, bool] = {}
    v_n = zero(SCHUR)
    for n in range(1, window + 1):
        d_n = pieces.get(n, zero(SCHUR))
        for m, piece in pieces.items():
            if m < n:
                d_n = d_n + lower_pad(piece, n - m)
        v_n = v_n.add_box() + d_n
        _check_character(v_n, n, f"V_{n} (d={d}, k={k}, i={i})")
        chars[n] = v_n
        if n > 1:
            stable_steps[n] = not d_n
        if progress is not None:
            progress(f"n={n} support={len(v_n)}")
    sharp = max((n for n, ok in stable_steps.items() if not ok), default=None)
    if sharp is None and any(chars.values()):
        raise AssertionError(
            f"nonzero sequence with no failing step up to {window} (d={d}, k={k}, i={i})"
        )
    report = StabilityReport(
        d=d,
        k=k,
        i=i,
        horizon=window,
        bounds=bounds,
        chars=chars,
        stable_steps=stable_steps,
        sharp_bound=None,
    )
    if report.certified:
        report.sharp_bound = sharp
        if sharp is not None:
            widest = max(m + lam[0] for m, piece in pieces.items() for lam, _ in piece.items())
            if sharp != widest or sharp > least:
                raise AssertionError(
                    f"last failing step {sharp}, pieces give {widest}, least proven bound "
                    f"{min(bounds)} (d={d}, k={k}, i={i})"
                )
    return report


def lambda_char_smalln(
    n: int, d: int, lam: LambdaSet, i: int, limit: int | None = None
) -> SymmetricFunction:
    """Characteristic for a general padded base set, from the lattice
    homology model (small n only)."""
    from .oracle import sw_complement_char

    return sw_complement_char(n, d, lam.extended(n), i, limit=limit)
