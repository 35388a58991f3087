"""Exact symmetric function algebra: bases, products, plethysm, series."""

from .core import (
    POWER,
    SCHUR,
    Basis,
    SymmetricFunction,
    e,
    from_text,
    h,
    mul,
    omega,
    one,
    p,
    schur,
    to_power,
    to_schur,
    zero,
)
from .characters import sn_character, zee
from .lr import LRTableau, lr_coeff, lr_expand, lr_tableaux, phi_shift, phi_unshift
from .plethysm import plethysm
from .series import (
    hook_series,
    lie_character,
    lie_series,
    moebius,
    partition_homology_character,
    signed_homology_series,
)

__all__ = [
    "Basis",
    "SCHUR",
    "POWER",
    "SymmetricFunction",
    "schur",
    "h",
    "e",
    "p",
    "zero",
    "one",
    "mul",
    "omega",
    "to_schur",
    "to_power",
    "from_text",
    "sn_character",
    "zee",
    "LRTableau",
    "lr_expand",
    "lr_coeff",
    "lr_tableaux",
    "phi_shift",
    "phi_unshift",
    "plethysm",
    "lie_character",
    "lie_series",
    "partition_homology_character",
    "signed_homology_series",
    "hook_series",
    "moebius",
]
