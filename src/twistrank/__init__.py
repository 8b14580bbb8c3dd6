"""Explicit-formula rank bounds and moment statistics for quadratic twist
families of elliptic curves.

The package-level names below resolve on first access: ``from twistrank
import kronecker`` imports ``twistrank.arith`` alone, and each command
line loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "arith": (
        "ParityDecomposition",
        "PrimeTable",
        "fundamental_discriminant",
        "kronecker",
        "mobius",
        "parity_decompose",
        "sieve_primes",
        "squarefree_part",
    ),
    "curve": (
        "CurveModel",
        "builtin_catalog",
        "cpm",
        "load_catalog",
    ),
    "explicit_formula": (),  # reached as twistrank.explicit_formula
    "family_moments": (
        "MomentConfig",
        "MomentRow",
        "X_k",
        "empirical_rank_tail",
        "lowzero_density_bound",
        "rank_density_bound",
        "sign_partition_stats",
        "theoretical_moment_bound",
        "weighted_moment",
    ),
    "kernel": (
        "SmoothWeight",
        "TriangleKernel",
        "archimedean_integral",
        "triangle",
        "weight_eval",
        "weight_fourier",
        "weight_l_eval",
    ),
}
# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}
__all__ = list(_EXPORTS)  # `from twistrank import *` loads every module


def __getattr__(name):
    if name in _MODULE_EXPORTS:  # twistrank.curve and the like, as before
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_MODULE_EXPORTS))
