"""Number-theoretic substrate used by every cryptographic module.

This package is dependency-free and intentionally small: modular
arithmetic helpers, probabilistic primality testing / prime generation,
canonical integer <-> byte-string codecs, and the Jacobian
short-Weierstrass arithmetic both curve modules share
(:mod:`repro.mathx.jacobian`).
"""

from repro.mathx.encoding import (
    bytes_to_int,
    byte_length,
    i2osp,
    int_to_bytes,
    os2ip,
)
from repro.mathx.modular import (
    batch_inverse,
    crt_pair,
    inv_mod,
    jacobi_symbol,
    legendre_symbol,
    signed_window_digits,
    sqrt_mod_p34,
    wnaf_digits,
)
from repro.mathx.primes import (
    is_probable_prime,
    next_prime,
    random_prime,
    small_factors,
)

__all__ = [
    "batch_inverse",
    "byte_length",
    "bytes_to_int",
    "crt_pair",
    "i2osp",
    "int_to_bytes",
    "inv_mod",
    "is_probable_prime",
    "jacobi_symbol",
    "legendre_symbol",
    "next_prime",
    "os2ip",
    "random_prime",
    "signed_window_digits",
    "small_factors",
    "sqrt_mod_p34",
    "wnaf_digits",
]
