"""Quadratic extension field F_p2 = F_p[i] / (i^2 + 1).

Because every pairing curve in this package uses ``p = 3 (mod 4)``, the
polynomial ``i^2 + 1`` is irreducible over F_p and this representation is
always valid.  Elements are immutable ``a + b*i`` pairs.

The pairing kernels of :mod:`repro.pairing.fastpath` work on raw
integer pairs for speed; this class is the boundary representation used
by GT elements and by tests/property checks.
"""

from __future__ import annotations


from repro.errors import ParameterError


class Fp2:
    """An element ``a + b*i`` of F_p2 with ``i^2 = -1``."""

    __slots__ = ("a", "b", "p")

    def __init__(self, a: int, b: int, p: int) -> None:
        self.a = a % p
        self.b = b % p
        self.p = p

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls, p: int) -> "Fp2":
        """Multiplicative identity."""
        return cls(1, 0, p)

    # -- predicates ---------------------------------------------------

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Fp2") -> None:
        if self.p != other.p:
            raise ParameterError("mixed-field Fp2 arithmetic")

    def __add__(self, other: "Fp2") -> "Fp2":
        self._check(other)
        return Fp2(self.a + other.a, self.b + other.b, self.p)

    def __sub__(self, other: "Fp2") -> "Fp2":
        self._check(other)
        return Fp2(self.a - other.a, self.b - other.b, self.p)

    def __neg__(self) -> "Fp2":
        return Fp2(-self.a, -self.b, self.p)

    def __mul__(self, other: "Fp2") -> "Fp2":
        self._check(other)
        a, b, c, d, p = self.a, self.b, other.a, other.b, self.p
        # (a + bi)(c + di) = (ac - bd) + (ad + bc) i
        return Fp2((a * c - b * d) % p, (a * d + b * c) % p, p)

    def norm(self) -> int:
        """Return the field norm ``a^2 + b^2`` in F_p."""
        return (self.a * self.a + self.b * self.b) % self.p

    def inverse(self) -> "Fp2":
        """Return the multiplicative inverse.

        Uses ``x^-1 = conj(x) / norm(x)``; raises
        :class:`ParameterError` on zero.
        """
        n = self.norm()
        if n == 0:
            raise ParameterError("inverting zero in Fp2")
        n_inv = pow(n, -1, self.p)
        return Fp2(self.a * n_inv, -self.b * n_inv, self.p)

    def __truediv__(self, other: "Fp2") -> "Fp2":
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "Fp2":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result_a, result_b = 1, 0
        base_a, base_b = self.a, self.b
        p = self.p
        e = exponent
        while e:
            if e & 1:
                result_a, result_b = ((result_a * base_a - result_b * base_b)
                                      % p,
                                      (result_a * base_b + result_b * base_a)
                                      % p)
            base_a, base_b = ((base_a + base_b) * (base_a - base_b) % p,
                              2 * base_a * base_b % p)
            e >>= 1
        return Fp2(result_a, result_b, p)

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fp2):
            return NotImplemented
        return (self.a, self.b, self.p) == (other.a, other.b, other.p)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.p))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Fp2({self.a:#x}, {self.b:#x})"
