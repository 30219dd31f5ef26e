"""Dimension-dependent constants of the conformal Laplacian."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DimensionConstants:
    """Constants a = 4(n-1)/(n-2) and p = 2n/(n-2) for dimension n >= 3.

    The conformal Laplacian is -a*Laplace + R and p - 1 is the critical
    exponent of the nonlinearity.
    """

    n: int
    a: float = field(init=False)
    p: float = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"dimension must be >= 3, got {self.n}")
        object.__setattr__(self, "a", 4.0 * (self.n - 1) / (self.n - 2))
        object.__setattr__(self, "p", 2.0 * self.n / (self.n - 2))

    @property
    def p_minus_2(self) -> float:
        """The conformal exponent p - 2 = 4/(n-2)."""
        return 4.0 / (self.n - 2)
