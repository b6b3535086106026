"""Parameter algebra for radial self-similar profiles of u_t = div(grad(u^m/m)).

All downstream solvers consume a fully derived ProfileParams; nothing else in
the package recomputes exponents from (n, m, rho1, beta).
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class DomainError(ValueError):
    """Raised when inputs violate an admissibility inequality; names it."""


@dataclass(frozen=True)
class ProfileParams:
    """Dimension, diffusion exponent, scaling constants, and derived exponents.

    alpha solves alpha*(1-m) = 2*beta + rho1.  The tilde pair (alpha_tilde,
    beta_tilde) parameterizes the inverted (far-field) problem.  delta0 and
    delta1 govern the derivative singularity of g at the origin when
    (n-2)/(n+1) <= m < (n-2)/n.
    """

    n: int
    m: float
    rho1: float
    beta: float
    alpha: float
    alpha_tilde: float
    beta_tilde: float
    delta0: float
    delta1: float
    beta_threshold: float

    @property
    def k(self) -> float:
        """Decay exponent (n-2)/m of the fast branch; also the inversion power."""
        return (self.n - 2) / self.m

    @property
    def sigma(self) -> float:
        """(n-2-n*m)/m = 1 - delta1; the far-field weight is r^(n+sigma-3)."""
        return (self.n - 2 - self.n * self.m) / self.m


@dataclass(frozen=True)
class RegimeFlags:
    origin_admissible: bool
    farfield_admissible: bool
    singular_g_origin: bool
    lemma_applicable: bool  # alpha_tilde > 0, beta_tilde != 0, quotient bound


def require_positive(**values: float) -> None:
    """Refuse the first named setting that is not a positive finite number."""
    for name, x in values.items():
        if not 0.0 < x < math.inf:
            raise DomainError(f"{name}={x} violates 0 < {name} < inf")


def derive_params(n: int, m: float, rho1: float, beta: float) -> ProfileParams:
    """Validate (n, m, rho1, beta) and populate every derived exponent.

    Raises DomainError naming the violated inequality.
    """
    if int(n) != n or n < 3:
        raise DomainError(f"n must be an integer >= 3, got {n}")
    n = int(n)
    if not (0.0 < m < (n - 2) / n):
        raise DomainError(f"m must satisfy 0 < m < (n-2)/n = {(n - 2) / n:.17g}, got {m}")
    require_positive(rho1=rho1)
    if not math.isfinite(beta):
        raise DomainError(f"beta={beta} violates -inf < beta < inf")
    if not n - 2 - n * m > 0.0:
        raise DomainError(
            f"m={m!r} is too close to (n-2)/n: n - 2 - n*m = {n - 2 - n * m!r} "
            f"is not positive in floating point")
    alpha = (2.0 * beta + rho1) / (1.0 - m)
    sigma = (n - 2 - n * m) / m
    return ProfileParams(
        n=n,
        m=float(m),
        rho1=float(rho1),
        beta=float(beta),
        alpha=alpha,
        alpha_tilde=alpha - ((n - 2) / m) * beta,
        beta_tilde=-beta,
        delta0=sigma / 2.0,
        delta1=1.0 - sigma,
        beta_threshold=m * rho1 / (n - 2 - n * m),
    )


def classify_regime(p: ProfileParams) -> RegimeFlags:
    """Strict-inequality regime flags; boundary beta values classify as inadmissible."""
    t1 = -p.rho1 / 2.0 < p.beta < p.beta_threshold
    t2 = p.beta < p.beta_threshold
    singular = p.m >= (p.n - 2) / (p.n + 1)
    lemma = (
        p.alpha_tilde > 0.0
        and p.beta_tilde != 0.0
        and p.alpha_tilde / p.beta_tilde <= (p.n - 2) / p.m
    )
    return RegimeFlags(
        origin_admissible=t1,
        farfield_admissible=t2,
        singular_g_origin=singular,
        lemma_applicable=lemma,
    )


def require_origin_admissible(p: ProfileParams) -> None:
    """Solver entry gate for the origin problem (the two-sided beta window)."""
    if not classify_regime(p).origin_admissible:
        lo, hi = -p.rho1 / 2.0, p.beta_threshold
        raise DomainError(
            f"beta={p.beta:.17g} outside the origin-problem window "
            f"(-rho1/2, m*rho1/(n-2-n*m)) = ({lo:.17g}, {hi:.17g})"
        )


def require_farfield_admissible(p: ProfileParams) -> None:
    """Solver entry gate for the far-field problem (one-sided window)."""
    if not classify_regime(p).farfield_admissible:
        raise DomainError(
            f"beta={p.beta:.17g} not below the far-field threshold "
            f"m*rho1/(n-2-n*m) = {p.beta_threshold:.17g}"
        )
    if not p.alpha_tilde > 0.0:
        raise DomainError(
            f"alpha_tilde = {p.alpha_tilde:.17g} must be positive for the inverted problem"
        )
