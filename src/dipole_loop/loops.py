"""Cutoff-regularized Euclidean momentum integrals in four dimensions.

Every loop integral reduces by 4D spherical symmetry to

    int_{|l| <= Lambda} d^4 l / (2 pi)^4 g(l^2)
        = (1 / 16 pi^2) int_0^{Lambda^2} u g(u) du,

the factor 1/(16 pi^2) being 2 pi^2 / (2 pi)^4 from the 3-sphere area
times 1/2 from u = l^2. The closed forms below are exact antiderivatives
at finite Lambda (all boundary terms kept) and take arrays of scales;
radial_quadrature, tanh-sinh quadrature in numpy (Takahasi & Mori, Publ.
RIMS 9, 721, 1974), is the independent oracle they are tested against:
it shares no rule with them or with renorm's Gauss-Legendre rules.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import KinematicDomainError, QuadratureError

__all__ = [
    "PREFACTOR",
    "RegScheme",
    "MasterIntegralKind",
    "radial_quadrature",
    "master_integral",
    "master_integral_d_scale",
    "a_sq",
    "b_sq",
    "feynman_identity_check",
    "symmetric_integration_check",
]

PREFACTOR = 1.0 / (16.0 * np.pi**2)


class RegScheme:
    """Hard radial cutoff |l| <= Lambda with a quadrature tolerance."""

    def __init__(self, Lambda: float, quad_tol: float = 1e-10):
        if Lambda <= 0:
            raise ValueError(f"Lambda must be positive, got {Lambda}")
        if not 0 < quad_tol < 1e-2:
            raise ValueError(f"quad_tol out of range: {quad_tol}")
        self.Lambda = float(Lambda)
        self.quad_tol = float(quad_tol)

    def __repr__(self):
        return f"RegScheme(Lambda={self.Lambda!r}, quad_tol={self.quad_tol!r})"


class MasterIntegralKind(Enum):
    """The inner l-integrals appearing at one loop.

    Integrands are over the Euclidean 4-ball of radius Lambda with
    measure d^4 l / (2 pi)^4:

    I_A: l^2 / (l^2 + s)^2    (quadratic divergence, self-energy l l term)
    I_B: 1 / (l^2 + s)        (quadratic divergence)
    I_C: 1 / (l^2 + s)^3      (convergent, vertex momentum term)
    I_D: l^2 / (l^2 + s)^3    (log divergence, vertex l l term)
    I_E: 1 / (l^2 + s)^2      (log divergence, self-energy momentum term
                               and photon polarization)
    """

    I_A = "I_A"
    I_B = "I_B"
    I_C = "I_C"
    I_D = "I_D"
    I_E = "I_E"


def _tanh_sinh(h: float):
    """Tanh-sinh rule on [0, 1], step h: x = (1 + tanh w) / 2, w = (pi/2) sinh t, |t| <= 4.

    Returns x, 1 - x (both e^(+-w) / (2 cosh w), so nothing cancels at an end), weights.
    """
    t = h * np.arange(-round(4.0 / h), round(4.0 / h) + 1)
    w = 0.5 * np.pi * np.sinh(t)
    c = 2.0 * np.cosh(w)
    return np.exp(w) / c, np.exp(-w) / c, h * 0.5 * np.pi * np.cosh(t) / (c * np.cosh(w))


def _tanh_sinh_integral(rule_sum, tol: float, what: str) -> float:
    """Apply rule_sum(x, 1 - x, weights) at steps h = 1/2, 1/4, ... until two
    levels agree within tol relative; raise QuadratureError past h = 2^-8."""
    if tol < np.finfo(float).eps:
        raise QuadratureError(f"{what} cannot reach {tol:.2e} relative in double precision")
    h = 0.5
    prev = rule_sum(*_tanh_sinh(h))
    while h > 2.0**-8:
        h /= 2.0
        value = rule_sum(*_tanh_sinh(h))
        change = abs(value - prev)
        if change <= tol * abs(value):
            return float(value)
        prev = value
    raise QuadratureError(f"{what} did not reach {tol:.2e} relative by step 2^-8 (last change {change:.2e})")


def radial_quadrature(f, Lambda: float, tol: float = 1e-10):
    """Oracle: integrate f(l^2) over the 4-ball numerically.

    f takes an array of u = l^2 and must be continuous on [0, Lambda^2].
    Deterministic for fixed (f, Lambda, tol).
    """
    if Lambda < 0:
        raise ValueError("Lambda must be >= 0")
    if Lambda == 0:
        return 0.0
    L2 = Lambda**2
    value = _tanh_sinh_integral(lambda x, _, w: L2 * (w @ (L2 * x * f(L2 * x))), tol, "radial quadrature")
    return PREFACTOR * value


def _check_scale(scale_sq, Lambda: float) -> None:
    if Lambda <= 0:
        raise ValueError(f"Lambda must be positive, got {Lambda}")
    scale_sq = np.asarray(scale_sq)
    bad = ~(np.isfinite(scale_sq) & (scale_sq > 0))
    if np.any(bad):
        raise KinematicDomainError(
            f"non-positive integrand scale a^2/b^2 = {scale_sq[bad].flat[0]}; "
            "kinematics outside the Euclidean domain"
        )


def master_integral(kind: MasterIntegralKind, scale_sq, Lambda: float):
    """Exact closed form of the chosen inner integral at finite Lambda.

    scale_sq may be a scalar or an array; the result has its shape.
    """
    _check_scale(scale_sq, Lambda)
    s = scale_sq
    L2 = Lambda**2
    T = L2 + s
    log = np.log(T / s)
    if kind is MasterIntegralKind.I_A:
        bracket = L2 + s - 2.0 * s * log - s**2 / T
    elif kind is MasterIntegralKind.I_B:
        bracket = L2 - s * log
    elif kind is MasterIntegralKind.I_C:
        bracket = 0.5 / s - 1.0 / T + 0.5 * s / T**2
    elif kind is MasterIntegralKind.I_D:
        bracket = log - 1.5 + 2.0 * s / T - 0.5 * s**2 / T**2
    elif kind is MasterIntegralKind.I_E:
        bracket = log - L2 / T
    else:
        raise ValueError(f"unknown master integral kind {kind!r}")
    return PREFACTOR * bracket


def master_integral_d_scale(kind: MasterIntegralKind, scale_sq, Lambda: float):
    """Exact derivative of master_integral with respect to the scale.

    Needed by the first-order mass-splitting expansion of the
    self-energy; only the kinds that enter it are provided. Takes a
    scalar or an array scale like master_integral.
    """
    _check_scale(scale_sq, Lambda)
    s = scale_sq
    L2 = Lambda**2
    T = L2 + s
    log = np.log(T / s)
    if kind is MasterIntegralKind.I_A:
        d = 3.0 - 2.0 * log - 4.0 * s / T + (s / T) ** 2
    elif kind is MasterIntegralKind.I_E:
        d = 1.0 / T - 1.0 / s + L2 / T**2
    else:
        raise ValueError(f"scale derivative not implemented for {kind!r}")
    return PREFACTOR * d


def a_sq(x: float, p_sq: float, m_sq: float) -> float:
    """Self-energy Feynman-parameter scale a^2 = m^2 x + p^2 x (1 - x)."""
    return m_sq * x + p_sq * x * (1.0 - x)


def b_sq(x: float, y: float, q_sq: float, m2_sq: float, delta: float) -> float:
    """Vertex scale b^2 = x^2 m2^2 + delta x^2 (1 - y) + x^2 y (1 - y) q^2."""
    return x * x * m2_sq + delta * x * x * (1.0 - y) + x * x * y * (1.0 - y) * q_sq


def feynman_identity_check(A: float, B: float, C: float | None = None, tol: float = 1e-11) -> float:
    """Max relative deviation of the parameter formula from 1/(AB) or 1/(ABC).

    Two denominators: 1/(AB) = int_0^1 dx [x A + (1-x) B]^(-2).
    Three denominators: 1/(ABC) = 2 int_0^1 x dx int_0^1 dy
    [x y A + x (1-y) B + (1-x) C]^(-3).
    """
    if A <= 0 or B <= 0 or (C is not None and C <= 0):
        raise ValueError("denominators must be positive")
    if C is None:
        prod = A * B

        def rule_sum(x, xb, w):
            return w @ (x * A + xb * B) ** -2

    else:
        prod = A * B * C

        def rule_sum(x, xb, w):
            # product rule, one weight vector per axis: x on axis 0, y on axis 1
            x, xb, y, yb = x[:, None], xb[:, None], x[None, :], xb[None, :]
            return w @ (2.0 * x / (x * (y * A + yb * B) + xb * C) ** 3) @ w

    val = _tanh_sinh_integral(rule_sum, tol, "Feynman identity quadrature")
    return abs(val - 1.0 / prod) * prod


def symmetric_integration_check(n_samples: int = 200_000, seed: int = 7) -> dict:
    """Monte-Carlo check of l_tau l_lambda -> (1/4) delta_tau_lambda l^2.

    Uniform directions on the 3-sphere: off-diagonal second moments
    vanish and diagonal ones equal 1/4, each within statistical error.
    Returns the worst off-diagonal and diagonal z-scores.
    """
    rng = np.random.default_rng(seed)
    n = rng.normal(size=(n_samples, 4))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    # all ten second moments, then the variances of their samples from
    # the squares' products, in place
    mean = n.T @ n / n_samples
    n *= n
    var = (n.T @ n / n_samples - mean * mean) * (n_samples / (n_samples - 1))
    z = np.abs(mean - 0.25 * np.eye(4)) / np.sqrt(var / n_samples)
    z_off = z[~np.eye(4, dtype=bool)].max()
    z_diag = z.diagonal().max()
    return {"max_offdiag_z": float(z_off), "max_diag_z": float(z_diag), "n_samples": n_samples}
