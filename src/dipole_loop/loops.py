"""Cutoff-regularized Euclidean momentum integrals in four dimensions.

Every loop integral reduces by 4D spherical symmetry to

    int_{|l| <= Lambda} d^4 l / (2 pi)^4 g(l^2)
        = (1 / 16 pi^2) int_0^{Lambda^2} u g(u) du,

the factor 1/(16 pi^2) being 2 pi^2 / (2 pi)^4 from the 3-sphere area
times 1/2 from u = l^2. The closed forms below are exact antiderivatives
at finite Lambda (all boundary terms kept), one math expression per kind
applied to a list of scales: they need no numpy, and take and return a
float, a sequence or an ndarray. radial_quadrature, tanh-sinh quadrature
in numpy (Takahasi & Mori, Publ.
RIMS 9, 721, 1974), is the independent oracle they are tested against:
it shares no rule with them or with renorm's Gauss-Legendre rules.
"""

from __future__ import annotations

import functools
import math
import sys
from enum import Enum

from .errors import KinematicDomainError, QuadratureError

__all__ = [
    "PREFACTOR",
    "MAX_LAMBDA",
    "RegScheme",
    "MasterIntegralKind",
    "radial_quadrature",
    "master_integral",
    "master_integral_d_scale",
    "feynman_identity_check",
    "symmetric_integration_check",
]

PREFACTOR = 1.0 / (16.0 * math.pi**2)
# Lambda^4 (T**2 in master_integral's I_C bracket, Lambda^2/T^2, the first
# closed form to overflow) must stay below the largest double, 1.8e308 = (1.16e77)^4
MAX_LAMBDA = 1e76
# rows per draw in symmetric_integration_check: on a 2 vCPU Xeon a fresh process
# peaked at 34.5 MB with 10,000 against 42.7 with one draw (numpy alone 33.0),
# and no block size ran faster (23.7 against 25.2 ms warm)
_BLOCK = 10_000


def _check_cutoff(Lambda: float) -> None:
    if not 0 < Lambda < math.inf:  # NaN fails too
        raise ValueError(f"Lambda must be finite and positive, got {Lambda}")
    if Lambda > MAX_LAMBDA:
        raise ValueError(f"Lambda must be <= {MAX_LAMBDA:g}, got {Lambda:g}")


class RegScheme:
    """Hard radial cutoff |l| <= Lambda with a quadrature tolerance."""

    def __init__(self, Lambda: float, quad_tol: float = 1e-10):
        _check_cutoff(Lambda)
        if not 0 < quad_tol < 1e-2:
            raise ValueError(f"quad_tol out of range: {quad_tol}")
        self.Lambda = float(Lambda)
        self.quad_tol = float(quad_tol)

    def __repr__(self):
        return f"RegScheme(Lambda={self.Lambda!r}, quad_tol={self.quad_tol!r})"


class MasterIntegralKind(Enum):
    """The inner l-integrals appearing at one loop.

    Each value (a, b) gives the integrand g(u) = u^a / (u + s)^b of u = l^2
    over the Euclidean 4-ball of radius Lambda, measure d^4 l / (2 pi)^4.
    d/ds maps (a, b) to -b (a, b + 1) under the integral, so the scale
    derivatives of I_A, I_E and I_B are master integrals too: -2 I_D, -2 I_C, -I_E.
    """

    I_A = (1, 2)  # l^2 / (l^2 + s)^2: quadratic divergence, self-energy l l term
    I_B = (0, 1)  # 1 / (l^2 + s): quadratic divergence
    I_C = (0, 3)  # 1 / (l^2 + s)^3: convergent, vertex momentum term
    I_D = (1, 3)  # l^2 / (l^2 + s)^3: log divergence, vertex l l term
    I_E = (0, 2)  # 1 / (l^2 + s)^2: log divergence, self-energy momentum term and photon polarization


@functools.lru_cache(maxsize=8)
def _tanh_sinh(h: float):
    """Tanh-sinh rule on [0, 1], step h: x = (1 + tanh w) / 2, w = (pi/2) sinh t, |t| <= 4.

    Returns x, 1 - x (both e^(+-w) / (2 cosh w), so nothing cancels at an end), weights.
    Cached per step: _tanh_sinh_integral uses the eight steps 2^-1 ...
    2^-8 on every call. The cached arrays are read-only.
    """
    import numpy as np
    t = h * np.arange(-round(4.0 / h), round(4.0 / h) + 1)
    w = 0.5 * np.pi * np.sinh(t)
    c = 2.0 * np.cosh(w)
    rule = np.exp(w) / c, np.exp(-w) / c, h * 0.5 * np.pi * np.cosh(t) / (c * np.cosh(w))
    for a in rule:
        a.flags.writeable = False
    return rule


def _tanh_sinh_integral(rule_sum, tol: float, what: str) -> float:
    """Apply rule_sum(x, 1 - x, weights) at steps h = 1/2, 1/4, ... until two
    levels agree within tol relative; raise QuadratureError past h = 2^-8."""
    if tol < sys.float_info.epsilon:
        raise QuadratureError(f"{what} cannot reach {tol:.2e} relative in double precision")
    prev = None
    for k in range(1, 9):
        value = rule_sum(*_tanh_sinh(2.0**-k))
        if prev is not None:
            change = abs(value - prev)
            if change <= tol * abs(value):
                return float(value)
        prev = value
    raise QuadratureError(f"{what} did not reach {tol:.2e} relative by step 2^-8 (last change {change:.2e})")


def radial_quadrature(f, Lambda: float, tol: float = 1e-10):
    """Oracle: integrate f(l^2) over the 4-ball numerically.

    f takes an array of u = l^2 and must be continuous on [0, Lambda^2].
    Deterministic for fixed (f, Lambda, tol); Lambda = 0 gives 0.0.
    """
    if not 0 <= Lambda < math.inf:
        raise ValueError(f"Lambda must be finite and >= 0, got {Lambda}")
    if Lambda == 0:
        return 0.0
    L2 = Lambda**2
    value = _tanh_sinh_integral(lambda x, _, w: L2 * (w @ (L2 * x * f(L2 * x))), tol, "radial quadrature")
    return PREFACTOR * value


def _floats(values):
    """The floats of a scalar, a sequence or an ndarray, and the function that gives
    a list of results back in that form (numpy is loaded already for an ndarray)."""
    if isinstance(values, (int, float)):
        return [float(values)], lambda out: out[0]
    shape = getattr(values, "shape", None)
    if shape is None:
        return list(values), list
    import numpy as np
    return values.ravel().tolist(), lambda out: np.reshape(out, shape)


# PREFACTOR times the bracket of each kind at every scale s of a list, with
# T = Lambda^2 + s; Python's ** raises OverflowError where T^2 overflows, and
# math.log a ValueError on a scale that is not positive
_CLOSED_FORMS = {
    MasterIntegralKind.I_A: lambda ss, L2, c=PREFACTOR, log=math.log: [
        c * ((T := L2 + s) - 2.0 * s * log(T / s) - s * s / T) for s in ss],
    MasterIntegralKind.I_B: lambda ss, L2, c=PREFACTOR, log=math.log: [c * (L2 - s * log((L2 + s) / s)) for s in ss],
    MasterIntegralKind.I_C: lambda ss, L2, c=PREFACTOR: [
        c * (-0.5 * (1.0 / (T := L2 + s) - 1.0 / s + L2 / T**2)) for s in ss],
    MasterIntegralKind.I_D: lambda ss, L2, c=PREFACTOR, log=math.log: [
        c * (-0.5 * (3.0 - 2.0 * log((T := L2 + s) / s) - 4.0 * s / T + (s / T) ** 2)) for s in ss],
    MasterIntegralKind.I_E: lambda ss, L2, c=PREFACTOR, log=math.log: [c * (log((T := L2 + s) / s) - L2 / T) for s in ss],
}


def _check_scale(kind: MasterIntegralKind, scales: list, L2: float) -> None:
    """Raise KinematicDomainError for the first scale that is not a positive
    finite double, or whose closed form is not a finite double."""
    for s in scales:
        try:
            value = _CLOSED_FORMS[kind]([s], L2)[0] if 0.0 < s < math.inf else None  # NaN fails too
        except (ArithmeticError, ValueError) as exc:
            value = exc
        if not (isinstance(value, float) and math.isfinite(value)):
            raise KinematicDomainError(
                f"{kind.name} at scale a^2/b^2 = {s} and Lambda^2 = {L2} is not a finite double ({value})" if value
                else f"non-positive integrand scale a^2/b^2 = {s}; kinematics outside the Euclidean domain")


def master_integral(kind: MasterIntegralKind, scale_sq, Lambda: float):
    """Exact closed form of the chosen inner integral at finite Lambda.

    scale_sq is a float, a sequence or an ndarray; the result is a float,
    a list or an ndarray of its shape. The scales are checked once per
    call: one that is not positive, or whose closed form overflows a
    double, is a KinematicDomainError.
    """
    scales, pack = _floats(scale_sq)
    _check_cutoff(Lambda)
    try:
        values = _CLOSED_FORMS[kind](scales, Lambda**2)
        # a sum of doubles is finite only if every one of them is
        checked = 0.0 < min(scales, default=1.0) and math.isfinite(sum(values))
    except (ArithmeticError, ValueError):
        checked = False
    if not checked:
        _check_scale(kind, scales, Lambda**2)
    return pack(values)


def master_integral_d_scale(kind: MasterIntegralKind, scale_sq, Lambda: float):
    """Exact derivative of master_integral with respect to the scale.

    MasterIntegralKind's rule d/ds (a, b) = -b (a, b + 1), read from the kind;
    I_C and I_D, whose (a, b + 1) is no kind, raise the enum's ValueError.
    Takes and returns the forms master_integral does.
    """
    a, b = kind.value
    raised = MasterIntegralKind((a, b + 1))
    scales, pack = _floats(scale_sq)
    return pack([-b * v for v in master_integral(raised, scales, Lambda)])


def feynman_identity_check(A: float, B: float, C: float | None = None) -> float:
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

    val = _tanh_sinh_integral(rule_sum, 1e-11, "Feynman identity quadrature")
    return abs(val - 1.0 / prod) * prod


def _row_norms(n):
    """Euclidean norms of the rows of the (k, 4) array n.

    The squares of the four columns are summed in np.linalg.norm's order,
    ((n0^2 + n1^2) + n2^2) + n3^2, so the norms equal its bit for bit,
    but no (k, 4) temporary is allocated.
    """
    import numpy as np
    norm = n[:, 0] * n[:, 0]
    for k in (1, 2, 3):
        norm += n[:, k] * n[:, k]
    return np.sqrt(norm, out=norm)


def symmetric_integration_check(n_samples: int = 200_000, seed: int = 7) -> dict:
    """Monte-Carlo check of l_tau l_lambda -> (1/4) delta_tau_lambda l^2.

    Uniform directions on the 3-sphere: off-diagonal second moments
    vanish and diagonal ones equal 1/4, each within statistical error.
    Returns the worst off-diagonal and diagonal z-scores. The draws are
    streamed in blocks of _BLOCK rows: memory does not grow with n_samples.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    # sums of the ten second moments and of the squares' products (variances)
    s2 = np.zeros((4, 4))
    s4 = np.zeros((4, 4))
    for start in range(0, n_samples, _BLOCK):
        n = rng.standard_normal((min(_BLOCK, n_samples - start), 4))
        n /= _row_norms(n)[:, None]
        s2 += n.T @ n
        n *= n
        s4 += n.T @ n
    mean = s2 / n_samples
    var = (s4 / n_samples - mean * mean) * (n_samples / (n_samples - 1))
    z = np.abs(mean - 0.25 * np.eye(4)) / np.sqrt(var / n_samples)
    z_off = z[~np.eye(4, dtype=bool)].max()
    z_diag = z.diagonal().max()
    return {"max_offdiag_z": float(z_off), "max_diag_z": float(z_diag)}
