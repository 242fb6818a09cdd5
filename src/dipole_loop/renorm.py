"""One-loop self-energy, vertex, and photon polarization with on-shell
subtraction, divergence-structure fits, and the counterterm report.

The self-energy of level a with the other level's mass m in the loop is

    Sigma(p^2) = gamma^2 int_0^1 dx I_A(a^2(x))
               + 4 gamma^2_{tau lambda} p^tau p^lambda int_0^1 dx x^2 I_E(a^2(x)),

with a^2(x) = m^2 x + p^2 x (1 - x). The physical-mass condition
Delta m^2 = Sigma(-m^2) and the slope of the subtracted self-energy in
s = p^2 + m^2 give the mass shift and the wavefunction factor. The
tensor structure gamma^2_{tau lambda} p^tau p^lambda is carried as a
separate coefficient throughout (it renormalizes a different operator).

Two evaluation paths exist. The default expands in the mass splitting
b = delta/M^2 about the symmetric point (order 0 keeps M^2 only, order 1
adds the exact first derivative in delta). The exact path integrates
with the true masses and raises a kinematic domain error where the
integrand scale turns negative, which happens for the heavier level
exactly on shell: that is the physical decay threshold with a massless
photon in the loop.

Every Feynman-parameter integral runs on Gauss-Legendre rules of
doubling size, graded towards the parameter value where the scale is
smallest (_fixed_rule). A result is accepted once two successive rules
agree within quad_tol of the integrand's L1 norm; otherwise
QuadratureError is raised. The vertex's x-integral is done in closed
form, leaving one y-integral. Kinematic domain checks use the exact
minimum of each quadratic scale on [0, 1], not its values at the nodes.
scipy is not imported here; the adaptive oracles live in the tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import METRIC, AtomPair, DipoleTensor, contractions, gamma_sq_dot, minkowski_dot
from .errors import FitError, KinematicDomainError, QuadratureError
from .loops import (
    PREFACTOR,
    MasterIntegralKind,
    RegScheme,
    a_sq,
    b_sq,
    master_integral,
    master_integral_d_scale,
)

__all__ = [
    "SelfEnergyResult",
    "DivergenceFit",
    "RenormConstants",
    "self_energy",
    "wavefunction_Z",
    "vertex_one_loop",
    "photon_polarization",
    "divergence_fit",
    "counterterm_report",
]

I_A = MasterIntegralKind.I_A
I_C = MasterIntegralKind.I_C
I_D = MasterIntegralKind.I_D
I_E = MasterIntegralKind.I_E


def __getattr__(name):
    # scipy.integrate stays reachable as renorm.integrate (bench/tracing.py
    # wraps it) without importing scipy on the production path
    if name == "integrate":
        from scipy import integrate

        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# fixed-rule quadrature on [0, 1]
# ---------------------------------------------------------------------------

# Rule sizes run 32, 64, ..., 1024 nodes per side of the grading point.
_RULE_START = 32
_RULE_CAP = 1024


@functools.lru_cache(maxsize=None)
def _graded_rule(n: int):
    """n-node Gauss-Legendre rule in t on [0, 1], mapped to u = t^2."""
    t, w = leggauss(n)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    u, w = t * t, 2.0 * t * w
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


def _rule(n: int, at: float):
    """Nodes and weights on [0, 1], graded quadratically towards x = at.

    Each side of `at` gets the n-node graded rule, so nodes cluster where
    a Feynman-parameter scale is smallest and the integrand has its log
    or near-pole there.
    """
    u, w = _graded_rule(n)
    sides = [length for length in (-at, 1.0 - at) if length != 0.0]
    return (
        np.concatenate([at + length * u for length in sides]),
        np.concatenate([abs(length) * w for length in sides]),
    )


def _fixed_rule(f, tol: float, at: float = 0.0) -> np.ndarray:
    """Integrals over [0, 1] of the rows of f(x), by rule doubling.

    f maps the node array to an array of shape (k, n) (or (n,) for one
    integrand); nodes are graded towards x = at. Each row is accepted
    when the rules of n and 2n nodes agree within tol times its L1 norm
    sum w |f|, which keeps integrands that change sign from failing on a
    small net value. A tol below double-precision epsilon is refused
    before f is called, and a non-finite rule value as soon as it appears.
    """
    if tol < np.finfo(float).eps:
        raise QuadratureError(f"Feynman-parameter rule cannot reach requested {tol:.2e} relative in double precision")
    x, w = _rule(_RULE_START, at)
    prev = _finite_rule_value(f(x) @ w, _RULE_START)
    n = _RULE_START
    while n < _RULE_CAP:
        n *= 2
        x, w = _rule(n, at)
        vals = f(x)
        cur = _finite_rule_value(vals @ w, n)
        change = np.abs(cur - prev) / np.maximum(np.abs(vals) @ w, np.finfo(float).tiny)
        if np.all(change <= tol):
            return cur
        prev = cur
    raise QuadratureError(
        f"Feynman-parameter rule reached {float(np.max(change)):.2e} relative at {_RULE_CAP} "
        f"nodes, requested {tol:.2e}"
    )


def _finite_rule_value(value: np.ndarray, n: int) -> np.ndarray:
    """value, or QuadratureError naming its first non-finite entry."""
    bad = np.extract(~np.isfinite(value), value)
    if bad.size:
        raise QuadratureError(f"Feynman-parameter rule value is {float(bad[0])} at {n} nodes per side")
    return value


def _quadratic_min(c0: float, c1: float, c2: float) -> tuple:
    """Minimum of c0 + c1 t + c2 t^2 over t in [0, 1] and where it sits."""
    ts = [0.0, 1.0]
    if c2 > 0.0 and 0.0 < -c1 / (2.0 * c2) < 1.0:
        ts.append(-c1 / (2.0 * c2))
    return min((c0 + c1 * t + c2 * t * t, t) for t in ts)


# ---------------------------------------------------------------------------
# self-energy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelfEnergyResult:
    """Scalar and tensor parts of Sigma at the evaluation points.

    sigma_II_coeff is the coefficient of gamma^2_{tau lambda} p^tau
    p^lambda; sigma_II is that coefficient contracted with the supplied
    on-shell-family momentum. total = sigma_I + sigma_II. Every field
    but on_shell_value has the shape of p_sq (floats for a scalar p_sq).
    """

    sigma_I: float | np.ndarray
    sigma_II_coeff: float | np.ndarray
    sigma_II: float | np.ndarray
    total: float | np.ndarray
    on_shell_value: float


def _integrate_offsets(f, offsets, tol: float) -> np.ndarray:
    """Integrals of the r rows of f(x, o) at every offset o, on one rule.

    f maps the nodes (n,) and a column (k, 1) of the distinct offsets to
    r blocks of (k, n) rows; the result is (r,) + shape(offsets). Equal
    offsets share one row, so their integrals are bitwise equal.
    """
    distinct, inverse = np.unique(offsets, return_inverse=True)
    ints = _fixed_rule(lambda x: f(x, distinct[:, None]).reshape(-1, x.size), tol)
    return ints.reshape(-1, distinct.size)[:, inverse].reshape((-1,) + np.shape(offsets))


def _sigma_integrals_exact(p_sq, m_inner_sq: float, reg: RegScheme):
    """x-integrals of I_A and x^2 I_E at the true masses, per p^2."""
    lowest = np.min(p_sq)
    if lowest < -m_inner_sq:
        raise KinematicDomainError(
            f"p^2 = {lowest} below -m_inner^2 = {-m_inner_sq}: the loop scale a^2(x) turns "
            "negative (decay threshold); use the expansion path"
        )

    def f(x, p):
        a2 = a_sq(x, p, m_inner_sq)
        return np.stack([master_integral(I_A, a2, reg.Lambda), x * x * master_integral(I_E, a2, reg.Lambda)])

    return _integrate_offsets(f, p_sq, reg.quad_tol)


def _sigma_integrals_expansion(s, level: int, atoms: AtomPair, reg: RegScheme, order: int):
    """x-integrals expanded about the symmetric mass point, per offset.

    s = p^2 + m_level^2 is the off-shell offset. At order 0 the scale is
    a0^2 = M^2 x^2 + s x(1-x); order 1 adds the exact delta-derivative,
    which shifts both the inner mass and the on-shell reference.
    """
    lowest = np.min(s)
    if lowest < 0:
        raise KinematicDomainError(
            f"s = p^2 + m^2 = {lowest} < 0: below the massless-photon branch point"
        )
    if order not in (0, 1):
        raise ValueError(f"expansion order must be 0 or 1, got {order}")

    def f(x, s):
        a0 = atoms.M2 * x * x + s * x * (1.0 - x)
        rows = [master_integral(I_A, a0, reg.Lambda), x * x * master_integral(I_E, a0, reg.Lambda)]
        if order == 1:
            rows.append(x * (2.0 - x) * master_integral_d_scale(I_A, a0, reg.Lambda))
            rows.append(x * x * x * (2.0 - x) * master_integral_d_scale(I_E, a0, reg.Lambda))
        return np.stack(rows)

    ints = _integrate_offsets(f, s, reg.quad_tol)
    if order == 1:
        half_delta = (0.5 if level == 1 else -0.5) * atoms.delta
        return ints[0] - half_delta * ints[2], ints[1] - half_delta * ints[3]
    return ints


def _onshell_momentum(level: int, atoms: AtomPair) -> np.ndarray:
    """Rest-frame on-shell momentum (m, 0, 0, 0) of the level."""
    return np.array([atoms.mass(level), 0.0, 0.0, 0.0])


def self_energy(
    level: int,
    p_sq: float,
    p: np.ndarray | None,
    atoms: AtomPair,
    gamma: DipoleTensor,
    reg: RegScheme,
    path: str = "expansion",
    b_order: int = 0,
) -> SelfEnergyResult:
    """One-loop self-energy of the given level at invariant p^2.

    p_sq is a scalar or an array; every point and the on-shell
    reference Sigma(-m^2) are integrated on one rule, and a point on the
    mass shell shares the reference's row, so its subtracted value is
    exactly 0. p is the four-vector used to contract the tensor part
    (defaults to the rest-frame on-shell momentum of the level). path is
    "expansion" (in the mass splitting, default) or "exact".
    """
    if level not in (1, 2):
        raise ValueError(f"level must be 1 or 2, got {level}")
    if path not in ("expansion", "exact"):
        raise ValueError(f"path must be 'expansion' or 'exact', got {path!r}")
    m_level_sq = atoms.mass(level) ** 2
    m_inner_sq = atoms.mass(2 if level == 1 else 1) ** 2

    gsq = contractions(gamma)["gamma_sq"]
    gpp = gamma_sq_dot(gamma, _onshell_momentum(level, atoms) if p is None else p)

    # the points, flattened, then the on-shell reference
    if path == "exact":
        if m_level_sq > m_inner_sq:
            # the heavier level's mass shell sits below the decay
            # threshold, so the subtraction point is unreachable here
            int_a, int_e = (np.append(v, np.nan) for v in _sigma_integrals_exact(p_sq, m_inner_sq, reg))
        else:
            int_a, int_e = _sigma_integrals_exact(np.append(p_sq, -m_level_sq), m_inner_sq, reg)
    else:
        atoms.require_small_b()
        int_a, int_e = _sigma_integrals_expansion(np.append(np.add(p_sq, m_level_sq), 0.0), level, atoms, reg, b_order)

    sigma_I = gsq * int_a
    coeff = 4.0 * int_e
    sigma_II = coeff * gpp
    total = sigma_I + sigma_II

    def at_points(v):  # [()] turns a 0-d array into a float64 scalar
        return v[:-1].reshape(np.shape(p_sq))[()]

    return SelfEnergyResult(
        sigma_I=at_points(sigma_I),
        sigma_II_coeff=at_points(coeff),
        sigma_II=at_points(sigma_II),
        total=at_points(total),
        on_shell_value=float(total[-1]),
    )


# wavefunction_Z's s grid size and the largest curvature residual of its
# fit, relative to the slope, that it accepts
Z_GRID_POINTS = 9
Z_CURVATURE_LIMIT = 1e-3


def wavefunction_Z(
    level: int,
    atoms: AtomPair,
    gamma: DipoleTensor,
    reg: RegScheme,
    s_max_frac: float = 1e-3,
    b_order: int = 0,
) -> dict:
    """Extract the wavefunction factor from the subtracted self-energy.

    Fits Sigma(p^2) - Sigma(-m^2) = s * f on a one-sided grid of
    Z_GRID_POINTS offsets s = p^2 + m^2 in [0, s_max_frac * M^2]. The scalar
    part of f comes from the I_A integrals, the tensor part (coefficient
    of gamma^2_{tau lambda} p^tau p^lambda) from the I_E integrals. The
    fit is rejected if the curvature residual exceeds Z_CURVATURE_LIMIT
    times the slope magnitude.
    """
    atoms.require_small_b()
    gsq = contractions(gamma)["gamma_sq"]
    s_grid = np.linspace(0.0, s_max_frac * atoms.M2, Z_GRID_POINTS)
    int_a, int_e = _sigma_integrals_expansion(s_grid, level, atoms, reg, b_order)
    sub_a = gsq * (int_a - int_a[0])
    sub_e = 4.0 * (int_e - int_e[0])

    def fit_through_origin(y):
        denom = float(s_grid @ s_grid)
        slope = float(s_grid @ y) / denom
        resid = y - slope * s_grid
        scale = abs(slope) * s_grid[-1]
        curvature = float(np.max(np.abs(resid))) / scale if scale > 0 else 0.0
        return slope, curvature

    f_scalar, curv_scalar = fit_through_origin(sub_a)
    f_tensor, curv_tensor = fit_through_origin(sub_e)
    curvature = max(curv_scalar, curv_tensor)
    if not curvature <= Z_CURVATURE_LIMIT:
        raise FitError(
            f"curvature residual {curvature:.3e} exceeds {Z_CURVATURE_LIMIT:.0e} of the slope; "
            "narrow the s grid or reduce the mass splitting"
        )
    gpp = gamma_sq_dot(gamma, _onshell_momentum(level, atoms))
    return {
        "f_scalar": f_scalar,
        "f_tensor_coeff": f_tensor,
        "Z_phi_inv": 1.0 + f_scalar + f_tensor * gpp,
        "curvature_residual": curvature,
        "s_grid": s_grid,
    }


# ---------------------------------------------------------------------------
# vertex
# ---------------------------------------------------------------------------


def vertex_one_loop(
    p: np.ndarray,
    p_prime: np.ndarray,
    q: np.ndarray,
    atoms: AtomPair,
    gamma: DipoleTensor,
    reg: RegScheme,
    symmetric_masses: bool = True,
) -> dict:
    """One-loop vertex correction, subtracted on the mass shell.

    The l l part gives the divergent coefficient of the bare structure
    gamma^{mu' mu} q_{mu'}:

        Gamma_I_coeff = -4 gamma^2 J,  J = int x dx dy I_D(b^2(x, y)).

    The momentum part contracts gamma^2_{alpha beta} with
    (p' - y q)_alpha (p' - y q)_beta; its y-moments K0, K1, K2 multiply
    p'p', -(p'q + qp'), and qq. Z1^{-1} = 1 - 2 gamma^2 J
    - 8 [K0 p'p' - K1 (p'q + qp') + K2 qq] contracted with gamma^2.

    With symmetric_masses the mass splitting is dropped inside b^2
    (leading order in b), mirroring the self-energy expansion path.
    """
    p = np.asarray(p, dtype=float)
    p_prime = np.asarray(p_prime, dtype=float)
    q = np.asarray(q, dtype=float)
    if not np.allclose(q, p_prime - p, rtol=0.0, atol=1e-9 * max(1.0, float(np.max(np.abs(p_prime))))):
        raise ValueError("momentum conservation violated: q != p' - p")
    q_sq = minkowski_dot(q, q)
    m2_sq = atoms.M2 if symmetric_masses else atoms.m2**2
    delta = 0.0 if symmetric_masses else atoms.delta
    # b^2 = x^2 beta(y), beta(y) = (m2^2 + delta) + (q^2 - delta) y - q^2 y^2
    beta_min, y_min = _quadratic_min(m2_sq + delta, q_sq - delta, -q_sq)
    if 0.0 < y_min < 1.0:
        # Timelike q: near threshold beta_min << m2^2, and the expanded
        # quadratic loses to cancellation the digits the rule needs. The
        # vertex form beta_min + (-q^2) (y - y*)^2, with beta_min and y*
        # rounded once from exact rationals, keeps full relative precision.
        q_frac, d_frac = Fraction(q_sq), Fraction(delta)
        beta_min = float(Fraction(m2_sq) + d_frac + (q_frac - d_frac) ** 2 / (4 * q_frac))
        y_min = float((q_frac - d_frac) / (2 * q_frac))

        def beta_of(y):
            return beta_min - q_sq * (y - y_min) ** 2
    else:

        def beta_of(y):
            return b_sq(1.0, y, q_sq, m2_sq, delta)

    if beta_min <= 0.0:
        raise KinematicDomainError(
            f"b^2(x, y={y_min:.3g}) = {beta_min:.3g} x^2 <= 0; timelike q beyond threshold"
        )

    # With u = x^2 the x-integrals are elementary:
    #   int_0^1 du I_D(u beta) = PREFACTOR [ln(1 + L2/beta) - L2 / (2 (L2 + beta))],
    #   int_0^1 u du I_C(u beta) = PREFACTOR L2 / (2 beta (L2 + beta)),
    # and x dx = du / 2, x^3 dx = u du / 2.
    L2 = reg.Lambda**2

    def f(y):
        beta = beta_of(y)
        k = L2 / (beta * (L2 + beta))
        return np.stack([np.log1p(L2 / beta) - 0.5 * L2 / (L2 + beta), k, y * k, y * y * k])

    ints = _fixed_rule(f, reg.quad_tol, at=y_min)
    J = 0.5 * PREFACTOR * float(ints[0])
    K = [0.25 * PREFACTOR * float(v) for v in ints[1:]]

    gsq = contractions(gamma)["gamma_sq"]
    t_pp = gamma_sq_dot(gamma, p_prime, p_prime)
    t_pq = gamma_sq_dot(gamma, p_prime, q) + gamma_sq_dot(gamma, q, p_prime)
    t_qq = gamma_sq_dot(gamma, q, q)
    tensor_contracted = K[0] * t_pp - K[1] * t_pq + K[2] * t_qq
    gamma_I_coeff = -4.0 * gsq * J
    z1_inv = 1.0 - 2.0 * gsq * J - 8.0 * tensor_contracted
    return {
        "J": J,
        "K0": K[0],
        "K1": K[1],
        "K2": K[2],
        "Gamma_I_coeff": gamma_I_coeff,
        "tensor_contracted": tensor_contracted,
        "Z1_inv": z1_inv,
        "q_sq": q_sq,
    }


# ---------------------------------------------------------------------------
# photon polarization
# ---------------------------------------------------------------------------


def photon_polarization(q: np.ndarray, atoms: AtomPair, gamma: DipoleTensor, reg: RegScheme) -> dict:
    """Photon polarization tensor Pi^{mu nu} at momentum q.

    Pi^{mu nu} = 4 q_alpha q_beta gamma^{alpha mu} gamma^{beta nu} P(q^2)
    with P = int dx I_E(M^2(x)) and M^2(x) = m1^2 (1-x) + m2^2 x
    + q^2 x (1-x). Transversality q_mu Pi^{mu nu} = 0 holds by the
    antisymmetry of gamma and is returned as a residual for checking.
    """
    q = np.asarray(q, dtype=float)
    if np.allclose(q, 0.0):
        return {"Pi": np.zeros((4, 4)), "P_coeff": 0.0, "transversality": 0.0, "q_sq": 0.0}
    q_sq = minkowski_dot(q, q)
    m1_sq, m2_sq = atoms.m1**2, atoms.m2**2
    # M^2(x) = m1^2 + (m2^2 - m1^2 + q^2) x - q^2 x^2
    m_min, x_min = _quadratic_min(m1_sq, m2_sq - m1_sq + q_sq, -q_sq)
    if m_min <= 0.0:
        raise KinematicDomainError(
            f"M^2(x={x_min:.3g}) = {m_min:.3g} <= 0; q^2 = {q_sq:.3g} beyond the pair threshold"
        )

    def f(x):
        return master_integral(I_E, m1_sq * (1.0 - x) + m2_sq * x + q_sq * x * (1.0 - x), reg.Lambda)

    P = float(_fixed_rule(f, reg.quad_tol, at=x_min))
    q_low = METRIC @ q  # q with the index down equals g q for this metric
    w = gamma.components.T @ q_low  # w^nu = gamma^{alpha nu} q_alpha
    Pi = 4.0 * P * np.outer(w, w)
    trans = np.max(np.abs(q_low @ Pi))
    scale = np.max(np.abs(Pi))
    return {
        "Pi": Pi,
        "P_coeff": P,
        "transversality": float(trans / scale) if scale > 0 else 0.0,
        "q_sq": q_sq,
    }


# ---------------------------------------------------------------------------
# divergence fits and the counterterm report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivergenceFit:
    """Least-squares coefficients of a regulated quantity on a Lambda grid.

    Model "quad_log_const": c_quad Lambda^2 + c_log M^2 ln(Lambda^2/M^2)
    + c_const M^2. Model "log_const" drops the Lambda^2 column.
    normalized() rescales so the leading coefficient is 1.
    """

    c_quad: float
    c_log: float
    c_const: float
    fit_residual: float
    model: str = "quad_log_const"
    accepted: bool = True

    def normalized(self) -> tuple:
        lead = self.c_quad if self.model == "quad_log_const" else self.c_log
        if lead == 0:
            raise FitError("leading coefficient vanishes; cannot normalize")
        return (self.c_quad / lead, self.c_log / lead, self.c_const / lead)


def divergence_fit(
    values: np.ndarray,
    lambdas: np.ndarray,
    M_sq: float,
    model: str = "quad_log_const",
) -> DivergenceFit:
    """Fit cutoff dependence against the divergence basis.

    The grid must span at least two decades with min(Lambda)/M >= 10 so
    the basis is well conditioned; otherwise the grid is rejected.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    values = np.asarray(values, dtype=float)
    if lambdas.ndim != 1 or lambdas.shape != values.shape:
        raise ValueError("values and lambdas must be 1-d arrays of equal length")
    if model not in ("quad_log_const", "log_const"):
        raise ValueError(f"unknown model {model!r}")
    M = np.sqrt(M_sq)
    if lambdas.min() < 10.0 * M or lambdas.max() < 100.0 * lambdas.min():
        raise ValueError(
            "rejected grid: need min(Lambda) >= 10 M and a span of at least two decades"
        )
    logs = np.log(lambdas**2 / M_sq)
    if model == "quad_log_const":
        design = np.column_stack([lambdas**2, M_sq * logs, M_sq * np.ones_like(lambdas)])
    else:
        design = np.column_stack([M_sq * logs, M_sq * np.ones_like(lambdas)])
    cond = np.linalg.cond(design)
    if cond > 1e12:
        raise ValueError(f"rejected grid: design matrix condition number {cond:.2e}")
    coeffs, _, _, _ = np.linalg.lstsq(design, values, rcond=None)
    resid = float(np.max(np.abs(design @ coeffs - values)))
    if model == "quad_log_const":
        c_quad, c_log, c_const = (float(c) for c in coeffs)
        scale = abs(c_quad) * lambdas.max() ** 2
    else:
        c_quad = 0.0
        c_log, c_const = (float(c) for c in coeffs)
        scale = abs(c_log * M_sq * logs.max())
    accepted = scale > 0 and resid / scale <= 1e-4
    return DivergenceFit(
        c_quad=c_quad,
        c_log=c_log,
        c_const=c_const,
        fit_residual=resid,
        model=model,
        accepted=accepted,
    )


@dataclass(frozen=True)
class RenormConstants:
    """The report's (quantity, value, operator_class) rows in output order,
    and the measured loop prefactor, which also closes the rows."""

    rows: tuple
    prefactor_measured: float
    prefactor_ratio_to_printed: float


def counterterm_report(
    atoms: AtomPair,
    gamma: DipoleTensor,
    reg: RegScheme,
    b_order: int = 0,
) -> RenormConstants:
    """Assemble mass shifts, Z factors, and the induced operators.

    The mass shifts Delta m^2 = Sigma(-m^2) (contracted at rest on the
    mass shell) and the Z factors renormalize operators already in the
    action ("original"). Two genuinely new structures are induced at one
    loop ("induced"): F_F, (1/4) gamma^{lam mu} gamma^{tau nu} F_{lam mu}
    F_{tau nu} (from the polarization), and dphi_dphi, gamma^2_{mu nu}
    d^mu phi d^nu phi (from the self-energy tensor part); their
    coefficients are the corresponding divergent integrals.
    """
    rows = []
    for level in (1, 2):
        shift = self_energy(level, -atoms.mass(level) ** 2, None, atoms, gamma, reg, b_order=b_order)
        if level == 1:
            # induced d phi d phi operator: divergent coefficient of gamma^2_{mu nu} p^mu p^nu
            induced_phi = shift.sigma_II_coeff
        z = wavefunction_Z(level, atoms, gamma, reg, b_order=b_order)
        rows += [
            (f"delta_m_sq.{level}.total", shift.total, "original"),
            (f"delta_m_sq.{level}.scalar", shift.sigma_I, "original"),
            (f"delta_m_sq.{level}.tensor", shift.sigma_II, "original"),
            (f"Z_phi_inv.{level}.scalar", 1.0 + z["f_scalar"], "original"),
            (f"Z_phi_inv.{level}.tensor_coeff", z["f_tensor_coeff"], "original"),
        ]

    m1 = atoms.m1
    p_prime = _onshell_momentum(1, atoms)
    q = np.array([0.25 * m1, 0.25 * m1, 0.0, 0.0])  # lightlike: q^2 = 0
    p_in = p_prime - q
    vert = vertex_one_loop(p_in, p_prime, q, atoms, gamma, reg)

    # induced F F operator: 4 P(q^2 = 0) multiplies the
    # (1/4) gamma gamma F F structure; probe with a lightlike q
    q_probe = np.array([0.1 * m1, 0.1 * m1, 0.0, 0.0])
    pol = photon_polarization(q_probe, atoms, gamma, reg)

    # measure the overall prefactor from the quadratic divergence of
    # Sigma^I / gamma^2 on a cutoff grid, and compare with 1/(2 pi)^3
    gsq = contractions(gamma)["gamma_sq"]
    m_ref = atoms.mass(1)
    # scaling a unit grid keeps max/min at exactly 100; geomspace(50 m, 5000 m)
    # rounds its endpoints and, for some m, falls short of the two decades
    # divergence_fit requires
    lam_grid = 50.0 * m_ref * np.geomspace(1.0, 100.0, 12)
    vals = np.array(
        [
            self_energy(
                1, -m_ref**2, None, atoms, gamma,
                RegScheme(Lambda=lam, quad_tol=reg.quad_tol), b_order=b_order,
            ).sigma_I
            / gsq
            for lam in lam_grid
        ]
    )
    fit = divergence_fit(vals, lam_grid, atoms.M2)
    measured = fit.c_quad
    ratio = measured / (1.0 / (2.0 * np.pi) ** 3)

    rows += [
        ("Z1_inv.scalar", 1.0 - 2.0 * gsq * vert["J"], "original"),
        ("Z1_inv.tensor_contracted", -8.0 * vert["tensor_contracted"], "original"),
        ("Z1_inv.total", vert["Z1_inv"], "original"),
        ("induced.F_F", 4.0 * pol["P_coeff"], "induced"),
        ("induced.dphi_dphi", induced_phi, "induced"),
        ("prefactor.measured", measured, "report"),
        ("prefactor.ratio_to_printed", ratio, "report"),
    ]
    return RenormConstants(rows=tuple(rows), prefactor_measured=measured, prefactor_ratio_to_printed=ratio)
