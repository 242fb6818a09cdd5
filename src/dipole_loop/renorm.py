"""One-loop self-energy, vertex, and photon polarization with on-shell
subtraction, divergence-structure fits, and the counterterm report.

The self-energy of level a with the other level's mass m in the loop is

    Sigma(p^2) = gamma^2 int_0^1 dx I_A(a^2(x))
               + 4 gamma^2_{tau lambda} p^tau p^lambda int_0^1 dx x^2 I_E(a^2(x)),

with a^2(x) = m^2 x + p^2 x (1 - x) = x (alpha + beta x), where alpha =
(m^2 - m_a^2) + s and beta = m_a^2 - s in the offset s = p^2 + m_a^2 from
the level's mass shell. The physical-mass condition Delta m^2 = Sigma(-m_a^2)
and the slope of the subtracted self-energy in s give the mass shift and
the wavefunction factor. The tensor structure gamma^2_{tau lambda} p^tau
p^lambda is carried as a separate coefficient throughout (it renormalizes
a different operator).

Two evaluation paths integrate this one scale (_sigma_integrals). The
default expands in the mass splitting b = delta/M^2 about the symmetric
point: order 0 is the exact integrand at m^2 = m_a^2 = M^2, and order 1
adds its exact first derivative in delta. The exact path integrates
with the true masses and raises a kinematic domain error where the
integrand scale turns negative, which happens for the heavier level
exactly on shell: that is the physical decay threshold with a massless
photon in the loop.

Every Feynman-parameter integral runs on Gauss-Legendre rules of
doubling size, graded towards the parameter value where the scale is
smallest (_fixed_rule). The rules, 32 to 1024 nodes, are read with the
stdlib from _leggauss.npy, a table shipped with the package that holds
numpy's leggauss nodes and weights bit for bit. A result is accepted once
two successive rules agree within quad_tol of the integrand's L1 norm;
otherwise, or on a float error of the integrand, QuadratureError is
raised. The vertex's x-integral is done in closed form, leaving one
y-integral. Kinematic domain checks use the exact minimum of each
quadratic scale on [0, 1], not its values at the nodes. The self-energy,
vertex and polarization compute on plain floats (an ndarray argument
comes back as ndarrays); wavefunction_Z and divergence_fit import numpy
for the report's fits, and the adaptive scipy oracles live in the tests.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from array import array
from operator import mul
from typing import NamedTuple

from .core import SIGNATURE, AtomPair, DipoleTensor, _dot, contractions, gamma_sq_dot, minkowski_dot
from .errors import FitError, KinematicDomainError, QuadratureError
from .loops import (
    MAX_LAMBDA,
    PREFACTOR,
    MasterIntegralKind,
    RegScheme,
    _floats,
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
_TABLE_COLUMNS = 2 * _RULE_CAP - _RULE_START  # 32 + 64 + ... + 1024


def _read_table(path: str) -> tuple:
    """The two rows of a version 1.0 .npy file of C-order little-endian doubles of
    shape (2, _TABLE_COLUMNS), bit for bit; any other file is a ValueError naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = 10 + int.from_bytes(data[8:10], "little")
    header = "".join(data[10:start].decode("latin-1").split())
    if (data[:8] != b"\x93NUMPY\x01\x00" or len(data) != start + 16 * _TABLE_COLUMNS
            or header != "{'descr':'<f8','fortran_order':False,'shape':(2,%d),}" % _TABLE_COLUMNS):
        raise ValueError(f"{path}: not a .npy table of C-order <f8 doubles of shape (2, {_TABLE_COLUMNS})")
    values = array("d", data[start:])
    if sys.byteorder == "big":
        values.byteswap()
    return tuple(values[:_TABLE_COLUMNS]), tuple(values[_TABLE_COLUMNS:])


# Gauss-Legendre nodes (row 0) and weights (row 1) on [-1, 1] for every
# rule size in turn, so rule n starts at column n - 32. The file holds
# numpy's rules bit for bit; it was written by
#   np.save(path, np.concatenate([np.stack(leggauss(32 << k)) for k in range(6)], axis=1))
# with leggauss from numpy.polynomial.legendre. _rule builds a rule from
# it once per size and grading point and keeps it.
_LEGGAUSS = _read_table(os.path.join(os.path.dirname(__file__), "_leggauss.npy"))


@functools.lru_cache(maxsize=32)
def _rule(n: int, at: float) -> tuple:
    """Nodes and weights on [0, 1], graded quadratically towards x = at.

    Each side of `at` gets the n-node Gauss-Legendre rule in t on [0, 1]
    mapped to u = t^2, so nodes cluster where a Feynman-parameter scale is
    smallest and the integrand has its log or near-pole there. Built once
    per size and grading point, as two tuples.
    """
    nodes, weights = (row[n - _RULE_START:2 * n - _RULE_START] for row in _LEGGAUSS)
    t = [0.5 * (v + 1.0) for v in nodes]
    u, w = [a * a for a in t], [2.0 * a * (0.5 * v) for a, v in zip(t, weights)]
    sides = [length for length in (-at, 1.0 - at) if length != 0.0]
    return tuple(at + length * v for length in sides for v in u), tuple(abs(length) * v for length in sides for v in w)


def _fixed_rule(f, tol: float, at: float = 0.0) -> list:
    """Integrals over [0, 1] of the rows of f(x), by rule doubling.

    f maps the tuple of nodes to its rows, each the row's integrand at every
    node; nodes are graded towards x = at, with n = 32, 64, ..., 1024 per
    side, each rule built once per size and grading point. A row's value is
    math.fsum of w f, accepted when the rules of n and 2n nodes agree within
    tol times its L1 norm sum w |f|, which keeps integrands that change sign
    from failing on a small net value. A tol below double-precision epsilon
    is refused before f is called, a float error of f or a non-finite value
    as soon as it appears.
    """
    if tol < sys.float_info.epsilon:
        raise QuadratureError(f"Feynman-parameter rule cannot reach requested {tol:.2e} relative in double precision")
    n, prev = _RULE_START, None
    while n <= _RULE_CAP:
        x, w = _rule(n, at)
        try:
            rows = f(x)
            cur = [math.fsum(map(mul, w, row)) for row in rows]
        except (ArithmeticError, ValueError) as exc:  # math's refusals, and fsum's of inf - inf
            raise QuadratureError(f"Feynman-parameter integrand fails at {n} nodes per side: {exc}") from None
        bad = [v for v in cur if not math.isfinite(v)]
        if bad:
            raise QuadratureError(f"Feynman-parameter rule value is {bad[0]} at {n} nodes per side")
        if prev is not None:
            # the weights are positive, so sum w |f| >= |sum w f|: a row that
            # changed within tol of its value needs no norm
            change = [abs(c - p) / max(abs(c), sys.float_info.min) for c, p in zip(cur, prev)]
            change = [d if d <= tol else abs(c - p) / max(math.fsum(map(mul, w, map(abs, row))), sys.float_info.min)
                      for d, c, p, row in zip(change, cur, prev, rows)]
            if all(c <= tol for c in change):
                return cur
        n, prev = 2 * n, cur
    raise QuadratureError(
        f"Feynman-parameter rule reached {max(change):.2e} relative at {_RULE_CAP} "
        f"nodes, requested {tol:.2e}"
    )


def _quadratic(c0: tuple, c1: tuple, c2: tuple) -> tuple:
    """(values, minimum, where) of the scale c0 + c1 t + c2 t^2 on [0, 1], each
    coefficient the tuple of doubles it is the exact sum of; values maps t to it.

    An interior minimum and its position t* are rounded once from exact
    rationals, and values is minimum + c2 (t - t*)^2, which keeps the digits
    the expanded quadratic loses to cancellation near threshold. Otherwise
    the coefficients and an endpoint minimum are correctly rounded sums.
    """
    try:  # inf - inf, and a finite sum past the largest double, raise
        a, b, c, at_one = (math.fsum(cs) for cs in (c0, c1, c2, c0 + c1 + c2))
    except (OverflowError, ValueError):
        a = b = c = at_one = math.nan
    if not all(map(math.isfinite, (a, b, c, at_one))):
        raise KinematicDomainError(f"Feynman-parameter scale coefficients {c0}, {c1}, {c2} do not sum to finite doubles")
    if c > 0.0 and 0.0 < -b < 2.0 * c:
        from fractions import Fraction
        e0, e1, e2 = (sum(map(Fraction, cs)) for cs in (c0, c1, c2))
        minimum, where = float(e0 - e1 * e1 / (4 * e2)), float(-e1 / (2 * e2))
        return (lambda t: minimum + c * (t - where) ** 2), minimum, where
    minimum, where = min((a, 0.0), (at_one, 1.0))
    return (lambda t: a + b * t + c * t * t), minimum, where


# ---------------------------------------------------------------------------
# self-energy
# ---------------------------------------------------------------------------


class SelfEnergyResult(NamedTuple):
    """Scalar and tensor parts of Sigma at the evaluation points.

    sigma_II_coeff is the coefficient of gamma^2_{tau lambda} p^tau
    p^lambda; sigma_II is it contracted with the level's rest-frame
    momentum. total = sigma_I + sigma_II. Every field but on_shell_value
    has the form of p_sq: a float, a list, or an ndarray of its shape.
    """

    sigma_I: float | list
    sigma_II_coeff: float | list
    sigma_II: float | list
    total: float | list
    on_shell_value: float


# the self-energy's integrands: each part's master integral, and the
# x-weights of its value (None for 1) and of its delta-derivative
_SIGMA_PARTS = (
    (I_A, None, lambda t: t * (2.0 - t)),
    (I_E, lambda t: t * t, lambda t: t * t * t * (2.0 - t)),
)


def _sigma_integrals(s, m_inner_sq: float, m_level_sq: float, reg: RegScheme, half_delta: float | None = None,
                     tensor: bool = True) -> tuple:
    """x-integrals of I_A and (with tensor) x^2 I_E at every offset s, one
    entry per integrand, each in the form of s (a float, a list or an ndarray).

    alpha and beta of the scale are formed once per distinct offset, and
    equal offsets share one row, so their integrals are bitwise equal. With
    half_delta (delta/2 for level 1, -delta/2 for level 2) the expansion's
    delta-derivative at fixed s is added: a^2 moves by -half_delta x(2-x).
    """
    offsets, pack = _floats(s)
    row_of = {v: j for j, v in enumerate(dict.fromkeys(offsets))}
    coeffs = [((m_inner_sq - m_level_sq) + v, m_level_sq - v) for v in row_of]
    parts = _SIGMA_PARTS if tensor else _SIGMA_PARTS[:1]

    def f(x):
        a2 = [t * (alpha + beta * t) for alpha, beta in coeffs for t in x]

        def weighted(weight, values):
            return values if weight is None else list(map(mul, [weight(t) for t in x] * len(coeffs), values))

        rows = [weighted(weight, master_integral(kind, a2, reg.Lambda)) for kind, weight, _ in parts]
        if half_delta is not None:
            rows += [weighted(weight, master_integral_d_scale(kind, a2, reg.Lambda)) for kind, _, weight in parts]
        n = len(x)
        return [row[j * n:(j + 1) * n] for row in rows for j in range(len(coeffs))]

    ints = _fixed_rule(f, reg.quad_tol)
    if half_delta is not None:
        half = len(ints) // 2
        ints = [a - half_delta * d for a, d in zip(ints[:half], ints[half:])]
    return tuple(pack([ints[r * len(coeffs) + row_of[v]] for v in offsets]) for r in range(len(parts)))


def _onshell_momentum(level: int, atoms: AtomPair) -> tuple:
    """Rest-frame on-shell momentum (m, 0, 0, 0) of the level."""
    return (atoms.mass(level), 0.0, 0.0, 0.0)


def self_energy(
    level: int,
    p_sq,
    atoms: AtomPair,
    gamma: DipoleTensor,
    reg: RegScheme,
    path: str = "expansion",
    b_order: int = 0,
) -> SelfEnergyResult:
    """One-loop self-energy of the given level at invariant p^2.

    p_sq is a float, a sequence or an ndarray; every point and the on-shell
    reference Sigma(-m^2) are integrated on one rule, and a point on the
    mass shell shares the reference's row, so its subtracted value is
    exactly 0. The tensor part is contracted with the level's rest-frame
    on-shell momentum; for another momentum p, multiply sigma_II_coeff by
    core.gamma_sq_dot(gamma, p). path is "expansion" (in the mass
    splitting, default) or "exact".
    """
    if path not in ("expansion", "exact"):
        raise ValueError(f"path must be 'expansion' or 'exact', got {path!r}")
    m_level_sq = atoms.mass(level) ** 2
    m_inner_sq = atoms.mass(2 if level == 1 else 1) ** 2

    gsq = contractions(gamma)["gamma_sq"]
    gpp = gamma_sq_dot(gamma, _onshell_momentum(level, atoms))

    # the points' offsets, flattened, then the on-shell reference's
    points, pack = _floats(p_sq)
    s = [p + m_level_sq for p in points] + [0.0]
    if path == "exact":
        lowest = min(points)
        if lowest < -m_inner_sq:
            raise KinematicDomainError(
                f"p^2 = {lowest} below -m_inner^2 = {-m_inner_sq}: the loop scale a^2(x) turns "
                "negative (decay threshold); use the expansion path"
            )
        if m_level_sq > m_inner_sq:
            # the heavier level's mass shell sits below the decay
            # threshold, so the subtraction point is unreachable here
            int_a, int_e = (v + [math.nan] for v in _sigma_integrals(s[:-1], m_inner_sq, m_level_sq, reg))
        else:
            int_a, int_e = _sigma_integrals(s, m_inner_sq, m_level_sq, reg)
    else:
        atoms.require_small_b()
        lowest = min(s)
        if lowest < 0:
            raise KinematicDomainError(f"s = p^2 + m^2 = {lowest} < 0: below the massless-photon branch point")
        if b_order not in (0, 1):
            raise ValueError(f"expansion order must be 0 or 1, got {b_order}")
        half_delta = (0.5 if level == 1 else -0.5) * atoms.delta if b_order == 1 else None
        int_a, int_e = _sigma_integrals(s, atoms.M2, atoms.M2, reg, half_delta)

    sigma_I = [gsq * v for v in int_a]
    coeff = [4.0 * v for v in int_e]
    sigma_II = [v * gpp for v in coeff]
    total = [a + b for a, b in zip(sigma_I, sigma_II)]
    return SelfEnergyResult(
        sigma_I=pack(sigma_I[:-1]),
        sigma_II_coeff=pack(coeff[:-1]),
        sigma_II=pack(sigma_II[:-1]),
        total=pack(total[:-1]),
        on_shell_value=total[-1],
    )


# wavefunction_Z's s grid: its size, its end as a fraction of M^2, and the
# largest curvature residual of its fit, relative to the slope, accepted
Z_GRID_POINTS = 9
Z_S_MAX_FRAC = 1e-3
Z_CURVATURE_LIMIT = 1e-3


def wavefunction_Z(
    level: int,
    atoms: AtomPair,
    gamma: DipoleTensor,
    reg: RegScheme,
    b_order: int = 0,
) -> dict:
    """Extract the wavefunction factor from the subtracted self-energy.

    Fits Sigma(p^2) - Sigma(-m^2) = s * f on a one-sided grid of
    Z_GRID_POINTS offsets s = p^2 + m^2 in [0, Z_S_MAX_FRAC * M^2], all
    from one self_energy call, returned under "self_energy" (its first
    point is on the mass shell). f's scalar part is the slope of sigma_I,
    its tensor part that of sigma_II_coeff. The fit is rejected if a
    part's rounding, or the curvature residual, exceeds Z_CURVATURE_LIMIT
    of its spread or of the slope.
    """
    import numpy as np
    s_grid = np.linspace(0.0, Z_S_MAX_FRAC * atoms.M2, Z_GRID_POINTS)
    sigma = self_energy(level, s_grid - atoms.mass(level) ** 2, atoms, gamma, reg, b_order=b_order)
    fits = []
    for part in (sigma.sigma_I, sigma.sigma_II_coeff):
        # offset 0 shares the on-shell row, so the difference starts at
        # exactly 0. It carries about eps |Sigma| of rounding; Sigma grows as
        # Lambda^2 while its spread over the s grid does not. A part whose
        # rounding is 0 (no dipole, or one so small it underflows) loses
        # nothing; a NaN spread (gamma^2 overflowed) fails the moment check below
        sub = part - part[0]
        largest, spread = float(np.max(np.abs(part))), float(np.max(np.abs(sub)))
        rounding = np.finfo(float).eps * largest
        # sigma_I is gamma^2 times the I_A integral. Where it is subnormal its
        # rounding guard underflows, and its differences are a count of the
        # smallest double's quanta: a check that fails there says so
        why = part is sigma.sigma_I and largest < np.finfo(float).tiny and (
            f"gamma^2 int I_A is subnormal (at most {largest:.3g}), so Sigma(s) - Sigma(-m^2) over the "
            f"s grid holds only {spread / np.finfo(float).smallest_subnormal:.3g} quanta of the smallest double"
        )
        if rounding > Z_CURVATURE_LIMIT * spread:
            raise FitError(why or (
                f"Sigma(s) - Sigma(-m^2) over the s grid is lost to rounding ({rounding / spread if spread else np.inf:.3e} "
                f"of its spread); the cutoff Lambda = {reg.Lambda:.6g} is too large for this fit"
            ))
        # a line through the origin, and its largest residual against the slope
        moment = float(s_grid @ sub)
        if not math.isfinite(moment):
            raise FitError(f"Sigma(s) - Sigma(-m^2) over the s grid overflows a double: its moment against s is {moment}")
        slope = moment / float(s_grid @ s_grid)
        scale = abs(slope) * s_grid[-1]
        fits.append((slope, float(np.max(np.abs(sub - slope * s_grid))) / scale if scale > 0 else 0.0, why))
    (f_scalar, curv_scalar, why), (f_tensor, curv_tensor, _) = fits
    curvature = max(curv_scalar, curv_tensor)
    if not curvature <= Z_CURVATURE_LIMIT:
        raise FitError(
            f"curvature residual {curvature:.3e} exceeds {Z_CURVATURE_LIMIT:.0e} of the slope: "
            + (why if why and not curv_scalar <= Z_CURVATURE_LIMIT else (
                f"the fixed s grid [0, {Z_S_MAX_FRAC:.0e} M^2] is not small against Lambda^2 = {reg.Lambda**2:.3g} "
                f"or against the mass splitting delta = m1^2 - m2^2 = {atoms.delta:.3g}"
            ))
        )
    return {
        "f_scalar": f_scalar,
        "f_tensor_coeff": f_tensor,
        "curvature_residual": curvature,
        "s_grid": s_grid,
        "self_energy": sigma,
    }


# ---------------------------------------------------------------------------
# vertex
# ---------------------------------------------------------------------------


def vertex_one_loop(
    p_prime,
    q,
    atoms: AtomPair,
    gamma: DipoleTensor,
    reg: RegScheme,
    symmetric_masses: bool = True,
) -> dict:
    """One-loop vertex correction, subtracted on the mass shell.

    It reads the outgoing momentum p' and the photon's q = p' - p. The l l
    part gives the divergent coefficient of the bare structure
    gamma^{mu' mu} q_{mu'}:

        Gamma_I_coeff = -4 gamma^2 J,  J = int x dx dy I_D(b^2(x, y)).

    The momentum part contracts gamma^2_{alpha beta} with
    (p' - y q)_alpha (p' - y q)_beta; its y-moments K0, K1, K2 multiply
    p'p', -(p'q + qp'), and qq. Z1^{-1} = 1 - 2 gamma^2 J
    - 8 [K0 p'p' - K1 (p'q + qp') + K2 qq] contracted with gamma^2.

    With symmetric_masses the mass splitting is dropped inside b^2
    (leading order in b), mirroring the self-energy expansion path. The
    momenta are sequences (or ndarrays) of four floats.
    """
    p_prime, q = tuple(map(float, p_prime)), tuple(map(float, q))
    if not all(map(math.isfinite, p_prime + q)):
        raise ValueError("momenta p' and q must be finite")
    q_sq = minkowski_dot(q, q)
    m2_sq = atoms.M2 if symmetric_masses else atoms.m2**2
    delta = 0.0 if symmetric_masses else atoms.delta
    # b^2 = x^2 beta(y), beta(y) = (m2^2 + delta) + (q^2 - delta) y - q^2 y^2
    beta_of, beta_min, y_min = _quadratic((m2_sq, delta), (q_sq, -delta), (-q_sq,))
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
        betas = [beta_of(t) for t in y]
        dens = [beta * (L2 + beta) for beta in betas]
        if max(dens) == math.inf:  # L2 / inf would round the K integrands to 0
            raise OverflowError(f"b^2 (Lambda^2 + b^2) overflows a double at b^2 = {max(betas)}")
        k = [L2 / d for d in dens]
        return ([math.log1p(L2 / beta) - 0.5 * L2 / (L2 + beta) for beta in betas], k, list(map(mul, y, k)),
                [t * t * v for t, v in zip(y, k)])

    ints = _fixed_rule(f, reg.quad_tol, at=y_min)
    J = 0.5 * PREFACTOR * ints[0]
    K = [0.25 * PREFACTOR * v for v in ints[1:]]

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


def photon_polarization(q, atoms: AtomPair, gamma: DipoleTensor, reg: RegScheme) -> dict:
    """Photon polarization tensor Pi^{mu nu} at momentum q.

    Pi^{mu nu} = 4 q_alpha q_beta gamma^{alpha mu} gamma^{beta nu} P(q^2)
    with P = int dx I_E(M^2(x)) and M^2(x) = m1^2 (1-x) + m2^2 x
    + q^2 x (1-x). Transversality q_mu Pi^{mu nu} = 0 holds by the
    antisymmetry of gamma and is returned as a residual for checking. Pi
    is a tuple of four rows, or a 4x4 ndarray for an ndarray q.
    """
    as_array, q = hasattr(q, "shape"), tuple(map(float, q))
    q_sq = minkowski_dot(q, q)
    m1_sq, m2_sq = atoms.m1**2, atoms.m2**2
    # M^2(x) = m1^2 + (m2^2 - m1^2 + q^2) x - q^2 x^2
    m_sq_of, m_min, x_min = _quadratic((m1_sq,), (m2_sq, -m1_sq, q_sq), (-q_sq,))
    if m_min <= 0.0:
        raise KinematicDomainError(
            f"M^2(x={x_min:.3g}) = {m_min:.3g} <= 0; q^2 = {q_sq:.3g} beyond the pair threshold"
        )
    P, = _fixed_rule(lambda x: [master_integral(I_E, list(map(m_sq_of, x)), reg.Lambda)], reg.quad_tol, at=x_min)
    q_low = tuple(map(mul, SIGNATURE, q))  # q_mu = g_{mu nu} q^nu, the metric being diagonal
    w = [_dot(column, q_low) for column in zip(*gamma.up)]  # w^nu = gamma^{alpha nu} q_alpha
    Pi = tuple(tuple(4.0 * P * (a * b) for b in w) for a in w)
    trans = max(abs(_dot(q_low, column)) for column in zip(*Pi))
    scale = max(abs(v) for row in Pi for v in row)
    if as_array:
        import numpy as np
        Pi = np.array(Pi)
    return {
        "Pi": Pi,
        "P_coeff": P,
        "transversality": trans / scale if scale > 0 else 0.0,
        "q_sq": q_sq,
    }


# ---------------------------------------------------------------------------
# divergence fits and the counterterm report
# ---------------------------------------------------------------------------


class DivergenceFit(NamedTuple):
    """Least-squares coefficients of a regulated quantity on a Lambda grid.

    Model "quad_log_const": c_quad Lambda^2 + c_log M^2 ln(Lambda^2/M^2)
    + c_const M^2. Model "log_const" drops the Lambda^2 column (c_quad = 0).
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
    values,
    lambdas,
    M_sq: float,
    model: str = "quad_log_const",
) -> DivergenceFit:
    """Fit cutoff dependence against the divergence basis, one design for both
    models ("log_const" drops its Lambda^2 column).

    The grid is rejected unless its cutoffs are finite, span two decades
    with min(Lambda)/M >= 10, outnumber the model's coefficients (else the
    residual vanishes by construction), and give a design whose condition
    number s_max/s_min, from the singular values of the one solve, is <= 1e12.
    A fit is accepted if no residual exceeds 1e-4 of the leading column's largest term.
    """
    import numpy as np
    lambdas = np.asarray(lambdas, dtype=float)
    values = np.asarray(values, dtype=float)
    if lambdas.ndim != 1 or lambdas.shape != values.shape:
        raise ValueError("values and lambdas must be 1-d arrays of equal length")
    dropped = {"quad_log_const": 0, "log_const": 1}.get(model)  # leading basis columns left out
    if dropped is None:
        raise ValueError(f"unknown model {model!r}")
    M = np.sqrt(M_sq)
    if not (10.0 * M <= lambdas.min() and 100.0 * lambdas.min() <= lambdas.max() < np.inf):
        raise ValueError("rejected grid: need min(Lambda) >= 10 M and a span of at least two decades")
    logs = np.log(lambdas**2 / M_sq)
    design = np.column_stack([lambdas**2, M_sq * logs, M_sq * np.ones_like(lambdas)])[:, dropped:]
    if lambdas.size <= design.shape[1]:
        raise ValueError(f"rejected grid: {lambdas.size} cutoffs cannot overdetermine the {design.shape[1]} coefficients of {model}")
    coeffs, _, _, sv = np.linalg.lstsq(design, values, rcond=None)
    cond = sv[0] / sv[-1]
    if cond > 1e12:
        raise ValueError(f"rejected grid: design matrix condition number {cond:.2e}")
    resid = float(np.max(np.abs(design @ coeffs - values)))
    c_quad, c_log, c_const = [0.0] * dropped + [float(c) for c in coeffs]
    scale = np.max(np.abs(coeffs[0] * design[:, 0]))
    accepted = bool(scale > 0 and resid / scale <= 1e-4)
    return DivergenceFit(
        c_quad=c_quad,
        c_log=c_log,
        c_const=c_const,
        fit_residual=resid,
        model=model,
        accepted=accepted,
    )


class RenormConstants(NamedTuple):
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
    action ("original"); both come from wavefunction_Z's one self_energy
    call per level. Two genuinely new structures are induced at one loop
    ("induced"): F_F, (1/4) gamma^{lam mu} gamma^{tau nu} F_{lam mu}
    F_{tau nu} (from the polarization), and dphi_dphi, gamma^2_{mu nu}
    d^mu phi d^nu phi (from the self-energy tensor part); their
    coefficients are the corresponding divergent integrals.
    """
    rows = []
    for level in (1, 2):
        z = wavefunction_Z(level, atoms, gamma, reg, b_order=b_order)
        shift = z["self_energy"]  # its first point is on the mass shell
        if level == 1:
            # induced d phi d phi operator: divergent coefficient of gamma^2_{mu nu} p^mu p^nu
            induced_phi = shift.sigma_II_coeff[0]
        rows += [
            (f"delta_m_sq.{level}.total", shift.total[0], "original"),
            (f"delta_m_sq.{level}.scalar", shift.sigma_I[0], "original"),
            (f"delta_m_sq.{level}.tensor", shift.sigma_II[0], "original"),
            (f"Z_phi_inv.{level}.scalar", 1.0 + z["f_scalar"], "original"),
            (f"Z_phi_inv.{level}.tensor_coeff", z["f_tensor_coeff"], "original"),
        ]

    m1 = atoms.m1
    p_prime = _onshell_momentum(1, atoms)
    q = (0.25 * m1, 0.25 * m1, 0.0, 0.0)  # lightlike: q^2 = 0
    vert = vertex_one_loop(p_prime, q, atoms, gamma, reg)

    # induced F F operator: 4 P(q^2 = 0) multiplies the
    # (1/4) gamma gamma F F structure; probe with a lightlike q
    q_probe = (0.1 * m1, 0.1 * m1, 0.0, 0.0)
    pol = photon_polarization(q_probe, atoms, gamma, reg)

    # measure the overall prefactor from the quadratic divergence of
    # Sigma^I / gamma^2, the on-shell x-integral of I_A alone, which needs no
    # gamma, on a cutoff grid, and compare with 1/(2 pi)^3. Scaling a unit
    # grid keeps max/min at exactly 100; geomspace(50 m, 5000 m) rounds its
    # endpoints and, for some m, falls short of the two decades
    # divergence_fit requires
    import numpy as np
    lam_grid = 50.0 * m1 * np.geomspace(1.0, 100.0, 12)
    if lam_grid[-1] > MAX_LAMBDA:
        raise FitError(f"prefactor fit grid reaches Lambda = 5000 m1 = {lam_grid[-1]:.3g}, above the cutoff cap {MAX_LAMBDA:g}")
    half_delta = 0.5 * atoms.delta if b_order == 1 else None
    vals = [
        _sigma_integrals(0.0, atoms.M2, atoms.M2, RegScheme(Lambda=lam, quad_tol=reg.quad_tol), half_delta, tensor=False)[0]
        for lam in lam_grid
    ]
    fit = divergence_fit(vals, lam_grid, atoms.M2)
    if not fit.accepted:
        raise FitError(f"prefactor fit rejected: residual {fit.fit_residual:.3e} above 1e-4 of its Lambda^2 term")
    measured = fit.c_quad
    ratio = measured / (1.0 / (2.0 * math.pi) ** 3)

    rows += [
        ("Z1_inv.scalar", 1.0 + 0.5 * vert["Gamma_I_coeff"], "original"),
        ("Z1_inv.tensor_contracted", -8.0 * vert["tensor_contracted"], "original"),
        ("Z1_inv.total", vert["Z1_inv"], "original"),
        ("induced.F_F", 4.0 * pol["P_coeff"], "induced"),
        ("induced.dphi_dphi", induced_phi, "induced"),
        ("prefactor.measured", measured, "report"),
        ("prefactor.ratio_to_printed", ratio, "report"),
    ]
    return RenormConstants(rows=tuple(rows), prefactor_measured=measured, prefactor_ratio_to_printed=ratio)
