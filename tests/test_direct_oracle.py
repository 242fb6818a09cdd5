"""Direct loop-momentum oracle: one-loop integrals without Feynman parameters.

The package evaluates every loop integral after a Feynman-parameter
shift l -> k + x p, with the hard cutoff |k| <= Lambda on the shifted
variable (README, ``loops``). The oracle here integrates the original
Euclidean integrand over the unshifted loop momentum instead, with the
cutoff ball centred on a fixed routing point, and shares no code with
``renorm``'s x-integrals.

Polar-angle reduction. With k = r n and c = cos(theta) the angle between
n and the external momentum, d^4k / (2 pi)^4 = r^3 dr sin^2(theta)
dtheta / (4 pi^3) once the two remaining angles are integrated. Every
denominator is linear in c, D = a + b c with a >= |b|, and with
w = sqrt(a^2 - b^2) the polar moments are closed forms:

    J0 = int_0^pi sin^2 / D        = pi / (a + w)
    J1 = int_0^pi sin^2 c / D      = -pi b / (2 (a + w)^2)
    J2 = int_0^pi sin^2 c^2 / D    = pi a / (2 (a + w)^2)

J0 is the table integral pi (a - w) / b^2 with its cancellation removed;
J1 and J2 follow from c / D = (1 - a / D) / b, int sin^2 = pi/2 and
int c sin^2 = 0. Two denominators D1, D2 whose c-coefficients have
opposite signs in the ratio alpha : beta (as below) split without
cancellation, 1 / (D1 D2) = (alpha / D1 + beta / D2) / S with
S = alpha a2 + beta a1, because alpha b2 + beta b1 = 0. What remains is
one radial ``quad`` per cutoff.

Routing surface terms. For the self-energy tensor

    T_{mu rho}(p) = int d^4l / (2 pi)^4 l_mu l_rho / (l^2 ((l - p)^2 + m^2))

with l the photon momentum and the cutoff |l - alpha p| <= Lambda, the
Feynman parameter x puts the integrand at f(k) = (k + x p)_mu (k + x p)_rho
/ (k^2 + a^2)^2, k = l - x p, over the ball |k - c| <= Lambda with
c = (alpha - x) p. By the divergence theorem the difference from the
ball |k| <= Lambda is exactly int_0^1 dt oint (c.n) f(Lambda n + t c) dS.
At large Lambda only two pieces survive: the odd part x (k p + p k) / k^4
of f at t-order 0, and the t-order-1 term (1/2) oint (c.n) (c.d) k k / k^4.
With oint n n = delta / 4 and oint n n n n = (delta delta + 2 perms) / 24
over the 3-sphere of area 2 pi^2 Lambda^3, and 1 / (2 pi)^4 = PREFACTOR / pi^2,

    T(alpha) - T(shifted) = PREFACTOR int_0^1 dx [ (alpha - x) x p p
        + (alpha - x)^2 (p p - p^2 delta) / 6 ].

The delta part therefore moves by -PREFACTOR p^2 int (alpha - x)^2 dx / 6,
so the scalar self-energy Sigma_I / gamma^2 = 4 T_delta moves by
-(2/3) PREFACTOR p^2 int (alpha - x)^2 dx, and the constant of its slope
in s = p^2 + m^2 becomes -1/18 - (2/3) int (alpha - x)^2 dx: -5/18 for
a cutoff on the photon (alpha = 0) or on the atom (alpha = 1) momentum,
-1/9 at alpha = 1/2. The photon polarization P is only log divergent,
so the same argument moves it by O(q^2 / Lambda^2) and its constant
cannot depend on routing.
"""

import numpy as np
import pytest
from scipy import integrate

from dipole_loop.core import AtomPair, contractions, dipole_from_moment
from dipole_loop.loops import PREFACTOR, RegScheme
from dipole_loop.renorm import divergence_fit, photon_polarization, self_energy

GRID_LOG = np.geomspace(100.0, 10000.0, 12)
ATOM_PAIRS = {"equal": AtomPair(m1=1.0, m2=1.0), "split": AtomPair(m1=1.0, m2=0.95)}


def polar_moments(a, b, w):
    """(J0, J1, J2) for the denominator a + b cos(theta), w = sqrt(a^2 - b^2)."""
    s = a + w
    return np.pi / s, -np.pi * b / (2.0 * s * s), np.pi * a / (2.0 * s * s)


def radial(f, lam, points=None):
    """int_{|k| <= lam} d^4k / (2 pi)^4 of a k-function whose polar integral is f(r)."""
    val, err = integrate.quad(
        lambda r: r**3 * f(r), 0.0, lam, epsabs=0.0, epsrel=1e-13, limit=500, points=points
    )
    assert abs(err) <= 1e-10 * abs(val)
    return val / (4.0 * np.pi**3)


def direct_polarization(q_abs, m1, m2, lam):
    """P(q^2) = int_{|l| <= lam} [(l^2 + m1^2)((l + q)^2 + m2^2)]^-1, cutoff on the m1 line."""

    def polar(r):
        a = r * r + q_abs**2 + m2**2
        w = np.sqrt(((r - q_abs) ** 2 + m2**2) * ((r + q_abs) ** 2 + m2**2))
        return polar_moments(a, 2.0 * r * q_abs, w)[0] / (r * r + m1**2)

    return radial(polar, lam)


def direct_selfenergy_tensor(p_abs, m, alpha, lam):
    """(T_delta, T_pp p^2) of T_{mu rho} = T_delta delta + T_pp p p, cutoff |l - alpha p| <= lam.

    With k = l - alpha p the photon line is D1 = (k + alpha p)^2 and the
    atom line D2 = (k - beta p)^2 + m^2, beta = 1 - alpha. The trace is
    int 1 / D2 (since l^2 = D1) and the p-projection int (p.l)^2 / (p^2 D1 D2)
    with (p.l)^2 / p^2 = (r c + alpha |p|)^2; they equal 4 T_delta + T_pp p^2
    and T_delta + T_pp p^2.
    """
    beta = 1.0 - alpha
    P = p_abs

    def trace_and_projection(r):
        a1, b1 = r * r + (alpha * P) ** 2, 2.0 * alpha * r * P
        w1 = abs(r * r - (alpha * P) ** 2)
        a2, b2 = r * r + (beta * P) ** 2 + m * m, -2.0 * beta * r * P
        w2 = np.sqrt(((r - beta * P) ** 2 + m * m) * ((r + beta * P) ** 2 + m * m))
        S = r * r + alpha * beta * P * P + alpha * m * m
        n = ((alpha * P) ** 2, 2.0 * alpha * P * r, r * r)
        j1, j2 = polar_moments(a1, b1, w1), polar_moments(a2, b2, w2)
        proj = (alpha * np.dot(n, j1) + beta * np.dot(n, j2)) / S
        return j2[0], proj

    def t_delta(r):
        trace, proj = trace_and_projection(r)
        return (trace - proj) / 3.0

    def t_pp(r):
        trace, proj = trace_and_projection(r)
        return (4.0 * proj - trace) / 3.0

    # w1 has a kink where the photon line goes on shell (r = alpha |p|, c = -1)
    points = [alpha * P] if alpha > 0.0 else None
    return radial(t_delta, lam, points), radial(t_pp, lam, points)


def routing_surface_terms(alpha, p_sq):
    """(shift of T_delta, shift of T_pp p^2) in units of PREFACTOR, from the module docstring."""
    sq = alpha * alpha - alpha + 1.0 / 3.0  # int_0^1 (alpha - x)^2 dx
    cross = 0.5 * alpha - 1.0 / 3.0  # int_0^1 (alpha - x) x dx
    return -p_sq * sq / 6.0, p_sq * (cross + sq / 6.0)


@pytest.mark.parametrize(
    "a, b", [(2.0, 1.3), (5.0, -4.9), (3.0, 0.0), (1.0, 1.0), (1.0, -1.0), (1e4, 1e-3)]
)
def test_polar_moments_match_quadrature(a, b):
    w = np.sqrt((a - b) * (a + b))
    closed = polar_moments(a, b, w)
    for n, val in enumerate(closed):
        ref, _ = integrate.quad(
            lambda t: np.sin(t) ** 2 * np.cos(t) ** n / (a + b * np.cos(t)),
            0.0, np.pi, epsabs=1e-13 * closed[0], epsrel=1e-13,
        )
        assert val == pytest.approx(ref, rel=1e-11, abs=1e-12 * closed[0])


@pytest.mark.parametrize("pair", ATOM_PAIRS)
def test_polarization_matches_program(pair):
    atoms = ATOM_PAIRS[pair]
    gamma = dipole_from_moment(np.array([0.01, 0.0, 0.0]), atoms)
    for q_abs in (0.3, 1.5):
        q = np.array([0.0, q_abs, 0.0, 0.0])
        for lam in GRID_LOG:
            direct = direct_polarization(q_abs, atoms.m1, atoms.m2, lam)
            program = photon_polarization(q, atoms, gamma, RegScheme(Lambda=lam))["P_coeff"]
            assert program == pytest.approx(direct, rel=1e-5)


@pytest.mark.parametrize("pair", ATOM_PAIRS)
def test_polarization_constant_matches_analytic(pair):
    # I_E(s) -> PREFACTOR [ln(Lambda^2 / s) - 1] at Lambda >> s, so
    # P = int dx I_E(M^2(x)) has c_const / c_log = -1 - int ln(M^2(x) / M^2) dx
    atoms = ATOM_PAIRS[pair]
    q_abs = 0.3
    vals = np.array([direct_polarization(q_abs, atoms.m1, atoms.m2, lam) for lam in GRID_LOG])
    fit = divergence_fit(vals, GRID_LOG, atoms.M2, model="log_const")

    def m_sq(x):
        return atoms.m1**2 * (1.0 - x) + atoms.m2**2 * x + q_abs**2 * x * (1.0 - x)

    log_moment, _ = integrate.quad(lambda x: np.log(m_sq(x) / atoms.M2), 0.0, 1.0, epsrel=1e-12)
    assert fit.accepted
    assert fit.c_const / fit.c_log == pytest.approx(-1.0 - log_moment, abs=1e-3)


@pytest.mark.parametrize("p_abs", [0.5, 1.2])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_selfenergy_routing_surface_terms(alpha, p_abs):
    atoms = ATOM_PAIRS["split"]
    gamma = dipole_from_moment(np.array([0.01, 0.0, 0.0]), atoms)
    gsq = contractions(gamma)["gamma_sq"]
    lam, p_sq = 300.0, p_abs**2
    # level 1 has the level-2 mass in the loop; Sigma_I = 4 gamma^2 T_delta and
    # sigma_II_coeff = 4 T_pp on the shifted (documented) regulator
    res = self_energy(
        1, p_sq, atoms, gamma,
        RegScheme(Lambda=lam, quad_tol=1e-12), path="exact",
    )
    shifted = (res.sigma_I / (4.0 * gsq), p_sq * res.sigma_II_coeff / 4.0)
    direct = direct_selfenergy_tensor(p_abs, atoms.m2, alpha, lam)
    expected = routing_surface_terms(alpha, p_sq)
    for d, s, e in zip(direct, shifted, expected):
        assert (d - s) / PREFACTOR == pytest.approx(e, rel=1e-3)
