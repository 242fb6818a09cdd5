"""The loop truths in mpmath: the five master integrals and the loop commands' columns.

master_integral states each closed form once, at the caller's working
precision. The three *_truth functions integrate the regulated integrals
of the loop commands' columns at LEDGER_DPS digits, from the same float
inputs as the code, so they share none of its double arithmetic or
Feynman-parameter rules.
"""

import mpmath
import numpy as np

from dipole_loop import cli
from dipole_loop.core import contractions, gamma_sq_dot
from dipole_loop.loops import MasterIntegralKind

LEDGER_DPS = 40


def prefactor():
    """1 / (16 pi^2), the 4-ball measure's factor, at the working precision."""
    return 1 / (16 * mpmath.pi**2)


def master_integral(kind, s, lam_sq):
    """The closed form of kind at scale s and squared cutoff lam_sq (1 / 16 pi^2 included),
    with T = lam_sq + s; s and lam_sq are taken exactly, at the working precision."""
    s, lam_sq = mpmath.mpf(s), mpmath.mpf(lam_sq)
    t = lam_sq + s
    log = mpmath.log(t / s)
    if kind is MasterIntegralKind.I_A:
        bracket = lam_sq + s - 2 * s * log - s**2 / t
    elif kind is MasterIntegralKind.I_B:
        bracket = lam_sq - s * log
    elif kind is MasterIntegralKind.I_C:
        bracket = 1 / (2 * s) - 1 / t + s / (2 * t**2)
    elif kind is MasterIntegralKind.I_D:
        bracket = log - mpmath.mpf(3) / 2 + 2 * s / t - s**2 / (2 * t**2)
    else:
        bracket = log - lam_sq / t  # I_E
    return prefactor() * bracket


def polarization_truth(cfg, lam):
    """P = int_0^1 I_E(M^2(x)) dx, M^2(x) = m1^2 + (m2^2 - m1^2 + q^2) x - q^2 x^2,
    split at M^2's minimum where it lies inside, as photon_polarization grades its rule."""
    with mpmath.workdps(LEDGER_DPS):
        m1_sq, m2_sq = mpmath.mpf(cfg["atoms"].m1) ** 2, mpmath.mpf(cfg["atoms"].m2) ** 2
        q = [mpmath.mpf(cfg[f"polarization.q{mu}"]) for mu in range(4)]
        q_sq = -q[0] ** 2 + q[1] ** 2 + q[2] ** 2 + q[3] ** 2
        lam_sq = mpmath.mpf(lam) ** 2
        points = [0, 1]
        if q_sq < 0 and 0 < (m2_sq - m1_sq + q_sq) / (2 * q_sq) < 1:
            points.insert(1, (m2_sq - m1_sq + q_sq) / (2 * q_sq))
        return mpmath.quad(lambda x: master_integral(
            MasterIntegralKind.I_E, m1_sq + (m2_sq - m1_sq + q_sq) * x - q_sq * x * x, lam_sq), points)


def vertex_truth(cfg, lam):
    """J = (1/32 pi^2) int_0^1 [ln(1 + L2/beta) - L2 / (2 (L2 + beta))] dy and
    K_m = (1/64 pi^2) int_0^1 y^m L2 / (beta (L2 + beta)) dy for m = 0, 1, 2,
    with L2 = Lambda^2 and beta(y) = (m2^2 + delta) + (q^2 - delta) y - q^2 y^2
    (m2^2 = M^2 and delta = 0 under vertex.symmetric_masses), split at beta's
    minimum where it lies inside, as vertex_one_loop grades its rule."""
    with mpmath.workdps(LEDGER_DPS):
        m1_sq, m2_sq = mpmath.mpf(cfg["atoms"].m1) ** 2, mpmath.mpf(cfg["atoms"].m2) ** 2
        if cfg["vertex.symmetric_masses"]:
            m2_sq, delta = (m1_sq + m2_sq) / 2, mpmath.mpf(0)
        else:
            delta = m1_sq - m2_sq
        q = [mpmath.mpf(cfg[f"vertex.q{mu}"]) for mu in range(4)]
        q_sq = -q[0] ** 2 + q[1] ** 2 + q[2] ** 2 + q[3] ** 2
        lam_sq = mpmath.mpf(lam) ** 2
        points = [0, 1]
        if q_sq < 0 and 0 < (q_sq - delta) / (2 * q_sq) < 1:
            points.insert(1, (q_sq - delta) / (2 * q_sq))

        def beta(y):
            return m2_sq + delta + (q_sq - delta) * y - q_sq * y * y

        J = prefactor() / 2 * mpmath.quad(
            lambda y: mpmath.log(1 + lam_sq / beta(y)) - lam_sq / (2 * (lam_sq + beta(y))), points)
        K = [prefactor() / 4 * mpmath.quad(lambda y: y**m * lam_sq / (beta(y) * (lam_sq + beta(y))), points)
             for m in range(3)]
        return [J] + K


def selfenergy_truth(cfg, lam, p_sq):
    """(sigma_I, sigma_II) = (gamma^2 int_0^1 I_A(a^2) dx, 4 gpp int_0^1 x^2 I_E(a^2) dx).

    gamma^2 and gpp = gamma^2_{tau lambda} p^tau p^lambda at the level's rest-frame
    on-shell momentum are the code's doubles. On the expansion path (order 0)
    a^2 = M^2 x^2 + s x (1 - x), with s = p^2 + m_level^2 formed in double as the
    code forms it; on the exact path a^2 = m_inner^2 x + p^2 x (1 - x)."""
    atoms, level, gamma = cfg["atoms"], cfg["selfenergy.level"], cli._gamma(cfg)
    gsq = contractions(gamma)["gamma_sq"]
    gpp = gamma_sq_dot(gamma, np.array([atoms.mass(level), 0.0, 0.0, 0.0]))
    with mpmath.workdps(LEDGER_DPS):
        if cfg["selfenergy.path"] == "expansion":
            assert cfg["selfenergy.b_order"] == 0, "the truth covers order 0 of the expansion only"
            m_sq, s = mpmath.mpf(atoms.M2), mpmath.mpf(p_sq + atoms.mass(level) ** 2)

            def a_sq(x):
                return m_sq * x * x + s * x * (1 - x)
        else:
            m_inner_sq, p = mpmath.mpf(atoms.mass(3 - level) ** 2), mpmath.mpf(p_sq)

            def a_sq(x):
                return m_inner_sq * x + p * x * (1 - x)

        lam_sq = mpmath.mpf(lam) ** 2
        int_a = mpmath.quad(lambda x: master_integral(MasterIntegralKind.I_A, a_sq(x), lam_sq), [0, 1])
        int_e = mpmath.quad(lambda x: x * x * master_integral(MasterIntegralKind.I_E, a_sq(x), lam_sq), [0, 1])
        return gsq * int_a, 4 * gpp * int_e
