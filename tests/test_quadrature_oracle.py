"""Fixed-rule Feynman-parameter integrals against adaptive scipy oracles.

``renorm`` integrates on Gauss-Legendre rules of doubling size and does
the vertex's x-integral in closed form. The oracles below are the
adaptive ``quad``/``dblquad`` integrals over scalar ``master_integral``
callbacks that ``renorm`` used before, run at epsrel 1e-12. Every fast
value must match its oracle to REL, fixed before the comparison.
"""

import numpy as np
import pytest
import sympy as sp
from scipy import integrate

from dipole_loop import cli
from dipole_loop.core import AtomPair, dipole_from_moment
from dipole_loop.errors import KinematicDomainError, QuadratureError
from dipole_loop.loops import (
    MasterIntegralKind,
    RegScheme,
    master_integral,
    master_integral_d_scale,
)
from dipole_loop.renorm import (
    _sigma_integrals_exact,
    _sigma_integrals_expansion,
    counterterm_report,
    photon_polarization,
    vertex_one_loop,
)

I_A, I_C, I_D, I_E = (MasterIntegralKind[k] for k in ("I_A", "I_C", "I_D", "I_E"))
ORACLE_TOL = 1e-12
REL = 1e-11
SPLIT = AtomPair(m1=1.0, m2=0.9)
GAMMA = dipole_from_moment(np.array([0.01, 0.0, 0.0]), SPLIT)
P_PRIME = np.array([SPLIT.m1, 0.0, 0.0, 0.0])
LAMBDAS = [9.0, 100.0, 3e3, 1e5]


def quad(f):
    val, _ = integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=ORACLE_TOL, limit=300)
    return val


def dblquad(f):
    val, _ = integrate.dblquad(f, 0.0, 1.0, 0.0, 1.0, epsabs=0.0, epsrel=ORACLE_TOL)
    return val


def oracle_sigma_exact(p_sq, m_inner_sq, lam):
    a2 = lambda x: m_inner_sq * x + p_sq * x * (1.0 - x)
    return (
        quad(lambda x: master_integral(I_A, a2(x), lam)),
        quad(lambda x: x * x * master_integral(I_E, a2(x), lam)),
    )


def oracle_sigma_expansion(s, level, atoms, lam, order):
    a0 = lambda x: atoms.M2 * x * x + s * x * (1.0 - x)
    int_a = quad(lambda x: master_integral(I_A, a0(x), lam))
    int_e = quad(lambda x: x * x * master_integral(I_E, a0(x), lam))
    if order == 1:
        shift = (1.0 if level == 1 else -1.0) * 0.5 * atoms.delta
        int_a -= shift * quad(lambda x: x * (2.0 - x) * master_integral_d_scale(I_A, a0(x), lam))
        int_e -= shift * quad(lambda x: x**3 * (2.0 - x) * master_integral_d_scale(I_E, a0(x), lam))
    return int_a, int_e


def oracle_vertex(q_sq, m2_sq, delta, lam):
    b2 = lambda x, y: x * x * m2_sq + delta * x * x * (1.0 - y) + x * x * y * (1.0 - y) * q_sq
    J = dblquad(lambda y, x: x * master_integral(I_D, b2(x, y), lam))
    K = [dblquad(lambda y, x: x**3 * y**m * master_integral(I_C, b2(x, y), lam)) for m in (0, 1, 2)]
    return J, K


def oracle_polarization(q_sq, atoms, lam):
    m_sq = lambda x: atoms.m1**2 * (1.0 - x) + atoms.m2**2 * x + q_sq * x * (1.0 - x)
    return quad(lambda x: master_integral(I_E, m_sq(x), lam))


def reg(lam, tol=ORACLE_TOL):
    return RegScheme(Lambda=lam, quad_tol=tol)


class TestSelfEnergy:
    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("s_frac", [0.0, 1e-6, 5e-4, 1e-3])
    def test_expansion_path(self, lam, level, order, s_frac):
        s = s_frac * SPLIT.M2
        fast = _sigma_integrals_expansion(s, level, SPLIT, reg(lam), order)
        slow = oracle_sigma_expansion(s, level, SPLIT, lam, order)
        assert fast == pytest.approx(slow, rel=REL)

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("s_frac", [0.0, 1e-6, 5e-4, 1e-3])
    def test_exact_path(self, lam, s_frac):
        # level 2 with the heavier mass in the loop; s = 0 is its mass shell
        p_sq = s_frac * SPLIT.M2 - SPLIT.m2**2
        fast = _sigma_integrals_exact(p_sq, SPLIT.m1**2, reg(lam))
        assert fast == pytest.approx(oracle_sigma_exact(p_sq, SPLIT.m1**2, lam), rel=REL)

    @pytest.mark.parametrize("lam", [9.0, 1e5])
    def test_exact_path_at_the_decay_threshold(self, lam):
        # p^2 = -m_inner^2: a^2(x) = m^2 x^2 vanishes quadratically at x = 0
        fast = _sigma_integrals_exact(-SPLIT.m2**2, SPLIT.m2**2, reg(lam))
        assert fast == pytest.approx(oracle_sigma_exact(-SPLIT.m2**2, SPLIT.m2**2, lam), rel=REL)


class TestVertex:
    @pytest.mark.parametrize("lam", [10.0, 1e3, 1.1e5])
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("q", [(0.25, 0.25), (0.5, 0.1), (0.0, 0.3)])
    def test_matches_dblquad(self, lam, symmetric, q):
        q = np.array([q[0], q[1], 0.0, 0.0])
        v = vertex_one_loop(P_PRIME, q, SPLIT, GAMMA, reg(lam), symmetric_masses=symmetric)
        m2_sq, delta = (SPLIT.M2, 0.0) if symmetric else (SPLIT.m2**2, SPLIT.delta)
        J, K = oracle_vertex(v["q_sq"], m2_sq, delta, lam)
        assert [v["J"], v["K0"], v["K1"], v["K2"]] == pytest.approx([J, *K], rel=REL)

    @pytest.mark.parametrize("frac", [0.99, 0.999])
    def test_timelike_near_threshold(self, frac):
        # symmetric masses: beta(y) = M^2 + y (1 - y) q^2 first vanishes
        # at y = 1/2 when q^2 = -4 M^2
        q0 = np.sqrt(frac * 4.0 * SPLIT.M2)
        q = np.array([q0, 0.0, 0.0, 0.0])
        v = vertex_one_loop(P_PRIME, q, SPLIT, GAMMA, reg(100.0))
        J, K = oracle_vertex(v["q_sq"], SPLIT.M2, 0.0, 100.0)
        assert [v["J"], v["K0"], v["K1"], v["K2"]] == pytest.approx([J, *K], rel=REL)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_timelike_at_1e_6_of_threshold(self, symmetric):
        # beta_min is ~1e-6 of m2^2: the expanded quadratic lost ten digits
        # there, and the rule could not reach quad_tol 1e-12
        threshold = 4.0 * SPLIT.M2 if symmetric else (SPLIT.m1 + SPLIT.m2) ** 2
        q = np.array([np.sqrt(0.999999 * threshold), 0.0, 0.0, 0.0])
        v = vertex_one_loop(P_PRIME, q, SPLIT, GAMMA, reg(100.0), symmetric_masses=symmetric)
        m2_sq, delta = (SPLIT.M2, 0.0) if symmetric else (SPLIT.m2**2, SPLIT.delta)
        J, K = oracle_vertex(v["q_sq"], m2_sq, delta, 100.0)
        assert [v["J"], v["K0"], v["K1"], v["K2"]] == pytest.approx([J, *K], rel=REL)

    def test_threshold_between_nodes_is_caught(self):
        # beta < 0 only for |y - 1/2| < 0.0025, well inside the gap between
        # the central nodes of a 32-node rule; the exact minimum sees it
        q = np.array([np.sqrt(1.0001 * 4.0 * SPLIT.M2), 0.0, 0.0, 0.0])
        with pytest.raises(KinematicDomainError, match="threshold"):
            vertex_one_loop(P_PRIME, q, SPLIT, GAMMA, reg(100.0))

    def test_closed_forms(self):
        # the u = x^2 integrals the vertex uses, against sympy
        u, beta, lam = sp.symbols("u beta Lambda", positive=True)
        s = u * beta
        T = lam**2 + s
        i_d = sp.log(T / s) - sp.Rational(3, 2) + 2 * s / T - s**2 / (2 * T**2)
        i_c = 1 / (2 * s) - 1 / T + s / (2 * T**2)
        j_form = sp.log(1 + lam**2 / beta) - lam**2 / (2 * (lam**2 + beta))
        k_form = lam**2 / (2 * beta * (lam**2 + beta))
        assert sp.simplify(sp.integrate(i_d, (u, 0, 1)) - j_form) == 0
        assert sp.simplify(sp.integrate(u * i_c, (u, 0, 1)) - k_form) == 0


class TestPolarization:
    @pytest.mark.parametrize("lam", [10.0, 1e3, 1e5])
    @pytest.mark.parametrize("frac", [-0.5, 0.5, 0.9, 0.99, 0.999, 0.9999])
    def test_matches_quad(self, lam, frac):
        # q^2 = -frac (m1 + m2)^2: frac -> 1 is the pair threshold
        q0 = np.sqrt(abs(frac)) * (SPLIT.m1 + SPLIT.m2)
        q = np.array([q0, 0.0, 0.0, 0.0]) if frac >= 0 else np.array([0.0, q0, 0.0, 0.0])
        P = photon_polarization(q, SPLIT, GAMMA, reg(lam))["P_coeff"]
        q_sq = -q[0] ** 2 + q[1] ** 2
        assert P == pytest.approx(oracle_polarization(q_sq, SPLIT, lam), rel=REL)


class TestTolerance:
    def test_unattainable_tolerance_raises(self):
        with pytest.raises(QuadratureError, match="requested 1.00e-18"):
            _sigma_integrals_expansion(0.0, 1, SPLIT, reg(100.0, tol=1e-18), 0)

    def test_cli_exit_3_without_traceback(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("regulator.quad_tol = 1e-18\n", encoding="utf-8")
        code = cli.main(["loop-selfenergy", "--config", str(conf), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: Feynman-parameter rule") and "requested 1.00e-18" in err
        assert "Traceback" not in err
        assert not (tmp_path / "loop_selfenergy.csv").exists()


@pytest.mark.parametrize("m1", [0.9038, 1.0839, 1.09, 1.1])
def test_counterterm_grid_spans_two_decades(m1):
    # np.geomspace(50 m1, 5000 m1, 12) ends below 100 times its start for
    # these masses, and divergence_fit used to reject its own grid
    lo, hi = np.geomspace(50.0 * m1, 5000.0 * m1, 12)[[0, -1]]
    assert hi < 100.0 * lo
    atoms = AtomPair(m1=m1, m2=0.95 * m1)
    gamma = dipole_from_moment(np.array([0.01, 0.0, 0.0]), atoms)
    rep = counterterm_report(atoms, gamma, RegScheme(Lambda=100.0))
    assert rep.prefactor_measured == pytest.approx(1.0 / (16.0 * np.pi**2), rel=1e-9)
