"""Loop engine: closed forms vs quadrature, kinematics, measure checks."""

import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dipole_loop.errors import KinematicDomainError, QuadratureError
from dipole_loop.loops import (
    PREFACTOR,
    MasterIntegralKind,
    RegScheme,
    a_sq,
    b_sq,
    feynman_identity_check,
    master_integral,
    master_integral_d_scale,
    radial_quadrature,
    symmetric_integration_check,
)

KINDS = list(MasterIntegralKind)

# g(u) with the master integral equal to PREFACTOR * int u g(u) du
INTEGRANDS = {
    MasterIntegralKind.I_A: lambda u, s: u / (u + s) ** 2,
    MasterIntegralKind.I_B: lambda u, s: 1.0 / (u + s),
    MasterIntegralKind.I_C: lambda u, s: 1.0 / (u + s) ** 3,
    MasterIntegralKind.I_D: lambda u, s: u / (u + s) ** 3,
    MasterIntegralKind.I_E: lambda u, s: 1.0 / (u + s) ** 2,
}


class TestRegScheme:
    def test_validation(self):
        RegScheme(Lambda=10.0)
        with pytest.raises(ValueError):
            RegScheme(Lambda=-1.0)
        with pytest.raises(ValueError):
            RegScheme(Lambda=10.0, quad_tol=0.5)


class TestClosedForms:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("ratio", [1e-3, 1e-2, 0.1, 0.3])
    @pytest.mark.parametrize("lam", [1.0, 10.0, 100.0])
    def test_matches_quadrature(self, kind, ratio, lam):
        s = (ratio * lam) ** 2
        closed = master_integral(kind, s, lam)
        quad = radial_quadrature(lambda u: INTEGRANDS[kind](u, s), lam)
        assert closed == pytest.approx(quad, rel=1e-10)

    def test_zero_cutoff(self):
        # the quadrature oracle treats Lambda = 0 as the empty ball;
        # closed forms require a genuine regulator
        assert radial_quadrature(lambda u: 1.0, 0.0) == 0.0
        for kind in KINDS:
            with pytest.raises(ValueError):
                master_integral(kind, 1.0, 0.0)

    def test_ic_infinite_cutoff_limit(self):
        # I_C converges; at Lambda = 1e3 b it is within b^2/Lambda^2 of 1/(32 pi^2 b^2)
        b2 = 0.7
        lam = 1e3 * np.sqrt(b2)
        val = master_integral(MasterIntegralKind.I_C, b2, lam)
        assert val == pytest.approx(1.0 / (32.0 * np.pi**2 * b2), rel=1e-5)

    @pytest.mark.parametrize("kind", [MasterIntegralKind.I_A, MasterIntegralKind.I_E])
    def test_scale_derivative(self, kind):
        s, lam, h = 0.37, 25.0, 1e-6
        num = (master_integral(kind, s + h, lam) - master_integral(kind, s - h, lam)) / (2 * h)
        assert master_integral_d_scale(kind, s, lam) == pytest.approx(num, rel=1e-7)

    def test_scale_derivative_unsupported_kind(self):
        with pytest.raises(ValueError):
            master_integral_d_scale(MasterIntegralKind.I_B, 1.0, 10.0)

    def test_nonpositive_scale_rejected(self):
        for kind in KINDS:
            with pytest.raises(KinematicDomainError):
                master_integral(kind, -0.1, 10.0)
            with pytest.raises(KinematicDomainError):
                master_integral(kind, 0.0, 10.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_array_scales_match_scalar_calls(self, kind):
        scales = np.array([1e-6, 0.37, 4.0, 2.5e3])
        expect = [master_integral(kind, float(s), 50.0) for s in scales]
        assert np.array_equal(master_integral(kind, scales, 50.0), expect)
        if kind in (MasterIntegralKind.I_A, MasterIntegralKind.I_E):
            expect = [master_integral_d_scale(kind, float(s), 50.0) for s in scales]
            assert np.array_equal(master_integral_d_scale(kind, scales, 50.0), expect)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan, np.inf])
    def test_one_bad_array_entry_rejected(self, bad):
        scales = np.array([0.5, 1.0, bad, 2.0])
        with pytest.raises(KinematicDomainError, match="non-positive integrand scale"):
            master_integral(MasterIntegralKind.I_D, scales, 10.0)
        with pytest.raises(KinematicDomainError, match="non-positive integrand scale"):
            master_integral_d_scale(MasterIntegralKind.I_A, scales, 10.0)

    @given(st.floats(1e-4, 1e2), st.floats(0.5, 200.0))
    @settings(max_examples=30, deadline=None)
    def test_all_positive_scales(self, s, lam):
        # every master integral is positive on its domain
        for kind in KINDS:
            assert master_integral(kind, s, lam) > 0.0


class TestFarAboveCutoff:
    """Signs of the master integrals and their scale derivatives for s up to 1e150 Lambda^2.

    Every integrand is positive and decreasing in s, so every integral is
    positive and every derivative negative. Today the brackets cancel to
    rounding once s passes Lambda^2 (ROADMAP item 2): I_D first goes
    non-positive at s = 1e6 Lambda^2, I_B at 1e9 Lambda^2.
    """

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2: master integrals lose every digit far above the cutoff")
    @pytest.mark.parametrize("kind, d_scale", [(kind, False) for kind in KINDS] + [
        (MasterIntegralKind.I_A, True), (MasterIntegralKind.I_E, True)],
        ids=lambda v: v.name if isinstance(v, MasterIntegralKind) else ("d_scale" if v else "value"))
    def test_signs(self, kind, d_scale):
        lam = 100.0
        s = np.geomspace(1.0, 1e150, 151) * lam**2
        if d_scale:
            assert np.all(master_integral_d_scale(kind, s, lam) < 0.0)
        else:
            assert np.all(master_integral(kind, s, lam) > 0.0)


def symmetric_moments_sequential(n_samples, seed):
    """The angular check as a loop over the ten moments, each summed in sample order.

    This is the earlier rule, equal bit for bit to the mean/std of the
    (k, 4, 4) second-moment stack before that.
    """
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n_samples, 4))
    n = v / np.linalg.norm(v, axis=1, keepdims=True)
    z_off = z_diag = 0.0
    for i in range(4):
        for j in range(i, 4):
            x = n[:, i] * n[:, j]
            mean = np.cumsum(x)[-1] / n_samples
            d = x - mean
            std_err = np.sqrt(np.cumsum(d * d)[-1] / (n_samples - 1)) / np.sqrt(n_samples)
            z = abs(mean - (0.25 if i == j else 0.0)) / std_err
            if i == j:
                z_diag = max(z_diag, z)
            else:
                z_off = max(z_off, z)
    return {"max_offdiag_z": float(z_off), "max_diag_z": float(z_diag), "n_samples": n_samples}


class TestRadialQuadrature:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_independent_quadratures(self, kind):
        # the 60 oracle-verify cases against scipy quad and 30-digit mpmath
        g = INTEGRANDS[kind]
        for ratio in (1e-3, 1e-2, 0.1, 0.3):
            for lam in (1.0, 10.0, 100.0):
                s = (ratio * lam) ** 2
                ours = radial_quadrature(lambda u: g(u, s), lam, 1e-10)
                ref, _ = integrate.quad(lambda u: u * g(u, s), 0.0, lam**2, epsabs=0.0, epsrel=1e-12, limit=300)
                assert ours == pytest.approx(PREFACTOR * ref, rel=1e-12, abs=0.0)
                with mpmath.workdps(30):
                    ref = mpmath.quad(lambda u: u * g(u, mpmath.mpf(s)), [0, s, lam**2])
                assert ours == pytest.approx(PREFACTOR * float(ref), rel=1e-12, abs=0.0)

    def test_prefactor_normalization(self):
        # int_0^{L^2} u du = L^4 / 2
        lam = 2.0 ** 0.25
        assert radial_quadrature(lambda u: 1.0, lam) == pytest.approx(PREFACTOR, rel=1e-12)

    def test_unconverged_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(QuadratureError):
                radial_quadrature(lambda u: np.sin(5e4 * u), 100.0)


class TestKinematics:
    def test_a_sq_formula(self):
        assert a_sq(0.3, 2.0, 1.5) == pytest.approx(1.5 * 0.3 + 2.0 * 0.3 * 0.7)

    def test_a_sq_onshell_equal_masses(self):
        # p^2 = -m^2 with the same inner mass collapses to m^2 x^2
        m2 = 0.81
        for x in (0.1, 0.5, 0.9):
            assert a_sq(x, -m2, m2) == pytest.approx(m2 * x * x)

    def test_b_sq_formula(self):
        x, y, q2, m2, delta = 0.4, 0.6, -0.3, 0.9, 0.1
        expect = x * x * m2 + delta * x * x * (1 - y) + x * x * y * (1 - y) * q2
        assert b_sq(x, y, q2, m2, delta) == pytest.approx(expect)

    def test_b_sq_reduces_to_a_like(self):
        # at q^2 = 0 and no splitting: b^2 = x^2 m^2
        assert b_sq(0.7, 0.2, 0.0, 1.3, 0.0) == pytest.approx(1.3 * 0.49)


class TestMeasureOracles:
    def test_feynman_identity_two_denominators(self):
        assert feynman_identity_check(1.3, 0.7) < 1e-11
        assert feynman_identity_check(5.0, 0.2) < 1e-11

    def test_feynman_identity_three_denominators(self):
        assert feynman_identity_check(1.3, 0.7, 2.1) < 1e-11

    @pytest.mark.parametrize("denominators", [
        (100.0, 0.01), (0.01, 100.0), (0.01, 1.0, 100.0), (1e3, 1.0, 1e-3), (1e-3, 1e3, 1.0), (1.0, 1e3, 1e-3),
    ])
    def test_feynman_identity_wide_denominators(self, denominators):
        # up to 1e6 between denominators, where the parameter integrands peak at an end
        assert feynman_identity_check(*denominators) <= 1e-13

    @pytest.mark.parametrize("n_samples, seed", [(200_000, 7), (1000, 0), (5000, 3), (20_000, 11), (20_000, 12), (123_457, 99)])
    def test_angular_check_matches_stacked_moments(self, n_samples, seed):
        # the matrix products sum in another order than the sequential
        # loop; the z rows may differ by oracle-verify's 1e-11 absolute
        fast = symmetric_integration_check(n_samples, seed)
        slow = symmetric_moments_sequential(n_samples, seed)
        assert fast["n_samples"] == slow["n_samples"] == n_samples
        for key in ("max_offdiag_z", "max_diag_z"):
            assert fast[key] == pytest.approx(slow[key], rel=0.0, abs=1e-11)

    def test_angular_check_memory(self):
        tracemalloc.start()
        try:
            symmetric_integration_check()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 25e6

    def test_angular_second_moments_isotropic(self):
        out = symmetric_integration_check(n_samples=100_000, seed=11)
        # z-scores of <l^mu l^nu> - delta^{mu nu} l^2 / 4 on the 3-sphere
        assert out["max_offdiag_z"] < 5.0
        assert out["max_diag_z"] < 5.0
