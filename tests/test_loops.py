"""Loop engine: closed forms vs quadrature and measure checks."""

import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import truth
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dipole_loop import loops
from dipole_loop.errors import KinematicDomainError, QuadratureError
from dipole_loop.loops import (
    PREFACTOR,
    _row_norms,
    MasterIntegralKind,
    RegScheme,
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


# cutoffs every loops entry point refuses (radial_quadrature takes 0)
BAD_CUTOFFS = [math.nan, math.inf, -math.inf, 0.0, -1.0]
# cutoffs above loops.MAX_LAMBDA, which the closed forms refuse (radial_quadrature takes them)
ABOVE_CAP = [1.2e77, 1e150]


class TestRegScheme:
    def test_validation(self):
        RegScheme(Lambda=10.0)
        with pytest.raises(ValueError):
            RegScheme(Lambda=-1.0)
        with pytest.raises(ValueError):
            RegScheme(Lambda=10.0, quad_tol=0.5)


class TestCutoffRefusals:
    """A NaN, infinite, zero or negative cutoff, or one above loops.MAX_LAMBDA, is refused
    before anything is integrated."""

    @pytest.mark.parametrize("lam", BAD_CUTOFFS)
    def test_reg_scheme(self, lam):
        with pytest.raises(ValueError, match="Lambda must be finite and positive, got"):
            RegScheme(Lambda=lam)

    @pytest.mark.parametrize("lam", BAD_CUTOFFS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_master_integral(self, kind, lam):
        with pytest.raises(ValueError, match="Lambda must be finite and positive, got"):
            master_integral(kind, 1.0, lam)

    @pytest.mark.parametrize("lam", BAD_CUTOFFS)
    @pytest.mark.parametrize("kind", [MasterIntegralKind.I_A, MasterIntegralKind.I_E])
    def test_master_integral_d_scale(self, kind, lam):
        with pytest.raises(ValueError, match="Lambda must be finite and positive, got"):
            master_integral_d_scale(kind, 1.0, lam)

    @pytest.mark.parametrize("lam", ABOVE_CAP)
    def test_reg_scheme_above_cap(self, lam):
        with pytest.raises(ValueError, match=re.escape(f"Lambda must be <= 1e+76, got {lam:g}")):
            RegScheme(Lambda=lam)

    @pytest.mark.parametrize("lam", ABOVE_CAP)
    @pytest.mark.parametrize("kind", KINDS)
    def test_master_integral_above_cap(self, kind, lam):
        with pytest.raises(ValueError, match=re.escape(f"Lambda must be <= 1e+76, got {lam:g}")):
            master_integral(kind, 1.0, lam)

    @pytest.mark.parametrize("lam", ABOVE_CAP)
    @pytest.mark.parametrize("kind", [MasterIntegralKind.I_A, MasterIntegralKind.I_E])
    def test_master_integral_d_scale_above_cap(self, kind, lam):
        with pytest.raises(ValueError, match=re.escape(f"Lambda must be <= 1e+76, got {lam:g}")):
            master_integral_d_scale(kind, 1.0, lam)

    @pytest.mark.parametrize("lam", BAD_CUTOFFS)
    def test_radial_quadrature(self, lam):
        calls = []

        def f(u):
            calls.append(u)
            return np.ones_like(u)

        if lam == 0.0:
            assert radial_quadrature(f, lam) == 0.0
        else:
            with pytest.raises(ValueError, match="Lambda must be finite and >= 0, got"):
                radial_quadrature(f, lam)
        assert calls == []


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

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("lam", [0.1, 1.0, 100.0, 1e5])
    def test_mpmath_50_digits(self, kind, lam):
        # relative error against the exact antiderivative: 1e-15 up to s = 0.1 Lambda^2,
        # 2e-12 up to 10 Lambda^2, where the brackets cancel (ROADMAP item 2)
        ratios = np.geomspace(1e-12, 10.0, 131)
        got = master_integral(kind, ratios * lam**2, lam)
        with mpmath.workdps(50):
            errs = np.array([float(abs(mpmath.mpf(g) / truth.master_integral(kind, s, mpmath.mpf(lam) ** 2) - 1))
                             for g, s in zip(got, ratios * lam**2)])
        near = ratios <= 0.1
        assert errs[near].max() <= 1e-15
        assert errs[~near].max() <= 2e-12
        # so the scale derivatives carry these errors: dI_A/ds = -2 I_D, dI_E/ds = -2 I_C
        of = {MasterIntegralKind.I_D: MasterIntegralKind.I_A, MasterIntegralKind.I_C: MasterIntegralKind.I_E}
        if kind in of:
            assert np.array_equal(master_integral_d_scale(of[kind], ratios * lam**2, lam), -2.0 * got)

    @given(st.floats(1e-4, 1e2), st.floats(0.5, 200.0))
    @settings(max_examples=30, deadline=None)
    def test_all_positive_scales(self, s, lam):
        # every master integral is positive on its domain
        for kind in KINDS:
            assert master_integral(kind, s, lam) > 0.0


class TestTruthModule:
    """tests/truth.py's closed forms against the integrals they state."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("ratio", [1e-6, 1.0, 10.0])
    @pytest.mark.parametrize("lam", [1.0, 100.0])
    def test_master_integral_is_its_integrand_integrated(self, kind, ratio, lam):
        # (1 / 16 pi^2) int_0^{Lambda^2} u g(u) du with g(u) = u^a / (u + s)^b read from
        # kind.value, at 40 digits; 1e-30 relative, a bound fixed before measuring
        a, b = kind.value
        with mpmath.workdps(40):
            lam_sq = mpmath.mpf(lam) ** 2
            s = ratio * lam_sq
            integral = truth.prefactor() * mpmath.quad(lambda u: u * u**a / (u + s) ** b, [0, s, lam_sq])
            assert abs(truth.master_integral(kind, s, lam_sq) / integral - 1) <= 1e-30


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
    return {"max_offdiag_z": float(z_off), "max_diag_z": float(z_diag)}


def _two_product(a, b):
    """hi + lo == a * b exactly, element by element (Dekker's product with Veltkamp's split)."""
    def split(x):
        c = 134217729.0 * x  # 2^27 + 1
        hi = c - (c - x)
        return hi, x - hi

    hi = a * b
    (a1, a2), (b1, b2) = split(a), split(b)
    return hi, a2 * b2 - (((hi - a1 * b1) - a2 * b1) - a1 * b2)


def _exact_sum(a, b):
    """sum_k a_k b_k as an mpf, exact to about 32 digits: the products are split
    error-free, math.fsum rounds their sum once and sums the residual once more."""
    terms = np.concatenate(_two_product(a, b)).tolist()
    head = math.fsum(terms)
    terms.append(-head)
    return mpmath.mpf(head) + mpmath.mpf(math.fsum(terms))


def symmetric_moments_truth(n_samples, seed):
    """The angular check's z-scores from the exact moments of the same unit draws.

    The fourth moments take the products of the double-rounded squares, as
    the check does; every sum is exact, and z is formed in 40-digit mpmath.
    """
    v = np.random.default_rng(seed).normal(size=(n_samples, 4))
    n = v / np.linalg.norm(v, axis=1, keepdims=True)
    sq = n * n
    z_off = z_diag = 0
    with mpmath.workdps(40):
        size = mpmath.mpf(n_samples)
        for i in range(4):
            for j in range(i, 4):
                mean = _exact_sum(n[:, i], n[:, j]) / size
                var = (_exact_sum(sq[:, i], sq[:, j]) / size - mean * mean) * size / (size - 1)
                z = abs(mean - (mpmath.mpf(1) / 4 if i == j else 0)) / mpmath.sqrt(var / size)
                if i == j:
                    z_diag = max(z_diag, z)
                else:
                    z_off = max(z_off, z)
    return {"max_offdiag_z": z_off, "max_diag_z": z_diag}


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
        assert fast.keys() == slow.keys() == {"max_offdiag_z", "max_diag_z"}
        for key in ("max_offdiag_z", "max_diag_z"):
            assert fast[key] == pytest.approx(slow[key], rel=0.0, abs=1e-11)

    @pytest.mark.parametrize("n_samples, seed", [(200_000, 7), (1000, 0), (5000, 3), (20_000, 11), (20_000, 12), (123_457, 99)])
    def test_row_norms_match_linalg_norm(self, n_samples, seed):
        n = np.random.default_rng(seed).normal(size=(n_samples, 4))
        assert np.array_equal(_row_norms(n), np.linalg.norm(n, axis=1))

    @pytest.mark.parametrize("n_samples", [123_457, 20_000, 7])
    def test_angular_check_streams_one_draw(self, monkeypatch, n_samples):
        # the blocks the check draws, joined, are one (n_samples, 4) draw bit
        # for bit, signs included, with a partial last block where one falls
        blocks = []

        def spy(n):
            blocks.append(n.copy())
            return _row_norms(n)

        monkeypatch.setattr(loops, "_row_norms", spy)
        symmetric_integration_check(n_samples, seed=99)
        assert [len(b) for b in blocks[:-1]] == [loops._BLOCK] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= loops._BLOCK
        one = np.random.default_rng(99).normal(size=(n_samples, 4))
        assert np.array_equal(np.concatenate(blocks).view(np.uint64), one.view(np.uint64))

    def test_angular_check_matches_exact_moments(self):
        # oracle-verify's two z rows against z from error-free moments of the same draws
        shipped = symmetric_integration_check()
        truth = symmetric_moments_truth(200_000, 7)
        for key in ("max_offdiag_z", "max_diag_z"):
            error = abs(mpmath.mpf(shipped[key]) - truth[key])
            print(f"{key}: shipped {shipped[key]!r}, error {mpmath.nstr(error, 3)}")
            assert error <= 1e-12

    def test_angular_check_memory(self):
        # one (200,000, 4) draw alone is 6.4 MB; the streamed blocks stay well below
        tracemalloc.start()
        try:
            symmetric_integration_check()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2e6

    def test_angular_second_moments_isotropic(self):
        out = symmetric_integration_check(n_samples=100_000, seed=11)
        # z-scores of <l^mu l^nu> - delta^{mu nu} l^2 / 4 on the 3-sphere
        assert out["max_offdiag_z"] < 5.0
        assert out["max_diag_z"] < 5.0
