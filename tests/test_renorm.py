"""One-loop layer: self-energy, vertex, polarization, fits, counterterms."""

import os
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import truth
from hypothesis import given, settings
from hypothesis import strategies as st

from dipole_loop import cli, renorm
from dipole_loop.core import AtomPair, contractions, dipole_from_moment, gamma_sq_dot
from dipole_loop.errors import FitError, KinematicDomainError, QuadratureError
from dipole_loop.loops import PREFACTOR, MasterIntegralKind, RegScheme
from dipole_loop.renorm import (
    DivergenceFit,
    counterterm_report,
    divergence_fit,
    photon_polarization,
    self_energy,
    vertex_one_loop,
    wavefunction_Z,
)

SYM = AtomPair(m1=1.0, m2=1.0)
SPLIT = AtomPair(m1=1.0, m2=0.95)
REG = RegScheme(Lambda=100.0)
LAM_GRID = np.geomspace(10.0, 1000.0, 12)
# log-only fits need more cutoff headroom before the 1/Lambda^2 tails
# drop under the acceptance threshold
HIGH_GRID = np.geomspace(100.0, 10000.0, 12)


def gamma_for(atoms, d=0.01):
    return dipole_from_moment(np.array([d, 0.0, 0.0]), atoms)


def onshell_scan(atoms, gamma, attr, grid=LAM_GRID):
    vals = []
    for lam in grid:
        res = self_energy(1, -atoms.m1**2, atoms, gamma, RegScheme(Lambda=lam))
        vals.append(getattr(res, attr))
    return np.array(vals)


class TestSelfEnergyScalar:
    def test_onshell_divergence_structure(self):
        # Sigma^I on shell, equal masses: Lambda^2 - (2/3) M^2 ln - (1/9) M^2
        gamma = gamma_for(SYM)
        gsq = contractions(gamma)["gamma_sq"]
        vals = onshell_scan(SYM, gamma, "sigma_I") / (gsq * PREFACTOR)
        fit = divergence_fit(vals, LAM_GRID, SYM.M2)
        assert fit.accepted
        one, c_log, c_const = fit.normalized()
        assert one == pytest.approx(1.0, abs=1e-12)
        assert c_log == pytest.approx(-2.0 / 3.0, abs=1e-2)
        assert c_const == pytest.approx(-1.0 / 9.0, abs=1e-2)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_scales_with_gamma_squared(self, scale):
        base = self_energy(1, -1.0, SYM, gamma_for(SYM), REG)
        scaled = self_energy(1, -1.0, SYM, gamma_for(SYM, d=0.01 * scale), REG)
        assert scaled.sigma_I == pytest.approx(scale**2 * base.sigma_I, rel=1e-12)
        assert scaled.sigma_II == pytest.approx(scale**2 * base.sigma_II, rel=1e-12)

    def test_subtraction_vanishes_on_shell(self):
        res = self_energy(2, -SPLIT.m2**2, SPLIT, gamma_for(SPLIT), REG)
        assert res.total - res.on_shell_value == pytest.approx(0.0, abs=1e-18)

    def test_exact_equals_expansion_at_equal_masses(self):
        gamma = gamma_for(SYM)
        p_sq = -1.0 + 5e-4
        a = self_energy(1, p_sq, SYM, gamma, REG, path="expansion")
        b = self_energy(1, p_sq, SYM, gamma, REG, path="exact")
        assert a.total == pytest.approx(b.total, rel=1e-9)

    def test_splitting_expansion_converges(self):
        # order 1 in the mass splitting lands closer to the exact path
        gamma = gamma_for(SPLIT)
        s = 1e-4
        p_sq = s - SPLIT.m2**2
        exact = self_energy(2, p_sq, SPLIT, gamma, REG, path="exact").sigma_I
        err0 = abs(self_energy(2, p_sq, SPLIT, gamma, REG, b_order=0).sigma_I - exact)
        err1 = abs(self_energy(2, p_sq, SPLIT, gamma, REG, b_order=1).sigma_I - exact)
        assert err1 < err0
        assert err1 < 1e-2 * abs(SPLIT.b) * abs(exact)

    def test_validation(self):
        gamma = gamma_for(SYM)
        with pytest.raises(ValueError, match=r"^level must be 1 or 2, got 3$"):  # AtomPair.mass' text
            self_energy(3, -1.0, SYM, gamma, REG)
        with pytest.raises(ValueError):
            self_energy(1, -1.0, SYM, gamma, REG, path="resummed")
        with pytest.raises(ValueError):
            self_energy(1, -1.0, SYM, gamma, REG, b_order=2)


class TestSelfEnergyDomain:
    def test_exact_heavier_onshell_raises(self):
        # the heavier level on shell sits past the decay threshold
        with pytest.raises(KinematicDomainError, match="decay threshold"):
            self_energy(1, -SPLIT.m1**2, SPLIT, gamma_for(SPLIT), REG, path="exact")

    def test_exact_heavier_offshell_has_nan_reference(self):
        res = self_energy(1, -SPLIT.m2**2 + 1e-3, SPLIT, gamma_for(SPLIT), REG, path="exact")
        assert np.isfinite(res.total)
        assert np.isnan(res.on_shell_value)

    def test_expansion_negative_s_raises(self):
        with pytest.raises(KinematicDomainError, match="branch point"):
            self_energy(1, -SPLIT.m1**2 - 1e-3, SPLIT, gamma_for(SPLIT), REG)


# (path, level, b_order, p^2 offset from -m_level^2 at s = 0): the exact
# path's heavier level 1 stays above its decay threshold -m2^2
ARRAY_CASES = [
    ("expansion", 1, 0, 0.0),
    ("expansion", 2, 0, 0.0),
    ("expansion", 1, 1, 0.0),
    ("expansion", 2, 1, 0.0),
    ("exact", 1, 0, SPLIT.m1**2 - SPLIT.m2**2),
    ("exact", 2, 0, 0.0),
]
FIELDS = ("sigma_I", "sigma_II_coeff", "sigma_II", "total")


def sweep_points(level, shift):
    s = np.linspace(0.0, 1e-3 * SPLIT.M2, 9)
    return s - SPLIT.mass(level) ** 2 + shift


class TestSelfEnergyArray:
    REL = 1e-13

    @pytest.mark.parametrize("path, level, b_order, shift", ARRAY_CASES)
    def test_array_matches_scalar_calls(self, path, level, b_order, shift):
        gamma = gamma_for(SPLIT)
        p_sq = sweep_points(level, shift)
        batch = self_energy(level, p_sq, SPLIT, gamma, REG, path=path, b_order=b_order)
        for i, point in enumerate(p_sq):
            one = self_energy(level, float(point), SPLIT, gamma, REG, path=path, b_order=b_order)
            for name in FIELDS:
                assert getattr(batch, name)[i] == pytest.approx(getattr(one, name), rel=self.REL, abs=0.0)
            assert batch.on_shell_value == pytest.approx(one.on_shell_value, rel=self.REL, abs=0.0, nan_ok=True)

    @pytest.mark.parametrize("path, level, b_order, shift", ARRAY_CASES)
    def test_shapes(self, path, level, b_order, shift):
        p_sq = sweep_points(level, shift)
        grid = self_energy(level, p_sq.reshape(3, 3), SPLIT, gamma_for(SPLIT), REG, path=path, b_order=b_order)
        flat = self_energy(level, p_sq, SPLIT, gamma_for(SPLIT), REG, path=path, b_order=b_order)
        for name in FIELDS:
            assert getattr(grid, name).shape == (3, 3)
            np.testing.assert_array_equal(getattr(grid, name).reshape(-1), getattr(flat, name))
        one = self_energy(level, float(p_sq[1]), SPLIT, gamma_for(SPLIT), REG, path=path, b_order=b_order)
        assert all(np.ndim(getattr(one, name)) == 0 for name in FIELDS + ("on_shell_value",))
        assert all(isinstance(getattr(one, name), float) for name in FIELDS + ("on_shell_value",))

    @pytest.mark.parametrize("path, level, b_order", [
        ("expansion", 1, 0), ("expansion", 2, 0), ("expansion", 1, 1), ("expansion", 2, 1), ("exact", 2, 0),
    ])
    def test_subtraction_exactly_zero_on_shell(self, path, level, b_order):
        res = self_energy(level, sweep_points(level, 0.0), SPLIT, gamma_for(SPLIT), REG,
                          path=path, b_order=b_order)
        subtracted = res.total - res.on_shell_value
        assert subtracted[0] == 0.0
        assert np.all(subtracted[1:] != 0.0)

    def test_equal_offsets_share_one_row(self):
        # two equal rows of one matrix product need not round alike, so
        # the on-shell point and the reference must be one row
        widths = []

        def f(x, offsets):
            widths.append(offsets.size)
            return np.stack([np.exp(-offsets * x), x * np.exp(-offsets * x)])

        ints = renorm._integrate_offsets(f, np.array([0.5, 0.0, 0.5, 0.25, 0.0]), 1e-12)
        assert set(widths) == {3}
        assert ints.shape == (2, 5)
        np.testing.assert_array_equal(ints[:, [0, 1]], ints[:, [2, 4]])
        assert ints[0, 1] == pytest.approx(1.0, rel=1e-14)

    def test_exact_heavier_reference_is_nan(self):
        res = self_energy(1, sweep_points(1, SPLIT.m1**2 - SPLIT.m2**2), SPLIT, gamma_for(SPLIT), REG,
                          path="exact")
        assert np.all(np.isfinite(res.total))
        assert np.isnan(res.on_shell_value)

    def test_domain_errors_name_the_lowest_value(self):
        gamma = gamma_for(SPLIT)
        low = -SPLIT.m1**2 - 2e-3
        with pytest.raises(KinematicDomainError, match="branch point") as err:
            self_energy(1, np.array([-SPLIT.m1**2, low, -SPLIT.m1**2 - 1e-3]), SPLIT, gamma, REG)
        assert f"{low + SPLIT.m1**2}" in str(err.value)
        low = -SPLIT.m2**2 - 2e-3
        with pytest.raises(KinematicDomainError, match="decay threshold") as err:
            self_energy(1, np.array([-SPLIT.m2**2, low, -SPLIT.m2**2 - 1e-3]), SPLIT, gamma, REG,
                        path="exact")
        assert f"p^2 = {low} " in str(err.value)


class TestSelfEnergyTensor:
    def test_onshell_coefficient_structure(self):
        # coefficient of gamma^2_{tau lam} p^tau p^lam on shell:
        # 4 pref [(1/3) ln - 1/9] per M^0
        vals = onshell_scan(SYM, gamma_for(SYM), "sigma_II_coeff", grid=HIGH_GRID)
        fit = divergence_fit(vals, HIGH_GRID, SYM.M2, model="log_const")
        assert fit.accepted
        assert fit.c_log / PREFACTOR == pytest.approx(4.0 / 3.0, abs=2e-2)
        assert fit.c_const / PREFACTOR == pytest.approx(-4.0 / 9.0, abs=2e-2)
        assert fit.c_log / fit.c_const == pytest.approx(-3.0, abs=0.1)

    def test_rest_frame_contraction(self):
        # at p = (m, 0, 0, 0) only gamma^2_{00} m^2 survives
        gamma = gamma_for(SYM)
        res = self_energy(1, -1.0, SYM, gamma, REG)
        t00 = contractions(gamma)["gamma_sq_tensor"][0, 0]
        assert res.sigma_II == pytest.approx(res.sigma_II_coeff * t00 * SYM.m1**2, rel=1e-12)


# level 1 of SPLIT on its mass shell, boosted along x to |p| = 0.3
BOOSTED = np.array([np.sqrt(0.3**2 + SPLIT.m1**2), 0.3, 0.0, 0.0])


def level1_on_shell(gamma):
    """Delta m^2 = Sigma(-m^2) of level 1, tensor part contracted at rest."""
    return self_energy(1, -SPLIT.m1**2, SPLIT, gamma, REG)


class TestFixedRule:
    def test_sub_epsilon_tol_refused_before_any_call(self):
        calls = []

        def integrand(x):
            calls.append(None)
            return x

        with pytest.raises(QuadratureError, match=r"^Feynman-parameter rule .*requested 1\.00e-18"):
            renorm._fixed_rule(integrand, 1e-18)
        assert calls == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rule_refused_at_once(self, bad):
        calls = []

        def integrand(x):
            calls.append(None)
            return np.vstack([x, np.full_like(x, bad)])

        with pytest.raises(QuadratureError, match=rf"^Feynman-parameter rule value is {bad} at 32 nodes"):
            renorm._fixed_rule(integrand, 1e-10)
        assert len(calls) == 1


# every rule size _fixed_rule can reach
RULE_SIZES = [32 << k for k in range(6)]


class TestRuleTable:
    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_rule_matches_installed_leggauss(self, n):
        # the table was written by numpy's leggauss; another numpy may round
        # a node or weight differently, so a few ulp are allowed
        from numpy.polynomial.legendre import leggauss

        stored = renorm._LEGGAUSS[:, n - 32:2 * n - 32]
        ref = np.stack(leggauss(n))
        assert np.all(np.abs(stored - ref) <= 4 * np.spacing(np.abs(ref)))

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_rule_integrates_legendre_polynomials(self, n):
        # sum_i w_i P_k(t_i) = 2 delta_k0 for every k <= 2n - 1, with P_k by
        # Bonnet's recurrence, so no numpy rule is consulted
        t, w = renorm._LEGGAUSS[:, n - 32:2 * n - 32]
        prev, cur = np.ones_like(t), t.copy()
        sums = [w @ prev, w @ cur]
        for k in range(1, 2 * n - 1):
            prev, cur = cur, ((2 * k + 1) * t * cur - k * prev) / (k + 1)
            sums.append(w @ cur)
        sums[0] -= 2.0
        assert len(sums) == 2 * n
        assert np.max(np.abs(sums)) <= 16.0 * np.sqrt(n) * np.finfo(float).eps

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_graded_rule_bits(self, n):
        # the stored rule n mapped by t = (x + 1)/2, w/2, then u = t^2, w = 2 t w,
        # bit for bit; the file is read here, not through renorm
        x, v = np.load(os.path.join(os.path.dirname(renorm.__file__), "_leggauss.npy"))[:, n - 32:2 * n - 32]
        t, v = 0.5 * (x + 1.0), 0.5 * v
        # graded towards 0, the merged rule returns the map's bytes unchanged
        u, w = renorm._rule(n, 0.0)
        assert u.tobytes() == (t * t).tobytes() and w.tobytes() == (2.0 * t * v).tobytes()

    def test_table_read_only(self):
        assert renorm._LEGGAUSS.shape == (2, sum(RULE_SIZES))
        assert not renorm._LEGGAUSS.flags.writeable
        for n in RULE_SIZES:
            for a in renorm._rule(n, 0.0):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0.0

    @pytest.mark.parametrize("at", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("n", [32, 1024])
    def test_rule_built_once(self, n, at):
        # a repeated call returns the arrays built by the first, read-only
        x, w = renorm._rule(n, at)
        again = renorm._rule(n, at)
        assert again[0] is x and again[1] is w
        assert x.shape == w.shape == ((1 if at in (0.0, 1.0) else 2) * n,)
        assert not x.flags.writeable and not w.flags.writeable


class TestMassShiftAndZ:
    def test_mass_shift_composition(self):
        out = level1_on_shell(gamma_for(SPLIT))
        assert out.total == pytest.approx(out.sigma_I + out.sigma_II, rel=1e-12)
        assert out.total == out.on_shell_value  # the point shares the reference's row

    def test_tensor_part_tracks_momentum(self):
        # sigma_II is the coefficient contracted at rest; a dipole along y is
        # not invariant under boosts along x, so the contraction with the
        # boosted momentum moves with |p|
        gamma = dipole_from_moment(np.array([0.0, 0.01, 0.0]), SPLIT)
        rest = level1_on_shell(gamma)
        assert rest.sigma_II == rest.sigma_II_coeff * gamma_sq_dot(gamma, np.array([SPLIT.m1, 0.0, 0.0, 0.0]))
        moving = rest.sigma_II_coeff * gamma_sq_dot(gamma, BOOSTED)
        assert moving != pytest.approx(rest.sigma_II, rel=1e-3)

    def test_x_dipole_onshell_family_invariant(self):
        # for a dipole along x the contraction p^tau p^lam gamma^2 is
        # E^2 - p_x^2 = m^2 on the x-boosted mass shell, an exact identity
        gamma = gamma_for(SPLIT)
        rest = level1_on_shell(gamma)
        moving = rest.sigma_II_coeff * gamma_sq_dot(gamma, BOOSTED)
        assert moving == pytest.approx(rest.sigma_II, rel=1e-12)

    def test_z_slope_values(self):
        out = wavefunction_Z(1, SYM, gamma_for(SYM), REG)
        assert out["curvature_residual"] <= 1e-3
        # tensor slope -(2/3) pref / M^2 for Lambda >> M
        assert out["f_tensor_coeff"] == pytest.approx(-(2.0 / 3.0) * PREFACTOR / SYM.M2, rel=5e-3)
        assert out["f_scalar"] != 0.0

    def test_z_slopes_pinned_to_mpmath_fit(self):
        # The default masses at Lambda = 100: Sigma(s) - Sigma(-m^2) from the
        # closed forms, integrated by 30-digit mpmath (no Feynman-parameter
        # rule, and Lambda^2 cancels far below the bound), then fitted through
        # the origin on nine offsets s = k/8 * 1e-3 M^2, written out here. The
        # slopes stay within 1e-7 relative, set before measuring; a grid of
        # ten offsets moves f_scalar by 4.9e-7 and f_tensor_coeff by 4.6e-6.
        gamma = gamma_for(SPLIT)
        out = wavefunction_Z(1, SPLIT, gamma, REG)
        with mpmath.workdps(30):
            m_sq, lam_sq = mpmath.mpf(SPLIT.M2), mpmath.mpf(REG.Lambda) ** 2

            def i_a(a):
                return truth.master_integral(MasterIntegralKind.I_A, a, lam_sq)

            def x2_i_e(a, x):
                return x * x * truth.master_integral(MasterIntegralKind.I_E, a, lam_sq)

            s_grid = [k * m_sq / 8000 for k in range(1, 9)]  # s = 0 adds nothing to the fit

            def slope(f):
                dsigma = [mpmath.quad(lambda x: f(m_sq * x * x + s * x * (1 - x), x) - f(m_sq * x * x, x), [0, 1])
                          for s in s_grid]
                return sum(s * d for s, d in zip(s_grid, dsigma)) / sum(s * s for s in s_grid)

            f_scalar = contractions(gamma)["gamma_sq"] * float(slope(lambda a, x: i_a(a)))
            f_tensor = 4.0 * float(slope(x2_i_e))
        assert out["f_scalar"] == pytest.approx(f_scalar, rel=1e-7, abs=0.0)
        assert out["f_tensor_coeff"] == pytest.approx(f_tensor, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("b_order", [0, 1])
    @pytest.mark.parametrize("level", [0, 3])
    def test_z_refuses_unknown_level(self, level, b_order):
        # the level goes through AtomPair.mass; at first order in b an unknown
        # level used to take level 2's sign of the mass splitting
        with pytest.raises(ValueError, match=f"level must be 1 or 2, got {level}"):
            wavefunction_Z(level, SPLIT, gamma_for(SPLIT), REG, b_order=b_order)

    @pytest.mark.parametrize("b_order", [0, 1])
    def test_z_fits_its_self_energy(self, b_order):
        # the slopes are fitted to the returned self_energy, whose first
        # offset is the mass shell and shares the on-shell reference's row
        out = wavefunction_Z(2, SPLIT, gamma_for(SPLIT), REG, b_order=b_order)
        sigma = out["self_energy"]
        assert sigma.total[0] == sigma.on_shell_value
        s = out["s_grid"]
        assert out["f_scalar"] == float(s @ (sigma.sigma_I - sigma.sigma_I[0])) / float(s @ s)
        assert out["f_tensor_coeff"] == float(s @ (sigma.sigma_II_coeff - sigma.sigma_II_coeff[0])) / float(s @ s)

    @pytest.mark.parametrize("b_order", [0, 1])
    def test_z_is_one_rule(self, monkeypatch, b_order):
        calls = []
        rule = renorm._fixed_rule

        def counting(*args, **kwargs):
            calls.append(None)
            return rule(*args, **kwargs)

        monkeypatch.setattr(renorm, "_fixed_rule", counting)
        wavefunction_Z(2, SPLIT, gamma_for(SPLIT), REG, b_order=b_order)
        assert len(calls) == 1

    def test_z_curvature_is_fit_error(self):
        # the fixed s grid is not small against Lambda^2 at Lambda = 0.1, nor
        # against the mass splitting at m2 = 0.6 with the first-order expansion
        for atoms, reg, b_order in ((SYM, RegScheme(Lambda=0.1), 0), (AtomPair(m1=1.0, m2=0.6), REG, 1)):
            with pytest.raises(FitError, match=r"curvature residual .* s grid \[0, 1e-03 M\^2\] is not small"):
                wavefunction_Z(1, atoms, gamma_for(atoms), reg, b_order=b_order)

    @pytest.mark.parametrize("lam", [2e5, 1e7])
    def test_z_lost_to_rounding_is_fit_error(self, lam):
        # Sigma grows as Lambda^2 while its spread over the s grid does not
        with pytest.raises(FitError, match="lost to rounding"):
            wavefunction_Z(1, SYM, gamma_for(SYM), RegScheme(Lambda=lam))


class TestVertex:
    def setup_method(self):
        self.gamma = gamma_for(SYM)
        self.p_prime = np.array([1.0, 0.0, 0.0, 0.0])
        self.q = np.array([0.25, 0.25, 0.0, 0.0])  # lightlike

    @pytest.mark.parametrize("which", ["p_prime", "q", "p_prime and q"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_momentum_refused(self, which, bad):
        moms = {"p_prime": self.p_prime.copy(), "q": self.q.copy()}
        for name in which.split(" and "):
            moms[name][0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            vertex_one_loop(moms["p_prime"], moms["q"], SYM, self.gamma, REG)

    def test_contractions_computed_once(self, monkeypatch):
        # the five contractions per call read one cached value of the tensor
        cached = type(self.gamma).__dict__["_contractions"]
        calls = []

        def counting(gamma):
            calls.append(None)
            return compute(gamma)

        compute = cached.func
        monkeypatch.setattr(cached, "func", counting)
        gamma = gamma_for(SYM)
        for _ in range(3):
            vertex_one_loop(self.p_prime, self.q, SYM, gamma, REG)
        assert len(calls) == 1

    def test_divergent_coefficient(self):
        v = vertex_one_loop(self.p_prime, self.q, SYM, self.gamma, REG)
        L = np.log(REG.Lambda**2 / SYM.M2)
        assert v["J"] == pytest.approx((L - 0.5) / (32.0 * np.pi**2), rel=1e-3)
        gsq = contractions(self.gamma)["gamma_sq"]
        assert v["Gamma_I_coeff"] == pytest.approx(-4.0 * gsq * v["J"], rel=1e-12)

    def test_moment_ratios(self):
        v = vertex_one_loop(self.p_prime, self.q, SYM, self.gamma, REG)
        assert v["K1"] / v["K0"] == pytest.approx(0.5, rel=1e-9)
        assert v["K2"] / v["K0"] == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_z1_composition(self):
        v = vertex_one_loop(self.p_prime, self.q, SYM, self.gamma, REG)
        gsq = contractions(self.gamma)["gamma_sq"]
        assert v["Z1_inv"] == pytest.approx(
            1.0 - 2.0 * gsq * v["J"] - 8.0 * v["tensor_contracted"], rel=1e-12
        )

    def test_timelike_beyond_threshold_raises(self):
        q = np.array([3.0, 0.0, 0.0, 0.0])
        p_prime = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(KinematicDomainError):
            vertex_one_loop(p_prime, q, SYM, self.gamma, REG)


class TestPolarization:
    def test_p_coefficient_closed_form(self):
        # equal masses, q^2 = 0: P = I_E(M^2) exactly
        from dipole_loop.loops import MasterIntegralKind, master_integral

        q = np.array([0.2, 0.2, 0.0, 0.0])
        out = photon_polarization(q, SYM, gamma_for(SYM), REG)
        assert out["P_coeff"] == pytest.approx(
            master_integral(MasterIntegralKind.I_E, SYM.M2, REG.Lambda), rel=1e-9
        )

    def test_divergence_ratio(self):
        # ln-to-constant structure of P(q^2 = 0): [ln - 1]
        q = np.array([0.0, 0.3, 0.0, 0.0])
        vals = np.array(
            [photon_polarization(q, SYM, gamma_for(SYM), RegScheme(Lambda=l))["P_coeff"]
             for l in HIGH_GRID]
        )
        fit = divergence_fit(vals, HIGH_GRID, SYM.M2, model="log_const")
        assert fit.accepted
        assert fit.c_const / fit.c_log == pytest.approx(-1.0, abs=2e-2)

    @given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_transversality(self, qc):
        q = np.array(qc)
        q[1] += 3.0  # keep q^2 > 0, away from thresholds
        out = photon_polarization(q, SPLIT, gamma_for(SPLIT), REG)
        assert out["transversality"] < 1e-13

    def test_zero_momentum(self):
        out = photon_polarization(np.zeros(4), SPLIT, gamma_for(SPLIT), REG)
        assert np.all(out["Pi"] == 0.0)

    def test_zero_momentum_coefficient(self):
        # P(q^2 = 0) = int dx I_E(M^2(x)) > 0: q = 0 is no special case
        gamma = gamma_for(SPLIT)
        at_zero = photon_polarization(np.zeros(4), SPLIT, gamma, REG)["P_coeff"]
        near = photon_polarization(np.array([0.0, 1e-9, 0.0, 0.0]), SPLIT, gamma, REG)["P_coeff"]
        assert at_zero > 0
        assert at_zero == pytest.approx(near, rel=1e-12, abs=0.0)

    def test_pair_threshold(self):
        q = np.array([2.5, 0.0, 0.0, 0.0])  # q^2 = -6.25 < -(m1+m2)^2
        with pytest.raises(KinematicDomainError, match="threshold"):
            photon_polarization(q, SPLIT, gamma_for(SPLIT), REG)


class TestQuadratic:
    """renorm._quadratic, the one owner of the vertex's beta(y) and the polarization's M^2(x)."""

    @staticmethod
    def coefficients(cfg, which):
        """(c0, c1, c2) of beta(y) or M^2(x) as the loop commands build them from a config."""
        atoms = cfg["atoms"]
        q = np.array([cfg[f"{which}.q{mu}"] for mu in range(4)])
        q_sq = float(-q[0] ** 2 + q[1] ** 2 + q[2] ** 2 + q[3] ** 2)
        if which == "vertex":
            m2_sq, delta = (atoms.M2, 0.0) if cfg["vertex.symmetric_masses"] else (atoms.m2**2, atoms.delta)
            return (m2_sq, delta), (q_sq, -delta), (-q_sq,)
        return (atoms.m1**2,), (atoms.m2**2, -atoms.m1**2, q_sq), (-q_sq,)

    @pytest.mark.parametrize("which", ["vertex", "polarization"])
    def test_interior_minimum_is_exact(self, workloads, which):
        # the edge-kinematics momenta are timelike, with the minimum inside:
        # c0 - c1^2 / (4 c2) and -c1 / (2 c2), each rounded once
        cfg = cli._physics(cli.parse_config(workloads.config_text(workloads.generate("edge-kinematics", 0))))
        coeffs = self.coefficients(cfg, which)
        values, minimum, where = renorm._quadratic(*coeffs)
        c0, c1, c2 = (sum(map(Fraction, c)) for c in coeffs)
        assert 0.0 < where < 1.0
        assert (minimum, where) == (float(c0 - c1 * c1 / (4 * c2)), float(-c1 / (2 * c2)))
        assert values(np.array([where]))[0] == minimum

    def test_endpoint_minimum_is_exact(self):
        # M^2(x = 1) = m1^2 + (m2^2 - m1^2 + q^2) - q^2 is m2^2, subnormal here;
        # summed in double it cancels to -2.78e-17 at the default spacelike q
        cfg = cli._physics(cli.parse_config("atoms.m2 = 1e-160\n"))
        _, minimum, where = renorm._quadratic(*self.coefficients(cfg, "polarization"))
        assert (minimum, where) == (cfg["atoms"].m2 ** 2, 1.0)
        assert minimum > 0.0

    @pytest.mark.parametrize("coeffs", [
        pytest.param(((0.95, 0.0), (np.inf, -0.0), (-np.inf,)), id="inf-minus-inf"),
        pytest.param(((0.95, 0.0), (np.nan, -0.0), (np.nan,)), id="nan"),
        # finite coefficients whose exact value at t = 1 passes the largest double on the way
        pytest.param(((1e308, 6.9e307), (1e308, -6.9e307), (-1e308,)), id="intermediate-overflow"),
    ])
    def test_non_finite_sums_refused(self, coeffs):
        # a q^2 that overflows a double is a domain error, not fsum's ValueError or OverflowError
        with pytest.raises(KinematicDomainError, match="do not sum to finite doubles"):
            renorm._quadratic(*coeffs)


class TestDivergenceFit:
    def test_synthetic_recovery(self):
        lams = np.geomspace(20.0, 4000.0, 15)
        M_sq = 2.0
        vals = 3.0 * lams**2 + 2.0 * M_sq * np.log(lams**2 / M_sq) - 7.0 * M_sq
        fit = divergence_fit(vals, lams, M_sq)
        assert fit.accepted is True  # a Python bool, not numpy's
        assert fit.c_quad == pytest.approx(3.0, rel=1e-10)
        assert fit.c_log == pytest.approx(2.0, rel=1e-8)
        assert fit.c_const == pytest.approx(-7.0, rel=1e-8)
        assert fit.normalized() == pytest.approx((1.0, 2.0 / 3.0, -7.0 / 3.0), rel=1e-8)

    def test_curved_data_rejected(self):
        # a Lambda^3 term the basis cannot absorb leaves a residual far above 1e-4
        lams = np.geomspace(20.0, 4000.0, 15)
        fit = divergence_fit(3.0 * lams**2 + 1e-2 * lams**3, lams, 2.0)
        assert fit.fit_residual > 1e-4 * abs(fit.c_quad) * lams.max() ** 2
        assert fit.accepted is False

    def test_log_const_model(self):
        lams = np.geomspace(20.0, 4000.0, 15)
        vals = 5.0 * np.log(lams**2 / 1.0) + 4.0
        fit = divergence_fit(vals, lams, 1.0, model="log_const")
        assert fit.c_quad == 0.0
        assert fit.c_log == pytest.approx(5.0, rel=1e-10)
        assert fit.c_const == pytest.approx(4.0, rel=1e-10)

    def test_grid_rejection(self):
        with pytest.raises(ValueError, match="rejected grid"):
            divergence_fit(np.ones(5), np.linspace(100, 150, 5), 1.0)  # narrow span
        with pytest.raises(ValueError, match="rejected grid"):
            divergence_fit(np.ones(5), np.geomspace(2, 4000, 5), 1.0)  # starts below 10 M
        # six decades on five points: the solve's singular values give 1.09e14
        with pytest.raises(ValueError, match="rejected grid: design matrix condition number 1.09e"):
            divergence_fit(np.ones(5), np.geomspace(10, 1e7, 5), 1.0)
        divergence_fit(np.ones(8), np.geomspace(10, 1e5, 8), 1.0)  # about 1e10, accepted
        # no more cutoffs than coefficients: the residual would vanish whatever the data
        with pytest.raises(ValueError, match="^rejected grid: 2 cutoffs cannot overdetermine the 3 coefficients"):
            divergence_fit([3e2, 5e6], [10, 1000], 1.0)
        with pytest.raises(ValueError, match="^rejected grid: 3 cutoffs cannot overdetermine the 3 coefficients"):
            divergence_fit(np.ones(3), np.geomspace(10, 1e3, 3), 1.0)
        with pytest.raises(ValueError, match="^rejected grid: 2 cutoffs cannot overdetermine the 2 coefficients"):
            divergence_fit([3e2, 5e6], [10, 1000], 1.0, model="log_const")
        assert divergence_fit(np.geomspace(1, 5, 3), np.geomspace(10, 1e3, 3), 1.0, model="log_const").model == "log_const"
        for bad in (np.nan, np.inf, -np.inf, 0.0, -1.0):
            lams = np.geomspace(10, 1e5, 8)
            lams[3] = bad
            with pytest.raises(ValueError, match="rejected grid: need min"):
                divergence_fit(np.ones(8), lams, 1.0)

    @pytest.mark.parametrize("model", ["quad_log_const", "log_const"])
    def test_vanishing_lead_is_fit_error(self, model):
        fit = DivergenceFit(c_quad=0.0, c_log=0.0, c_const=1.0, fit_residual=0.0, model=model)
        with pytest.raises(FitError, match="leading coefficient"):
            fit.normalized()

    def test_shape_and_model_validation(self):
        lams = np.geomspace(20.0, 4000.0, 6)
        with pytest.raises(ValueError):
            divergence_fit(np.ones(5), lams, 1.0)
        with pytest.raises(ValueError):
            divergence_fit(np.ones(6), lams, 1.0, model="cubic")


@pytest.fixture(scope="module")
def report():
    return counterterm_report(SPLIT, gamma_for(SPLIT), REG)


@pytest.fixture(scope="module")
def table(report):
    """quantity -> (value, operator_class) from the report's rows."""
    return {name: (value, cls) for name, value, cls in report.rows}


class TestCounterterms:

    def test_prefactor_ratio(self, report, table):
        assert report.prefactor_measured == pytest.approx(1.0 / (16.0 * np.pi**2), rel=1e-9)
        assert report.prefactor_ratio_to_printed == pytest.approx(np.pi / 2.0, rel=1e-9)
        assert table["prefactor.measured"] == (report.prefactor_measured, "report")
        assert table["prefactor.ratio_to_printed"] == (report.prefactor_ratio_to_printed, "report")

    def test_prefactor_needs_no_dipole(self, report):
        # the fit reads Sigma^I / gamma^2 as the gamma-free x-integral, so a
        # zero dipole measures the same prefactor
        zero = counterterm_report(SPLIT, gamma_for(SPLIT, d=0.0), REG)
        assert zero.prefactor_measured == report.prefactor_measured
        assert zero.prefactor_ratio_to_printed == report.prefactor_ratio_to_printed

    def test_one_self_energy_call_per_level(self, monkeypatch):
        # each level's mass shift is the on-shell point of its Z fit's self-energy
        levels = []
        compute = renorm.self_energy

        def counting(level, *args, **kwargs):
            levels.append(level)
            return compute(level, *args, **kwargs)

        monkeypatch.setattr(renorm, "self_energy", counting)
        counterterm_report(SPLIT, gamma_for(SPLIT), REG)
        assert levels == [1, 2]

    def test_zero_dipole_still_fits(self, table):
        # the scalar part is identically zero, which loses nothing to rounding;
        # the tensor coefficient carries no gamma, so it does not move
        zero = {name: value for name, value, _ in counterterm_report(SPLIT, gamma_for(SPLIT, d=0.0), REG).rows}
        for level in (1, 2):
            assert zero[f"delta_m_sq.{level}.total"] == 0.0
            assert zero[f"Z_phi_inv.{level}.scalar"] == 1.0
            assert zero[f"Z_phi_inv.{level}.tensor_coeff"] == table[f"Z_phi_inv.{level}.tensor_coeff"][0]

    def test_row_order(self, report):
        per_level = [
            "delta_m_sq.{}.total", "delta_m_sq.{}.scalar", "delta_m_sq.{}.tensor",
            "Z_phi_inv.{}.scalar", "Z_phi_inv.{}.tensor_coeff",
        ]
        assert [row[0] for row in report.rows] == [
            *(name.format(level) for level in (1, 2) for name in per_level),
            "Z1_inv.scalar", "Z1_inv.tensor_contracted", "Z1_inv.total",
            "induced.F_F", "induced.dphi_dphi",
            "prefactor.measured", "prefactor.ratio_to_printed",
        ]

    def test_operator_classes(self, table):
        assert table["delta_m_sq.1.total"][1] == "original"
        assert table["Z1_inv.total"][1] == "original"
        assert table["induced.dphi_dphi"][1] == "induced"
        assert table["induced.F_F"][1] == "induced"

    def test_induced_coefficients_positive(self, table):
        # both induced operators come from manifestly positive integrals
        assert table["induced.dphi_dphi"][0] > 0
        assert table["induced.F_F"][0] > 0

    def test_mass_shifts_negative(self, table):
        # attractive at this kinematic point: gamma_sq < 0 dominates
        assert table["delta_m_sq.1.total"][0] < 0
        assert table["delta_m_sq.2.total"][0] < 0

    @pytest.mark.parametrize("source", ["split", "default"])
    def test_z1_scalar_is_one_minus_two_gamma_sq_j(self, table, source):
        # the row halves the vertex's Gamma_I_coeff = -4 gamma^2 J, which is
        # exact, so it equals 1 - 2 gamma^2 J bit for bit
        if source == "split":
            atoms, gamma, reg, row = SPLIT, gamma_for(SPLIT), REG, table["Z1_inv.scalar"][0]
        else:
            from dipole_loop import cli
            cfg = cli._physics(cli.parse_config(""))
            atoms, gamma = cfg["atoms"], cli._gamma(cfg)
            reg = RegScheme(Lambda=cfg["regulator.lambda"], quad_tol=cfg["regulator.quad_tol"])
            rows = counterterm_report(atoms, gamma, reg, b_order=cfg["selfenergy.b_order"]).rows
            row = {name: value for name, value, _ in rows}["Z1_inv.scalar"]
        p_prime = np.array([atoms.m1, 0.0, 0.0, 0.0])
        q = np.array([0.25 * atoms.m1, 0.25 * atoms.m1, 0.0, 0.0])
        vert = vertex_one_loop(p_prime, q, atoms, gamma, reg)
        expected = 1.0 - 2.0 * contractions(gamma)["gamma_sq"] * vert["J"]
        assert row == expected and row != 1.0

    def test_mass_shift_rows_are_onshell_self_energy(self, table):
        gamma = gamma_for(SPLIT)
        for level in (1, 2):
            res = self_energy(level, -SPLIT.mass(level) ** 2, SPLIT, gamma, REG)
            assert table[f"delta_m_sq.{level}.total"][0] == res.total
            assert table[f"delta_m_sq.{level}.scalar"][0] == res.sigma_I
            assert table[f"delta_m_sq.{level}.tensor"][0] == res.sigma_II
        assert table["induced.dphi_dphi"][0] == level1_on_shell(gamma).sigma_II_coeff
