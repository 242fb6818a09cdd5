"""One-loop layer: self-energy, vertex, polarization, fits, counterterms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipole_loop import renorm
from dipole_loop.core import AtomPair, contractions, dipole_from_moment
from dipole_loop.errors import FitError, KinematicDomainError, QuadratureError
from dipole_loop.loops import PREFACTOR, RegScheme
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
        res = self_energy(1, -atoms.m1**2, None, atoms, gamma, RegScheme(Lambda=lam))
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
        base = self_energy(1, -1.0, None, SYM, gamma_for(SYM), REG)
        scaled = self_energy(1, -1.0, None, SYM, gamma_for(SYM, d=0.01 * scale), REG)
        assert scaled.sigma_I == pytest.approx(scale**2 * base.sigma_I, rel=1e-12)
        assert scaled.sigma_II == pytest.approx(scale**2 * base.sigma_II, rel=1e-12)

    def test_subtraction_vanishes_on_shell(self):
        res = self_energy(2, -SPLIT.m2**2, None, SPLIT, gamma_for(SPLIT), REG)
        assert res.total - res.on_shell_value == pytest.approx(0.0, abs=1e-18)

    def test_exact_equals_expansion_at_equal_masses(self):
        gamma = gamma_for(SYM)
        p_sq = -1.0 + 5e-4
        a = self_energy(1, p_sq, None, SYM, gamma, REG, path="expansion")
        b = self_energy(1, p_sq, None, SYM, gamma, REG, path="exact")
        assert a.total == pytest.approx(b.total, rel=1e-9)

    def test_splitting_expansion_converges(self):
        # order 1 in the mass splitting lands closer to the exact path
        gamma = gamma_for(SPLIT)
        s = 1e-4
        p_sq = s - SPLIT.m2**2
        exact = self_energy(2, p_sq, None, SPLIT, gamma, REG, path="exact").sigma_I
        err0 = abs(self_energy(2, p_sq, None, SPLIT, gamma, REG, b_order=0).sigma_I - exact)
        err1 = abs(self_energy(2, p_sq, None, SPLIT, gamma, REG, b_order=1).sigma_I - exact)
        assert err1 < err0
        assert err1 < 1e-2 * abs(SPLIT.b) * abs(exact)

    def test_validation(self):
        gamma = gamma_for(SYM)
        with pytest.raises(ValueError):
            self_energy(3, -1.0, None, SYM, gamma, REG)
        with pytest.raises(ValueError):
            self_energy(1, -1.0, None, SYM, gamma, REG, path="resummed")
        with pytest.raises(ValueError):
            self_energy(1, -1.0, None, SYM, gamma, REG, b_order=2)


class TestSelfEnergyDomain:
    def test_exact_heavier_onshell_raises(self):
        # the heavier level on shell sits past the decay threshold
        with pytest.raises(KinematicDomainError, match="decay threshold"):
            self_energy(1, -SPLIT.m1**2, None, SPLIT, gamma_for(SPLIT), REG, path="exact")

    def test_exact_heavier_offshell_has_nan_reference(self):
        res = self_energy(1, -SPLIT.m2**2 + 1e-3, None, SPLIT, gamma_for(SPLIT), REG, path="exact")
        assert np.isfinite(res.total)
        assert np.isnan(res.on_shell_value)

    def test_expansion_negative_s_raises(self):
        with pytest.raises(KinematicDomainError, match="branch point"):
            self_energy(1, -SPLIT.m1**2 - 1e-3, None, SPLIT, gamma_for(SPLIT), REG)


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
        batch = self_energy(level, p_sq, None, SPLIT, gamma, REG, path=path, b_order=b_order)
        for i, point in enumerate(p_sq):
            one = self_energy(level, float(point), None, SPLIT, gamma, REG, path=path, b_order=b_order)
            for name in FIELDS:
                assert getattr(batch, name)[i] == pytest.approx(getattr(one, name), rel=self.REL, abs=0.0)
            assert batch.on_shell_value == pytest.approx(one.on_shell_value, rel=self.REL, abs=0.0, nan_ok=True)

    @pytest.mark.parametrize("path, level, b_order, shift", ARRAY_CASES)
    def test_shapes(self, path, level, b_order, shift):
        p_sq = sweep_points(level, shift)
        grid = self_energy(level, p_sq.reshape(3, 3), None, SPLIT, gamma_for(SPLIT), REG, path=path, b_order=b_order)
        flat = self_energy(level, p_sq, None, SPLIT, gamma_for(SPLIT), REG, path=path, b_order=b_order)
        for name in FIELDS:
            assert getattr(grid, name).shape == (3, 3)
            np.testing.assert_array_equal(getattr(grid, name).reshape(-1), getattr(flat, name))
        one = self_energy(level, float(p_sq[1]), None, SPLIT, gamma_for(SPLIT), REG, path=path, b_order=b_order)
        assert all(np.ndim(getattr(one, name)) == 0 for name in FIELDS + ("on_shell_value",))
        assert all(isinstance(getattr(one, name), float) for name in FIELDS + ("on_shell_value",))

    @pytest.mark.parametrize("path, level, b_order", [
        ("expansion", 1, 0), ("expansion", 2, 0), ("expansion", 1, 1), ("expansion", 2, 1), ("exact", 2, 0),
    ])
    def test_subtraction_exactly_zero_on_shell(self, path, level, b_order):
        res = self_energy(level, sweep_points(level, 0.0), None, SPLIT, gamma_for(SPLIT), REG,
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
        res = self_energy(1, sweep_points(1, SPLIT.m1**2 - SPLIT.m2**2), None, SPLIT, gamma_for(SPLIT), REG,
                          path="exact")
        assert np.all(np.isfinite(res.total))
        assert np.isnan(res.on_shell_value)

    def test_domain_errors_name_the_lowest_value(self):
        gamma = gamma_for(SPLIT)
        low = -SPLIT.m1**2 - 2e-3
        with pytest.raises(KinematicDomainError, match="branch point") as err:
            self_energy(1, np.array([-SPLIT.m1**2, low, -SPLIT.m1**2 - 1e-3]), None, SPLIT, gamma, REG)
        assert f"{low + SPLIT.m1**2}" in str(err.value)
        low = -SPLIT.m2**2 - 2e-3
        with pytest.raises(KinematicDomainError, match="decay threshold") as err:
            self_energy(1, np.array([-SPLIT.m2**2, low, -SPLIT.m2**2 - 1e-3]), None, SPLIT, gamma, REG,
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
        res = self_energy(1, -1.0, None, SYM, gamma, REG)
        t00 = contractions(gamma)["gamma_sq_tensor"][0, 0]
        assert res.sigma_II == pytest.approx(res.sigma_II_coeff * t00 * SYM.m1**2, rel=1e-12)


# level 1 of SPLIT on its mass shell, boosted along x to |p| = 0.3
BOOSTED = np.array([np.sqrt(0.3**2 + SPLIT.m1**2), 0.3, 0.0, 0.0])


def level1_on_shell(gamma, p=None):
    """Delta m^2 = Sigma(-m^2) of level 1, tensor part contracted with p (rest frame by default)."""
    return self_energy(1, -SPLIT.m1**2, p, SPLIT, gamma, REG)


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


class TestMassShiftAndZ:
    def test_mass_shift_composition(self):
        out = level1_on_shell(gamma_for(SPLIT))
        assert out.total == pytest.approx(out.sigma_I + out.sigma_II, rel=1e-12)
        assert out.total == out.on_shell_value  # the point shares the reference's row

    def test_tensor_part_tracks_momentum(self):
        # a dipole along y is not invariant under boosts along x, so the
        # tensor part moves with |p| while the scalar part stays put
        gamma = dipole_from_moment(np.array([0.0, 0.01, 0.0]), SPLIT)
        rest = level1_on_shell(gamma)
        moving = level1_on_shell(gamma, BOOSTED)
        assert moving.sigma_I == pytest.approx(rest.sigma_I, rel=1e-12)
        assert moving.sigma_II != pytest.approx(rest.sigma_II, rel=1e-3)

    def test_x_dipole_onshell_family_invariant(self):
        # for a dipole along x the contraction p^tau p^lam gamma^2 is
        # E^2 - p_x^2 = m^2 on the x-boosted mass shell, an exact identity
        gamma = gamma_for(SPLIT)
        rest = level1_on_shell(gamma)
        moving = level1_on_shell(gamma, BOOSTED)
        assert moving.sigma_II == pytest.approx(rest.sigma_II, rel=1e-12)

    def test_z_slope_values(self):
        out = wavefunction_Z(1, SYM, gamma_for(SYM), REG)
        assert out["curvature_residual"] <= 1e-3
        # tensor slope -(2/3) pref / M^2 for Lambda >> M
        assert out["f_tensor_coeff"] == pytest.approx(-(2.0 / 3.0) * PREFACTOR / SYM.M2, rel=5e-3)
        assert out["Z_phi_inv"] != 1.0

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

    def test_z_rejects_curved_grid(self):
        with pytest.raises(FitError, match="curvature"):
            wavefunction_Z(1, SYM, gamma_for(SYM), REG, s_max_frac=0.5)

    def test_z_curvature_is_fit_error(self):
        with pytest.raises(FitError, match="curvature"):
            wavefunction_Z(1, SYM, gamma_for(SYM), REG, s_max_frac=0.5)

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
        self.p = self.p_prime - self.q

    def test_momentum_conservation_enforced(self):
        with pytest.raises(ValueError, match="conservation"):
            vertex_one_loop(self.p_prime, self.p_prime, self.q, SYM, self.gamma, REG)

    def test_divergent_coefficient(self):
        v = vertex_one_loop(self.p, self.p_prime, self.q, SYM, self.gamma, REG)
        L = np.log(REG.Lambda**2 / SYM.M2)
        assert v["J"] == pytest.approx((L - 0.5) / (32.0 * np.pi**2), rel=1e-3)
        gsq = contractions(self.gamma)["gamma_sq"]
        assert v["Gamma_I_coeff"] == pytest.approx(-4.0 * gsq * v["J"], rel=1e-12)

    def test_moment_ratios(self):
        v = vertex_one_loop(self.p, self.p_prime, self.q, SYM, self.gamma, REG)
        assert v["K1"] / v["K0"] == pytest.approx(0.5, rel=1e-9)
        assert v["K2"] / v["K0"] == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_z1_composition(self):
        v = vertex_one_loop(self.p, self.p_prime, self.q, SYM, self.gamma, REG)
        gsq = contractions(self.gamma)["gamma_sq"]
        assert v["Z1_inv"] == pytest.approx(
            1.0 - 2.0 * gsq * v["J"] - 8.0 * v["tensor_contracted"], rel=1e-12
        )

    def test_timelike_beyond_threshold_raises(self):
        q = np.array([3.0, 0.0, 0.0, 0.0])
        p_prime = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(KinematicDomainError):
            vertex_one_loop(p_prime - q, p_prime, q, SYM, self.gamma, REG)


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


class TestDivergenceFit:
    def test_synthetic_recovery(self):
        lams = np.geomspace(20.0, 4000.0, 15)
        M_sq = 2.0
        vals = 3.0 * lams**2 + 2.0 * M_sq * np.log(lams**2 / M_sq) - 7.0 * M_sq
        fit = divergence_fit(vals, lams, M_sq)
        assert fit.accepted
        assert fit.c_quad == pytest.approx(3.0, rel=1e-10)
        assert fit.c_log == pytest.approx(2.0, rel=1e-8)
        assert fit.c_const == pytest.approx(-7.0, rel=1e-8)
        assert fit.normalized() == pytest.approx((1.0, 2.0 / 3.0, -7.0 / 3.0), rel=1e-8)

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

    def test_mass_shift_rows_are_onshell_self_energy(self, table):
        gamma = gamma_for(SPLIT)
        for level in (1, 2):
            res = self_energy(level, -SPLIT.mass(level) ** 2, None, SPLIT, gamma, REG)
            assert table[f"delta_m_sq.{level}.total"][0] == res.total
            assert table[f"delta_m_sq.{level}.scalar"][0] == res.sigma_I
            assert table[f"delta_m_sq.{level}.tensor"][0] == res.sigma_II
        assert table["induced.dphi_dphi"][0] == level1_on_shell(gamma).sigma_II_coeff
