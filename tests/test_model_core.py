"""Covariant model core: tensor algebra, contractions, power counting."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from dipole_loop.core import (
    SIGNATURE,
    AtomPair,
    DipoleTensor,
    classify_renormalizability,
    contractions,
    dipole_from_moment,
    engineering_dimension,
    gamma_sq_dot,
    minkowski_dot,
)
from dipole_loop import cli
from dipole_loop.cli import C_SI, EPS0_SI, EV_SI, HBAR_SI, _SI_QUANTITY, _si_scales, parse_config
from dipole_loop.errors import ConfigError, KinematicDomainError


finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=64)

# AtomPair's refusal of a pair whose squares, or 2 M^2, are not nonzero finite doubles
MASS_RANGE = ("m1^2 and m2^2 must be nonzero and m1^2 + m2^2 = 2 M^2 finite "
              "(m >= 1.6e-162, m1^2 + m2^2 <= 1.8e308)")
# the Minkowski metric g_{mu nu}, the contraction oracles' own
METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])


def antisym(entries):
    """Build a 4x4 antisymmetric matrix from 6 upper-triangle entries."""
    m = np.zeros((4, 4))
    (m[0, 1], m[0, 2], m[0, 3], m[1, 2], m[1, 3], m[2, 3]) = entries
    return m - m.T


def boost_x(eta: float) -> np.ndarray:
    L = np.eye(4)
    L[0, 0] = L[1, 1] = np.cosh(eta)
    L[0, 1] = L[1, 0] = -np.sinh(eta)
    return L


class TestMetric:
    def test_signature(self):
        assert SIGNATURE == (-1.0, 1.0, 1.0, 1.0)
        p, q = np.array([2.0, 1.0, -0.5, 3.0]), np.array([0.25, -4.0, 2.0, 1.5])
        assert minkowski_dot(p, q) == float(p @ METRIC @ q)

    def test_minkowski_dot(self):
        p = np.array([2.0, 1.0, 0.0, 0.0])
        assert minkowski_dot(p, p) == pytest.approx(-3.0)


class TestDipoleTensor:
    def test_rejects_symmetric_part(self):
        m = np.zeros((4, 4))
        m[0, 1] = 1.0  # missing the - transpose
        with pytest.raises(ValueError, match="antisymmetric"):
            DipoleTensor(m)

    def test_components_frozen(self):
        gamma = DipoleTensor(antisym([1.0, 0, 0, 0, 0, 0]))
        with pytest.raises(ValueError):
            gamma.components[0, 1] = 2.0

    def test_electric_magnetic_split(self):
        gamma = DipoleTensor(antisym([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        assert np.array_equal(gamma.components[0, 1:], [1.0, 2.0, 3.0])
        assert np.array_equal(gamma.components[1:, 1:], antisym([0, 0, 0, 4.0, 5.0, 6.0])[1:, 1:])

    def test_dipole_from_moment(self):
        atoms = AtomPair(m1=4.0, m2=1.0)
        gamma = dipole_from_moment(np.array([0.5, 0.0, -0.25]), atoms)
        # gamma^{0i} = d_i sqrt(m1 m2)
        assert np.allclose(gamma.components[0, 1:], [1.0, 0.0, -0.5])
        assert np.allclose(gamma.components[1:, 1:], 0.0)

    def test_single_component_contraction(self):
        # one electric entry g: gamma_{mu nu} gamma^{mu nu} = -2 g^2
        gamma = DipoleTensor(antisym([3.0, 0, 0, 0, 0, 0]))
        assert contractions(gamma)["gamma_sq"] == pytest.approx(-18.0)

    @given(st.lists(finite, min_size=6, max_size=6))
    def test_contraction_oracle(self, entries):
        # brute-force index loops against the vectorized contractions
        gamma = DipoleTensor(antisym(entries))
        up = gamma.components
        g = METRIC
        scalar = 0.0
        tensor = np.zeros((4, 4))
        for mu in range(4):
            for nu in range(4):
                low = 0.0
                for a in range(4):
                    for bb in range(4):
                        low += g[mu, a] * g[nu, bb] * up[a, bb]
                scalar += low * up[mu, nu]
        for tau in range(4):
            for lam in range(4):
                acc = 0.0
                for mu in range(4):
                    mixed = sum(g[tau, nu] * up[mu, nu] for nu in range(4))
                    low = sum(g[mu, a] * g[lam, bb] * up[a, bb] for a in range(4) for bb in range(4))
                    acc += mixed * low
                tensor[tau, lam] = acc
        out = contractions(gamma)
        assert out["gamma_sq"] == pytest.approx(scalar, abs=1e-9)
        assert np.allclose(out["gamma_sq_tensor"], tensor, atol=1e-9)

    @given(st.lists(finite, min_size=6, max_size=6), st.floats(-2.0, 2.0))
    @settings(max_examples=50)
    def test_gamma_sq_boost_invariant(self, entries, eta):
        gamma = DipoleTensor(antisym(entries))
        L = boost_x(eta)
        boosted = L @ gamma.components @ L.T
        boosted = 0.5 * (boosted - boosted.T)  # kill round-off symmetric part
        gamma_b = DipoleTensor(boosted)
        a = contractions(gamma)["gamma_sq"]
        b = contractions(gamma_b)["gamma_sq"]
        assert b == pytest.approx(a, rel=1e-8, abs=1e-8)

    @given(st.lists(finite, min_size=6, max_size=6))
    def test_cached_contractions_bitwise(self, entries):
        # the cached value is the one formula, evaluated once per tensor: the
        # correctly rounded sum for gamma^2, and sums left to right for the
        # tensor (test_contraction_oracle checks both against index loops)
        gamma = DipoleTensor(antisym(entries))
        up = gamma.components
        down = METRIC @ up @ METRIC
        mixed = up @ METRIC
        tensor = [[0.0] * 4 for _ in range(4)]
        for tau in range(4):
            for lam in range(4):
                for mu in range(4):
                    tensor[tau][lam] += mixed[mu, tau] * down[mu, lam]
        tensor = np.array(tensor)
        tensor = 0.5 * (tensor + tensor.T)
        for _ in range(2):
            out = contractions(gamma)
            assert out["gamma_sq"] == math.fsum((down * up).ravel().tolist())
            assert np.array_equal(out["gamma_sq_tensor"], tensor)
            with pytest.raises(TypeError):
                out["gamma_sq_tensor"][0][0] = 1.0
            # the returned dict is the caller's own
            out["gamma_sq"] = None

    def test_gamma_sq_dot_matches_tensor(self):
        gamma = DipoleTensor(antisym([1.0, -2.0, 0.5, 0.0, 1.5, -1.0]))
        p = np.array([1.0, 0.2, -0.3, 0.7])
        q = np.array([0.5, -1.0, 0.0, 2.0])
        t = contractions(gamma)["gamma_sq_tensor"]
        assert gamma_sq_dot(gamma, p, q) == pytest.approx(float(p @ t @ q))
        assert gamma_sq_dot(gamma, p) == pytest.approx(float(p @ t @ p))

    def test_scaled(self):
        gamma = DipoleTensor(antisym([1.0, 0, 0, 0, 0, 0]))
        assert contractions(DipoleTensor(2.0 * gamma.components))["gamma_sq"] == pytest.approx(
            4.0 * contractions(gamma)["gamma_sq"]
        )


class TestRecords:
    """AtomPair and DipoleTensor: construction, validation messages, read-only fields."""

    def test_positional_and_keyword_construction(self):
        assert (AtomPair(1.0, 0.95).m1, AtomPair(1.0, 0.95).m2) == (1.0, 0.95)
        assert (AtomPair(m2=0.95, m1=1.0).m1, AtomPair(m2=0.95, m1=1.0).m2) == (1.0, 0.95)
        m = antisym([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert np.array_equal(DipoleTensor(m).components, m)
        assert np.array_equal(DipoleTensor(components=m).components, m)

    @pytest.mark.parametrize("m1, m2, message", [
        (np.inf, 1.0, "masses must be finite"),
        (1.0, np.nan, "masses must be finite"),
        (-1.0, 1.0, "masses must be positive, got m1=-1.0, m2=1.0"),
        (1.0, 0.0, "masses must be positive, got m1=1.0, m2=0.0"),
        (1e160, 9.5e159, "m1 = 1e+160, m2 = 9.5e+159: " + MASS_RANGE),
        (1.0, 1e-170, "m1 = 1.0, m2 = 1e-170: " + MASS_RANGE),
        (1e-170, 1e-170, "m1 = 1e-170, m2 = 1e-170: " + MASS_RANGE),
        (1.3e154, 1.3e154, "m1 = 1.3e+154, m2 = 1.3e+154: " + MASS_RANGE),
    ])
    def test_atom_pair_refusals(self, m1, m2, message):
        with pytest.raises(ValueError) as info:
            AtomPair(m1, m2)
        assert info.value.args == (message,)

    def test_atom_pair_m_sq_range(self):
        # each m^2 is a finite double, but 2 M^2 = m1^2 + m2^2 overflows from about 9.49e153 each
        top = math.sqrt(sys.float_info.max / 2.0)
        assert math.isfinite(AtomPair(top, top).M2)
        assert math.isfinite(AtomPair(1.3e154, 1.0).M2)
        for m1, m2 in ((1.3e154, 1.3e154), (1.0001 * top, 1.0001 * top), (1.3e154, 0.6e154)):
            assert m1 * m1 < math.inf and m2 * m2 < math.inf and not m1 * m1 + m2 * m2 < math.inf
            with pytest.raises(ValueError, match=re.escape(f"m1 = {m1!r}, m2 = {m2!r}: " + MASS_RANGE)):
                AtomPair(m1, m2)

    @pytest.mark.parametrize("components, message", [
        (np.zeros(4), "gamma must be a square matrix, got shape (4,)"),
        (np.zeros((4, 3)), "gamma must be a square matrix, got shape (4, 3)"),
        (antisym([np.inf, 0, 0, 0, 0, 0]), "gamma must be finite"),
        (np.eye(4), "gamma must be exactly antisymmetric"),
        (np.zeros((3, 3)), "gamma shape (3, 3) does not match spacetime dimension 4"),
    ])
    def test_dipole_tensor_refusals(self, components, message):
        with pytest.raises(ValueError) as info:
            DipoleTensor(components)
        assert info.value.args == (message,)

    @pytest.mark.parametrize("d, message", [
        (0.5, "dipole moment must have 3 components, got ()"),
        ([0.5], "dipole moment must have 3 components, got (1,)"),
        ([np.nan, 0.0, 0.0], "gamma must be finite"),
        ([0.0, np.inf, 0.0], "gamma must be finite"),
        ([0.0, 0.0, -np.inf], "gamma must be finite"),
    ])
    def test_dipole_from_moment_refusals(self, d, message):
        # numpy would broadcast a 0-d or one-element moment, so its shape is
        # checked; a non-finite gamma is refused before numpy forms it
        with pytest.raises(ValueError) as info:
            dipole_from_moment(d, AtomPair(1.0, 0.95))
        assert info.value.args == (message,)

    @pytest.mark.parametrize("d", [(1e300, 0.0, 0.0), (0.0, -1e300, 0.0), (np.nan, 0.0, 0.0)])
    def test_nonfinite_gamma_refused_without_warning(self, d):
        # d_i sqrt(m1 m2) overflows (or is NaN) and is refused before numpy's
        # product, which would warn "overflow encountered in multiply"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                dipole_from_moment(d, AtomPair(1e10, 1e10))
        assert info.value.args == ("gamma must be finite",)

    @given(st.lists(finite, min_size=3, max_size=3), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    def test_gamma_bits(self, d, m1, m2):
        # gamma^{0i} is the one product d_i sqrt(m1 m2), numpy's square root included
        up = dipole_from_moment(d, AtomPair(m1, m2)).components
        expect = np.array(d) * np.sqrt(m1 * m2)
        assert np.array_equal(up[0, 1:], expect) and np.array_equal(up[1:, 0], -expect)

    def test_components_are_a_copy(self):
        m = antisym([1.0, 0, 0, 0, 0, 0])
        gamma = DipoleTensor(m)
        m[0, 1] = 2.0
        assert gamma.components[0, 1] == 1.0

    @pytest.mark.parametrize("record, field", [
        (AtomPair(1.0, 0.95), "m1"),
        (AtomPair(1.0, 0.95), "m2"),
        (AtomPair(1.0, 0.95), "other"),
        (DipoleTensor(antisym([1.0, 0, 0, 0, 0, 0])), "components"),
        (DipoleTensor(antisym([1.0, 0, 0, 0, 0, 0])), "_contractions"),
    ])
    def test_fields_read_only(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.5)
        with pytest.raises(AttributeError):
            delattr(record, field)

    def test_contractions_computed_once_per_tensor(self, monkeypatch):
        cached = DipoleTensor.__dict__["_contractions"]
        compute, calls = cached.func, []
        monkeypatch.setattr(cached, "func", lambda gamma: calls.append(gamma) or compute(gamma))
        gammas = [DipoleTensor(antisym([1.0, 0, 0, 0, 0, 0])), DipoleTensor(antisym([0, 2.0, 0, 0, 0, 0]))]
        for gamma in gammas:
            for _ in range(3):
                contractions(gamma)
                gamma_sq_dot(gamma, np.ones(4))
        assert calls == gammas


class TestAtomPair:
    def test_derived_quantities(self):
        atoms = AtomPair(m1=1.0, m2=0.95)
        assert atoms.M2 == pytest.approx(0.5 * (1.0 + 0.9025))
        assert atoms.delta == pytest.approx(1.0 - 0.9025)
        assert atoms.b == pytest.approx(atoms.delta / atoms.M2)
        assert atoms.omega12 == pytest.approx(0.05)
        assert atoms.mass(1) == 1.0
        assert atoms.mass(2) == 0.95

    def test_positivity(self):
        with pytest.raises(ValueError):
            AtomPair(m1=-1.0, m2=1.0)
        with pytest.raises(ValueError):
            AtomPair(m1=1.0, m2=0.0)

    def test_require_small_b(self):
        AtomPair(m1=1.0, m2=0.95).require_small_b()
        with pytest.raises(KinematicDomainError, match="expansion"):
            AtomPair(m1=10.0, m2=1.0).require_small_b()


class TestPowerCounting:
    def test_dimension_table(self):
        assert engineering_dimension("P_tilde", 3) == Fraction(1)
        assert engineering_dimension("P_tilde", 2) == Fraction(1, 2)
        assert engineering_dimension("P", 3) == Fraction(0)
        assert engineering_dimension("P", 2) == Fraction(-1, 2)

    def test_classification(self):
        assert classify_renormalizability("P_tilde", 3) == "non_renormalizable"
        assert classify_renormalizability("P_tilde", 2) == "non_renormalizable"
        assert classify_renormalizability("P", 3) == "marginal"
        assert classify_renormalizability("P", 2) == "super"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            engineering_dimension("Q", 3)
        with pytest.raises(ValueError):
            engineering_dimension("P", 4)


class TestUnits:
    def test_natural_mode_trivial(self):
        # natural mode (the default) passes apparatus values through unconverted
        phys = cli._physics(cli.parse_config("atoms.m1 = 2.0\natoms.m2 = 1.5\ncavity.omega = 0.07\n"))
        assert (phys["atoms"].m1, phys["atoms"].m2, phys["cavity.omega"]) == (2.0, 1.5, 0.07)

    def test_known_scales_at_1ev(self):
        scales = _si_scales(1.0)
        # hbar c / (1 eV) = 197.327 nm
        assert scales["length"] == pytest.approx(HBAR_SI * C_SI / EV_SI, rel=1e-12)
        assert scales["length"] == pytest.approx(1.9732698e-7, rel=1e-6)
        assert scales["time"] == pytest.approx(6.582120e-16, rel=1e-6)
        # mass of one natural unit: 1 eV / c^2
        assert scales["mass"] == pytest.approx(EV_SI / C_SI**2, rel=1e-12)

    def test_fine_structure_constant(self):
        # alpha = e^2 / (4 pi eps0 hbar c) from the four SI constants against
        # CODATA 2018's 1/137.035999084 (1.5e-10 relative uncertainty): a
        # truncated hbar or eps0 is seen, and every SI scale is built from them
        alpha = EV_SI**2 / (4.0 * math.pi * EPS0_SI * HBAR_SI * C_SI)
        assert alpha == pytest.approx(1.0 / 137.035999084, rel=1e-10)

    @given(st.floats(1e-6, 1e6), st.sampled_from(("atoms.m1", "cavity.omega", "cavity.volume", "cavity.z", "jc.t_max")))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, v, key):
        # v natural units, given in SI, leave the boundary as v
        si = v * _si_scales(2.5)[_SI_QUANTITY[key]]
        text = f"units.mode = SI\nunits.base_energy_ev = 2.5\n{key} = {si!r}\n"
        if key == "atoms.m1":
            text += f"atoms.m2 = {si!r}\n"
        phys = cli._physics(parse_config(text))
        back = {
            "atoms.m1": phys["atoms"].m1,
            "cavity.omega": phys["cavity.omega"],
            "cavity.volume": phys["cavity.volume"],
            "cavity.z": phys["cavity.z"],
            "jc.t_max": phys["jc.t_max"],
        }[key]
        assert back == pytest.approx(v, rel=1e-12)

    def test_dipole_times_field_is_energy(self):
        # one natural unit of field has energy density eps0 E^2 = E* / L*^3,
        # and d E is an energy: with E* = 1 eV and L* = hbar c / e, one
        # natural dipole moment is sqrt(e eps0 L*^3)
        energy, length = EV_SI, HBAR_SI * C_SI / EV_SI
        field = (energy / (EPS0_SI * length**3)) ** 0.5
        d = _si_scales(1.0)["dipole_moment"]
        assert d * field == pytest.approx(energy, rel=1e-12)
        assert d == pytest.approx((EV_SI * EPS0_SI * (HBAR_SI * C_SI / EV_SI) ** 3) ** 0.5, rel=1e-12)

    def test_rejects_bad_mode(self):
        # the config table owns the unit keys' checks
        with pytest.raises(ConfigError, match="units.mode: expected one of"):
            parse_config("units.mode = imperial\n")
        with pytest.raises(ConfigError, match="units.base_energy_ev must be a positive finite number"):
            parse_config("units.base_energy_ev = -1.0\n")

    def test_unknown_quantity(self):
        # every SI key is a table key, and its quantity has a scale
        assert set(_SI_QUANTITY) <= set(cli._TABLE)
        assert set(_SI_QUANTITY.values()) == set(_si_scales(1.0))
