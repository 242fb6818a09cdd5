"""Cavity dynamics: Hamiltonian structure, evolution, Rabi periods."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipole_loop import jc
from dipole_loop.core import AtomPair, dipole_from_moment
from dipole_loop.errors import TruncationError
from dipole_loop.jc import (
    CavityMode,
    JCParams,
    JCState,
    build_hamiltonian,
    evolve,
    measure_resonant_period,
    rabi_coupling,
    rwa_discrepancy,
)


def resonant(g=0.002, omega12=0.05, n_max=8, rwa=True):
    return JCParams(g=g, omega12=omega12, Omega=omega12, n_max=n_max, rwa=rwa)


class TestCoupling:
    def test_antinode_value(self):
        atoms = AtomPair(m1=1.0, m2=0.95)
        gamma = dipole_from_moment(np.array([0.01, 0.0, 0.0]), atoms)
        omega = 0.05
        cavity = CavityMode(Omega=omega, V=2.0, z=np.pi / (2 * omega))
        g = rabi_coupling(gamma, cavity, atoms)
        # g = -gamma_x sqrt(Omega/V) sin(K z) / sqrt(m1 m2), K = Omega
        expect = -0.01 * np.sqrt(atoms.m1 * atoms.m2) * np.sqrt(omega / 2.0) / np.sqrt(atoms.m1 * atoms.m2)
        assert g == pytest.approx(expect, rel=1e-12)

    def test_node_kills_coupling(self):
        atoms = AtomPair(m1=1.0, m2=0.95)
        gamma = dipole_from_moment(np.array([0.01, 0.0, 0.0]), atoms)
        omega = 0.05
        cavity = CavityMode(Omega=omega, V=1.0, z=np.pi / omega)  # sin(pi) = 0
        assert rabi_coupling(gamma, cavity, atoms) == pytest.approx(0.0, abs=1e-15)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            CavityMode(Omega=-1.0, V=1.0, z=0.0)
        with pytest.raises(ValueError):
            CavityMode(Omega=1.0, V=0.0, z=0.0)


class TestHamiltonian:
    def test_hermitian(self):
        for rwa in (True, False):
            H = build_hamiltonian(resonant(rwa=rwa))
            assert np.allclose(H, H.conj().T)

    def test_diagonal_energies(self):
        p = JCParams(g=0.0, omega12=0.3, Omega=0.7, n_max=3)
        H = build_hamiltonian(p)
        nb = p.n_max + 1
        for n in range(nb):
            assert H[n, n] == pytest.approx(n * 0.7 + 0.15)
            assert H[nb + n, nb + n] == pytest.approx(n * 0.7 - 0.15)

    def test_rwa_coupling_pattern(self):
        p = resonant(g=0.01, n_max=3)
        H = build_hamiltonian(p)
        nb = p.n_max + 1
        # |upper, n> couples to |lower, n+1> with g sqrt(n+1)
        for n in range(p.n_max):
            assert H[n, nb + n + 1] == pytest.approx(0.01 * np.sqrt(n + 1))
        # no counter-rotating entries
        assert H[0, nb] == 0.0
        assert H[1, nb] == 0.0

    def test_counter_rotating_pattern(self):
        p = resonant(g=0.01, n_max=3, rwa=False)
        H = build_hamiltonian(p)
        nb = p.n_max + 1
        # |upper, n+1> additionally couples to |lower, n>
        for n in range(p.n_max):
            assert H[n + 1, nb + n] == pytest.approx(0.01 * np.sqrt(n + 1))


class TestState:
    def test_basis_indexing(self):
        up = JCState.basis("upper", 2, 4)
        lo = JCState.basis("lower", 0, 4)
        assert up.amplitudes[2] == 1.0
        assert lo.amplitudes[5] == 1.0
        assert up.excited_population() == 1.0
        assert lo.excited_population() == 0.0
        assert up.inversion() == 1.0
        assert lo.inversion() == -1.0

    def test_norm_enforced(self):
        amp = np.zeros(10, dtype=complex)
        amp[0] = 0.9
        with pytest.raises(ValueError, match="norm"):
            JCState(amp, 4)

    def test_basis_bounds(self):
        with pytest.raises(ValueError):
            JCState.basis("upper", 5, 4)
        with pytest.raises(ValueError):
            JCState.basis("middle", 0, 4)


class TestEvolution:
    def test_norm_conserved(self):
        p = resonant()
        state = JCState.basis("upper", 0, p.n_max)
        period = np.pi / p.g
        out = evolve(state, p, 10 * period, period / 50)
        assert np.max(np.abs(out.norms - 1.0)) < 1e-12

    def test_block_conservation_rwa(self):
        # starting from |upper, n>, the RWA dynamics stay in the
        # {|upper, n>, |lower, n+1>} pair
        p = resonant()
        n = 1
        state = JCState.basis("upper", n, p.n_max)
        out = evolve(state, p, 5 * np.pi / p.g, np.pi / (20 * p.g))
        nb = p.n_max + 1
        pops = np.abs(out.states) ** 2
        block = pops[:, n] + pops[:, nb + n + 1]
        assert np.max(np.abs(block - 1.0)) < 1e-10

    def test_full_inversion_at_half_period(self):
        p = resonant(g=0.004)
        state = JCState.basis("upper", 0, p.n_max)
        half = 0.5 * np.pi / p.g
        out = evolve(state, p, half, half / 200)
        assert out.p_excited[0] == pytest.approx(1.0)
        assert out.p_excited[-1] == pytest.approx(0.0, abs=1e-10)

    def test_truncation_guard(self):
        # counter-rotating terms push population to the top band when
        # n_max is tight and the threshold is strict
        p = JCParams(g=0.05, omega12=0.05, Omega=0.05, n_max=2, rwa=False, leak_threshold=1e-12)
        state = JCState.basis("upper", 0, p.n_max)
        with pytest.raises(TruncationError):
            evolve(state, p, 500.0, 1.0)
        out = evolve(state, p, 500.0, 1.0, enforce_truncation=False)
        assert float(out.top_band.max()) > 1e-12

    def test_time_validation(self):
        p = resonant()
        state = JCState.basis("upper", 0, p.n_max)
        with pytest.raises(ValueError):
            evolve(state, p, -1.0, 0.1)
        with pytest.raises(ValueError):
            evolve(state, p, 1.0, 0.0)


class TestRabiPeriod:
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_resonant_period(self, n):
        p = resonant()
        measured = measure_resonant_period(p, n)
        predicted = np.pi / (p.g * np.sqrt(n + 1))
        assert measured == pytest.approx(predicted, rel=1e-6)

    @given(st.floats(5e-4, 5e-3), st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_period_scaling(self, g, n):
        p = resonant(g=g)
        measured = measure_resonant_period(p, n)
        assert measured == pytest.approx(np.pi / (g * np.sqrt(n + 1)), rel=1e-6)

    def test_needs_headroom(self):
        with pytest.raises(ValueError, match="n_max"):
            measure_resonant_period(resonant(n_max=4), 3)

    def test_bisection_matches_brentq(self, monkeypatch):
        # the crossings were refined with brentq before; bisection must land
        # on the same periods, here without the RWA so they are not exact
        from scipy.optimize import brentq

        p = resonant(g=0.004, n_max=12, rwa=False)
        fast = [measure_resonant_period(p, n) for n in (0, 3, 7)]
        monkeypatch.setattr(jc, "_bisect", lambda f, lo, hi: brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16))
        slow = [measure_resonant_period(p, n) for n in (0, 3, 7)]
        assert fast == pytest.approx(slow, rel=1e-10)


class TestRWADiscrepancy:
    def test_small_at_weak_coupling(self):
        p = resonant(g=1e-4, omega12=0.5)
        dev = rwa_discrepancy(p, t_span=2 * np.pi / p.g, n_samples=401)
        # counter-rotating corrections enter at (g / (omega12 + Omega))
        assert dev < 5 * p.g / (p.omega12 + p.Omega)

    def test_grows_with_coupling(self):
        weak = rwa_discrepancy(resonant(g=1e-4, omega12=0.5), t_span=1e4, n_samples=401)
        strong = rwa_discrepancy(resonant(g=5e-3, omega12=0.5), t_span=1e4, n_samples=401)
        assert strong > weak
