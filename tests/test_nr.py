"""Non-relativistic 4x4 reduction and the decoupling transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipole_loop.core import AtomPair
from dipole_loop.nr import (
    BETA,
    EPS_BAR,
    O_COUPLING,
    SmallParams,
    assemble_mode_hamiltonian,
    build_generator,
    decoupling_residual,
    psi_chi_decompose,
    psi_chi_reconstruct,
    reduced_block_error,
    similarity_transform,
)

ATOMS = AtomPair(m1=1.0, m2=0.95)

cnum = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)


class TestPsiChi:
    @given(cnum, cnum, st.floats(0.1, 10.0))
    @settings(max_examples=60)
    def test_roundtrip(self, phi, phi_dot, m):
        psi, chi = psi_chi_decompose(phi, phi_dot, m)
        phi2, phi_dot2 = psi_chi_reconstruct(psi, chi, m)
        assert phi2 == pytest.approx(phi, abs=1e-10)
        assert phi_dot2 == pytest.approx(phi_dot, abs=1e-10)

    def test_static_field_is_pure_psi(self):
        # phi_dot = -i m phi makes chi vanish (positive-frequency mode)
        m = 2.0
        phi = 1.0 + 0.5j
        psi, chi = psi_chi_decompose(phi, -1j * m * phi, m)
        assert abs(chi) < 1e-12
        assert abs(psi) == pytest.approx(np.sqrt(2 * m) * abs(phi) , rel=1e-12)

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            psi_chi_decompose(1.0, 0.0, 0.0)


class TestAssembly:
    def test_block_structure(self):
        H = assemble_mode_hamiltonian(0.1, 2e-3, ATOMS)
        m = H.matrix
        assert m.shape == (4, 4)
        # [[B, C], [-C, -B]]
        assert np.allclose(m[:2, :2], H.B)
        assert np.allclose(m[:2, 2:], H.C)
        assert np.allclose(m[2:, :2], -H.C)
        assert np.allclose(m[2:, 2:], -H.B)

    def test_b_and_c_content(self):
        k, gdotF = 0.2, 1e-3
        H = assemble_mode_hamiltonian(k, gdotF, ATOMS)
        coupling = gdotF / (2 * np.sqrt(ATOMS.m1 * ATOMS.m2))
        for i, m_a in enumerate((ATOMS.m1, ATOMS.m2)):
            assert H.B[i, i] == pytest.approx(k**2 / (2 * m_a) + m_a)
            assert H.C[i, i] == pytest.approx(k**2 / (2 * m_a))
        assert H.B[0, 1] == pytest.approx(coupling)
        assert H.C[0, 1] == pytest.approx(coupling)

    def test_beta_o_decomposition(self):
        # the 4x4 splits into a beta-diagonal part and an off-diagonal
        # O-coupling part; together they rebuild the matrix
        H = assemble_mode_hamiltonian(0.15, 5e-4, ATOMS)
        assert np.allclose(H.beta_part + H.o_part, H.matrix)
        # beta part commutes with diag(1,1,-1,-1); O part anticommutes
        beta4 = np.kron(BETA, np.eye(2))
        assert np.allclose(beta4 @ H.beta_part, H.beta_part @ beta4)
        assert np.allclose(beta4 @ H.o_part, -H.o_part @ beta4)

    def test_small_params(self):
        sp = SmallParams.from_inputs(0.1, 1e-3, ATOMS)
        assert sp.lambda1 == pytest.approx(0.01)
        assert sp.lambda2 == pytest.approx(0.01 / 0.95**2)
        assert sp.lambda3 == pytest.approx(1e-3 / (ATOMS.m_bar * np.sqrt(ATOMS.m1 * ATOMS.m2)))
        assert sp.max == max(sp.lambda1, sp.lambda2, sp.lambda3)
        assert sp.valid


class TestGenerator:
    def test_anticommutator_cancels_odd_part(self):
        # the generator solves {g, m} = -C, removing the O-coupling at
        # leading order
        H = assemble_mode_hamiltonian(0.05, 2e-4, ATOMS)
        gen = build_generator(H)
        g_block = gen.Lambda[:2, 2:] / 1j
        m_block = np.diag([ATOMS.m1, ATOMS.m2])
        anti = g_block @ m_block + m_block @ g_block
        assert np.allclose(anti, -H.C, atol=1e-14)

    def test_generator_split(self):
        H = assemble_mode_hamiltonian(0.05, 2e-4, ATOMS)
        gen = build_generator(H)
        assert np.allclose(gen.Lambda1 + gen.Lambda2, gen.Lambda)
        # kinetic part carries no level mixing
        assert np.allclose(gen.Lambda1[:2, 2:] - np.diag(np.diag(gen.Lambda1[:2, 2:])), 0.0)
        # field part is purely off-diagonal in the level index
        assert np.allclose(np.diag(gen.Lambda2[:2, 2:]), 0.0)

    def test_warns_outside_regime(self):
        H = assemble_mode_hamiltonian(0.9, 0.0, ATOMS)  # lambda ~ 0.9
        with pytest.warns(UserWarning):
            build_generator(H)


class TestTransform:
    def test_unitary(self):
        H = assemble_mode_hamiltonian(0.05, 2e-4, ATOMS)
        gen = build_generator(H)
        transformed = similarity_transform(H, gen.Lambda)
        # similarity by a unitary preserves eigenvalues
        before = np.sort(np.linalg.eigvals(H.matrix).real)
        after = np.sort(np.linalg.eigvals(transformed).real)
        assert np.allclose(before, after, atol=1e-12)

    def test_matches_matrix_exponential(self):
        from scipy.linalg import expm

        H = assemble_mode_hamiltonian(0.07, 3e-4, ATOMS)
        Lam = build_generator(H).Lambda
        expect = expm(1j * Lam) @ H.matrix @ expm(-1j * Lam)
        assert np.allclose(similarity_transform(H, Lam), expect, rtol=0.0, atol=1e-14)

    def test_rejects_non_hermitian_generator(self):
        H = assemble_mode_hamiltonian(0.05, 2e-4, ATOMS)
        Lam = build_generator(H).Lambda
        with pytest.raises(ValueError, match="Hermitian"):
            similarity_transform(H, 1j * Lam)

    def test_residual_drops_quadratically(self):
        targets = np.geomspace(1e-4, 1e-2, 9)
        lams, after = [], []
        for u in targets:
            k = ATOMS.m1 * np.sqrt(u)
            gdotF = 0.7 * u * ATOMS.m_bar * np.sqrt(ATOMS.m1 * ATOMS.m2)
            out = decoupling_residual(k, gdotF, ATOMS)
            assert out["r_after"] < out["r_before"]
            lams.append(out["lambda_max"])
            after.append(out["r_after"])
        slope = np.polyfit(np.log(lams), np.log(after), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_reduced_block_matches_reference(self):
        k, gdotF = 0.03, 1e-4
        out = reduced_block_error(k, gdotF, ATOMS)
        lam = SmallParams.from_inputs(k, gdotF, ATOMS).max
        assert out["error"] <= lam**2 * out["h_norm"]

    def test_zero_coupling_already_block_diagonal(self):
        out = decoupling_residual(0.0, 0.0, ATOMS)
        assert out["r_before"] == pytest.approx(0.0, abs=1e-15)
        assert out["r_after"] == pytest.approx(0.0, abs=1e-15)


class TestConstants:
    def test_pauli_like_blocks(self):
        assert np.array_equal(BETA, np.diag([1.0, -1.0]))
        assert np.array_equal(O_COUPLING, np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.array_equal(EPS_BAR, np.array([[0.0, 1.0], [1.0, 0.0]]))
