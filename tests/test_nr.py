"""Non-relativistic 4x4 reduction and the decoupling transform."""

import mpmath
import numpy as np
import pytest

from dipole_loop import cli, jc, nr
from dipole_loop.core import AtomPair, dipole_from_moment
from dipole_loop.errors import KinematicDomainError
from dipole_loop.nr import (
    EPS_BAR,
    assemble_mode_hamiltonian,
    decoupling_residual,
    lambda_max,
    reduced_block_error,
    similarity_transform,
)

ATOMS = AtomPair(m1=1.0, m2=0.95)

# a stack of (k, gamma.F) pairs across the expansion regime
K_STACK = np.array([0.0, 0.01, 0.03, 0.05, 0.07, 0.1])
F_STACK = np.array([0.0, 2e-5, -1e-4, 2e-4, 3e-4, -1e-3])


def build_lambda(k, gammaDotF, atoms):
    """Lambda = -i A for the real generator A that the decoupling series uses."""
    return -1j * nr._generator(k, gammaDotF, atoms)


class TestAssembly:
    def test_block_structure(self):
        H = assemble_mode_hamiltonian(K_STACK, F_STACK, ATOMS)
        assert H.shape == (len(K_STACK), 4, 4)
        # [[B, C], [-C, -B]] at every point
        assert np.array_equal(H[:, 2:, :2], -H[:, :2, 2:])
        assert np.array_equal(H[:, 2:, 2:], -H[:, :2, :2])
        # a scalar point is the matching matrix of the stack
        assert assemble_mode_hamiltonian(0.1, 2e-3, ATOMS).shape == (4, 4)
        assert np.array_equal(assemble_mode_hamiltonian(K_STACK[3], F_STACK[3], ATOMS), H[3])

    def test_b_and_c_content(self):
        k, gdotF = 0.2, 1e-3
        H = assemble_mode_hamiltonian(k, gdotF, ATOMS)
        B, C = H[:2, :2], H[:2, 2:]
        coupling = gdotF / (2 * np.sqrt(ATOMS.m1 * ATOMS.m2))
        for i, m_a in enumerate((ATOMS.m1, ATOMS.m2)):
            assert B[i, i] == pytest.approx(k**2 / (2 * m_a) + m_a)
            assert C[i, i] == pytest.approx(k**2 / (2 * m_a))
        for block in (B, C):
            assert block[0, 1] == block[1, 0] == pytest.approx(coupling)

    def test_small_params(self):
        # lambda_2 = k^2/m2^2 is the largest at k = 0.1, gamma.F = 1e-3
        assert lambda_max(0.1, 1e-3, ATOMS) == pytest.approx(0.01 / 0.95**2)
        # lambda_3 = |gamma.F|/(m_bar sqrt(m1 m2)) at k = 0.01
        assert lambda_max(0.01, -1e-3, ATOMS) == pytest.approx(1e-3 / (ATOMS.m_bar * np.sqrt(ATOMS.m1 * ATOMS.m2)))

    def test_small_params_stack(self):
        lam = lambda_max(K_STACK, F_STACK, ATOMS)
        expect = [lambda_max(k, f, ATOMS) for k, f in zip(K_STACK, F_STACK)]
        assert np.array_equal(lam, expect)

    @pytest.mark.parametrize("atoms", [ATOMS, AtomPair(m1=1.0, m2=1.0), AtomPair(m1=3.7, m2=0.2)])
    def test_lambda_max_is_max_of_three_bit_for_bit(self, atoms):
        # the largest of lambda_1 = k^2/m1^2, lambda_2 = k^2/m2^2 and
        # lambda_3 = |gamma.F|/(m_bar sqrt(m1 m2)), each rounded on its own
        k, f = np.meshgrid(np.geomspace(1e-6, 3.0, 41), np.concatenate([-np.geomspace(1e-8, 2.0, 20), [0.0],
                                                                        np.geomspace(1e-8, 2.0, 20)]))
        three = np.stack([k**2 / atoms.m1**2, k**2 / atoms.m2**2, np.abs(f) / (atoms.m_bar * np.sqrt(atoms.m1 * atoms.m2))])
        assert np.array_equal(lambda_max(k, f, atoms), three.max(axis=0))


class TestGenerator:
    def test_anticommutator_cancels_odd_part(self):
        # the generator solves {g, m} = -C, removing the O-coupling at
        # leading order, at every point of the stack
        H = assemble_mode_hamiltonian(K_STACK, F_STACK, ATOMS)
        Lam = build_lambda(K_STACK, F_STACK, ATOMS)
        g = Lam[:, :2, 2:] / 1j
        m = np.diag([ATOMS.m1, ATOMS.m2])
        assert np.allclose(g @ m + m @ g, -H[:, :2, 2:], rtol=0.0, atol=1e-14)

    def test_generator_split(self):
        k, gdotF = 0.05, 2e-4
        Lam = build_lambda(k, gdotF, ATOMS)
        block = Lam[:2, 2:] / 1j
        assert np.array_equal(Lam[2:, :2], Lam[:2, 2:])
        assert not Lam[:2, :2].any() and not Lam[2:, 2:].any()
        # kinetic part on the level diagonal: -(1/4) k^2/m_a^2, no level mixing
        assert np.allclose(np.diag(block), -0.25 * np.array([k**2 / ATOMS.m1**2, k**2 / ATOMS.m2**2]))
        # field part purely off-diagonal in the level index: -(1/4) lambda3
        assert np.allclose([block[0, 1], block[1, 0]], -0.25 * gdotF / (ATOMS.m_bar * np.sqrt(ATOMS.m1 * ATOMS.m2)))


class TestTransform:
    def test_unitary(self):
        H = assemble_mode_hamiltonian(0.05, 2e-4, ATOMS)
        transformed = similarity_transform(H, build_lambda(0.05, 2e-4, ATOMS))
        # similarity by a unitary preserves eigenvalues
        before = np.sort(np.linalg.eigvals(H).real)
        after = np.sort(np.linalg.eigvals(transformed).real)
        assert np.allclose(before, after, atol=1e-12)

    def test_matches_matrix_exponential(self):
        from scipy.linalg import expm

        H = assemble_mode_hamiltonian(0.07, 3e-4, ATOMS)
        Lam = build_lambda(0.07, 3e-4, ATOMS)
        expect = expm(1j * Lam) @ H @ expm(-1j * Lam)
        assert np.allclose(similarity_transform(H, Lam), expect, rtol=0.0, atol=1e-14)

    def test_stack_matches_matrix_exponential(self):
        from scipy.linalg import expm

        H = assemble_mode_hamiltonian(K_STACK, F_STACK, ATOMS)
        Lam = build_lambda(K_STACK, F_STACK, ATOMS)
        out = similarity_transform(H, Lam)
        assert out.shape == (len(K_STACK), 4, 4)
        for h, lam, t in zip(H, Lam, out):
            expect = expm(1j * lam) @ h @ expm(-1j * lam)
            assert np.allclose(t, expect, rtol=0.0, atol=1e-14)

    def test_rejects_non_hermitian_generator(self):
        H = assemble_mode_hamiltonian(0.05, 2e-4, ATOMS)
        Lam = build_lambda(0.05, 2e-4, ATOMS)
        with pytest.raises(ValueError, match="Hermitian"):
            similarity_transform(H, 1j * Lam)

    def test_rejects_one_non_hermitian_in_stack(self):
        H = assemble_mode_hamiltonian(K_STACK, F_STACK, ATOMS)
        Lam = build_lambda(K_STACK, F_STACK, ATOMS)
        Lam[4] *= 1j
        with pytest.raises(ValueError, match="Hermitian"):
            similarity_transform(H, Lam)

    def test_residual_drops_quadratically(self):
        u = np.geomspace(1e-4, 1e-2, 9)
        k = ATOMS.m1 * np.sqrt(u)
        gdotF = 0.7 * u * ATOMS.m_bar * np.sqrt(ATOMS.m1 * ATOMS.m2)
        out = decoupling_residual(k, gdotF, ATOMS)
        assert np.all(out["r_after"] < out["r_before"])
        slope = np.polyfit(np.log(out["lambda_max"]), np.log(out["r_after"]), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_reduced_block_matches_reference(self):
        k, gdotF = 0.03, 1e-4
        out = reduced_block_error(k, gdotF, ATOMS)
        lam = lambda_max(k, gdotF, ATOMS)
        assert out["error"] <= lam**2 * out["h_norm"]

    def test_zero_coupling_already_block_diagonal(self):
        out = decoupling_residual(0.0, 0.0, ATOMS)
        assert out["r_before"] == pytest.approx(0.0, abs=1e-15)
        assert out["r_after"] == pytest.approx(0.0, abs=1e-15)


class TestBatch:
    """An array call equals the per-point scalar calls."""

    def test_scalar_input_gives_scalars(self):
        for out in (decoupling_residual(0.05, 2e-4, ATOMS), reduced_block_error(0.05, 2e-4, ATOMS)):
            assert all(np.ndim(v) == 0 for v in out.values())

    def test_stack_equals_points(self):
        res = decoupling_residual(K_STACK, F_STACK, ATOMS)
        blk = reduced_block_error(K_STACK, F_STACK, ATOMS)
        for name, out in (("res", res), ("blk", blk)):
            assert all(np.shape(v) == K_STACK.shape for v in out.values()), name
        for i, (k, f) in enumerate(zip(K_STACK, F_STACK)):
            r1, b1 = decoupling_residual(k, f, ATOMS), reduced_block_error(k, f, ATOMS)
            scale = b1["h_norm"]
            assert blk["h_norm"][i] == pytest.approx(scale, rel=1e-15, abs=0.0)
            assert res["lambda_max"][i] == pytest.approx(r1["lambda_max"], rel=1e-15, abs=0.0)
            assert blk["lambda_max"][i] == pytest.approx(b1["lambda_max"], rel=1e-15, abs=0.0)
            for key in ("r_before", "r_after"):
                assert abs(res[key][i] - r1[key]) <= 1e-15 * scale, key
            assert abs(blk["error"][i] - b1["error"]) <= 1e-15 * scale

    def test_broadcasts_scalar_field(self):
        res = decoupling_residual(K_STACK, 1e-4, ATOMS)
        expect = decoupling_residual(K_STACK, np.full_like(K_STACK, 1e-4), ATOMS)
        for key in res:
            assert np.array_equal(res[key], expect[key]), key


def _mp_truth(k, gdotF, atoms):
    """(r_after, error) from mpmath's expm at enough digits for T - H.

    T - H cancels the O(m) entries of H down to O(lambda^2 m), so the
    working precision grows with |log10 lambda|; at 60 fixed digits the
    error column's truth is itself off by 32% at lambda = 1e-40.
    """
    lam = lambda_max(k, gdotF, atoms)
    with mpmath.workdps(int(2.2 * abs(np.log10(lam))) + 30):
        m1, m2 = mpmath.mpf(atoms.m1), mpmath.mpf(atoms.m2)
        k2, c = mpmath.mpf(k) ** 2, mpmath.mpf(gdotF) / (2 * mpmath.sqrt(m1 * m2))
        C = mpmath.matrix([[k2 / (2 * m1), c], [c, k2 / (2 * m2)]])
        B = C + mpmath.diag([m1, m2])
        G = mpmath.matrix([[k2 / m1**2, 4 * c / (m1 + m2)], [4 * c / (m1 + m2), k2 / m2**2]]) / 4
        H, A = mpmath.zeros(4), mpmath.zeros(4)
        for a in range(2):
            for b in range(2):
                H[a, b], H[a, b + 2], H[a + 2, b], H[a + 2, b + 2] = B[a, b], C[a, b], -C[a, b], -B[a, b]
                A[a, b + 2] = A[a + 2, b] = G[a, b]
        T = mpmath.expm(A) * H * mpmath.expm(-A)
        r_after = mpmath.sqrt(sum(T[i, j] ** 2 for i in range(4) for j in range(4) if (i < 2) != (j < 2)))
        error = mpmath.sqrt(sum((T[i, j] - H[i, j]) ** 2 for i in range(2) for j in range(2)))
        return float(r_after), float(error)


class TestAgainstMpmath:
    """r_after and error, the O(lambda^2 m) columns, against the transform at high precision."""

    @pytest.mark.parametrize("atoms, ratio", [(ATOMS, 0.7), (AtomPair(m1=1.0, m2=3.0), -0.3)],
                             ids=["default", "split-mass-negative-field"])
    def test_log_grid_to_rounding(self, atoms, ratio):
        # the nr-reduce grid construction, from the bottom of the double range to 0.99
        lam = np.geomspace(1e-300, 0.99, 31)
        k = atoms.m1 * np.sqrt(lam)
        gdotF = ratio * lam * atoms.m_bar * np.sqrt(atoms.m1 * atoms.m2)
        got = decoupling_residual(k, gdotF, atoms)["r_after"], reduced_block_error(k, gdotF, atoms)["error"]
        checked = 0
        for i in range(lam.size):
            for col, truth in zip(got, _mp_truth(float(k[i]), float(gdotF[i]), atoms)):
                if truth >= np.finfo(float).tiny:  # wherever the truth is a normal double
                    assert abs(col[i] - truth) <= 1e-14 * truth, (lam[i], col[i], truth)
                    checked += 1
        assert checked >= 30

    def test_series_cap_refuses_large_lambda(self):
        # far outside lambda_max < 1 the series does not settle in its cap of terms
        with pytest.raises(KinematicDomainError, match="not converged"):
            decoupling_residual(10.0, 0.0, ATOMS)


class TestJaynesCummingsBlock:
    """The NR reduction's upper block is the Jaynes-Cummings block of the cavity mode.

    The field n photons put on the atom, sign included. jc's mode has K =
    Omega (c = 1), polarization along x and field per photon sqrt(Omega / V)
    at the atom's z: E_x = sqrt(Omega / V) sin(K z) (a + a^dag). The dipole
    energy -d.E = -d_x (sigma_+ + sigma_-) E_x keeps sigma_+ a + a^dag sigma_-
    under the RWA with coefficient g = -d_x sqrt(Omega / V) sin(K z), which
    is jc.rabi_coupling. Between |upper, n> and |lower, n+1> the field's
    matrix element is E_n = <n| E_x |n+1> = sqrt(Omega / V) sin(K z)
    sqrt(n+1), so the JC block's off-diagonal is -d_x E_n = g sqrt(n+1).

    nr takes the field as gamma.F = gamma^{mu nu} F_{mu nu}. With signature
    (-,+,+,+), A_0 = -phi and E = -grad phi - d_t A, the field tensor has
    F_{0i} = d_t A_i - d_i A_0 = -E_i. With gamma^{0i} = d_i sqrt(m1 m2),
    gamma.F = 2 gamma^{0i} F_{0i} = -2 sqrt(m1 m2) d.E, and B's off-diagonal
    gamma.F / (2 sqrt(m1 m2)) is -d.E, the same dipole energy. So n photons
    put F_{0x} = -E_n, F_{x0} = +E_n on the atom, gamma.F = 2 sqrt(m1 m2)
    g sqrt(n+1), and lambda_3 = |gamma.F| / (m_bar sqrt(m1 m2)) = 2 |g|
    sqrt(n+1) / m_bar. The atom's wavenumber is the mode's, k = K = Omega.

    Bounds, fixed beforehand: B against the JC block to 4 eps of the entry
    (or, for the splitting, of the rest masses it is taken from), lambda_3
    to 4 eps, and the decoupled block's error to lambda_max^2 |H|, as
    acceptance check 8 holds it.
    """

    @pytest.mark.parametrize("source", ["default", "cavity-scale-0"])
    def test_upper_block_is_the_jc_block(self, workloads, source):
        cavity_scale = workloads.config_text(workloads.generate("cavity-scale", 0))
        cfg = cli._physics(cli.parse_config("" if source == "default" else cavity_scale))
        atoms, omega, volume, z = cfg["atoms"], cfg["cavity.omega"], cfg["cavity.volume"], cfg["cavity.z"]
        g = jc.rabi_coupling(cfg["dipole.dx"], omega, volume, z)
        gamma = dipole_from_moment([cfg[key] for key in cli._DIPOLE], atoms)
        eps = np.finfo(float).eps
        for n in cli.parse_config(cavity_scale)["jc.n_list"]:
            F = np.zeros((4, 4))
            F[1, 0] = np.sqrt(omega / volume) * np.sin(omega * z) * np.sqrt(n + 1.0)  # E_n
            F[0, 1] = -F[1, 0]
            gdotF = float(np.sum(gamma.components * F))

            B = assemble_mode_hamiltonian(omega, gdotF, atoms)[:2, :2]
            coupling = g * np.sqrt(n + 1.0)
            assert B[0, 1] == B[1, 0]
            assert abs(B[0, 1] - coupling) <= 4 * eps * abs(coupling)
            splitting = atoms.omega12 + (omega**2 / (2 * atoms.m1) - omega**2 / (2 * atoms.m2))
            assert abs((B[0, 0] - B[1, 1]) - splitting) <= 4 * eps * max(atoms.m1, atoms.m2)

            lam3 = 2 * abs(g) * np.sqrt(n + 1.0) / atoms.m_bar
            assert abs(lambda_max(0.0, gdotF, atoms) - lam3) <= 4 * eps * lam3  # at k = 0, lambda_3 is the largest
            res = decoupling_residual(omega, gdotF, atoms)
            assert res["error"] <= res["lambda_max"] ** 2 * res["h_norm"]


class TestConstants:
    def test_pauli_like_blocks(self):
        assert np.array_equal(EPS_BAR, np.array([[0.0, 1.0], [1.0, 0.0]]))
