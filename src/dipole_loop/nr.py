"""Exact 4x4 positive/negative-frequency Hamiltonian at fixed momentum
and the similarity transform that decouples the two sectors.

A relativistic component phi_a is split into psi_a, chi_a (the parts
that become particle and antiparticle wavefunctions in the
non-relativistic limit). At a fixed spatial wavenumber k the Hamiltonian
is the 4x4 matrix

    H = B (x) beta + C (x) O,   beta = diag(1, -1), O = [[0, 1], [-1, 0]]

acting on (psi_1, psi_2, chi_1, chi_2), with B and C 2x2 matrices over
the level index. The O part is non-Hermitian and couples the sectors;
e^{i Lambda} H e^{-i Lambda} removes it to leading order in the small
parameters lambda_a = k^2/m_a^2 and lambda_3 = gamma.F/(m_bar sqrt(m1 m2)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AtomPair

__all__ = [
    "ModeHamiltonian",
    "SmallParams",
    "Generator",
    "psi_chi_decompose",
    "psi_chi_reconstruct",
    "assemble_mode_hamiltonian",
    "build_generator",
    "similarity_transform",
    "decoupling_residual",
    "reduced_block_error",
]

EPS_BAR = np.array([[0.0, 1.0], [1.0, 0.0]])
BETA = np.array([[1.0, 0.0], [0.0, -1.0]])
O_COUPLING = np.array([[0.0, 1.0], [-1.0, 0.0]])


def psi_chi_decompose(phi: complex, phi_dot: complex, m_a: float):
    """Split a field value and its time derivative into the two sectors.

    psi = sqrt(m/2) (phi + i phi_dot / m), chi = sqrt(m/2) (phi - i phi_dot / m).
    """
    if m_a <= 0:
        raise ValueError(f"mass must be positive, got {m_a}")
    root = np.sqrt(m_a / 2.0)
    psi = root * (phi + 1j * phi_dot / m_a)
    chi = root * (phi - 1j * phi_dot / m_a)
    return psi, chi


def psi_chi_reconstruct(psi: complex, chi: complex, m_a: float):
    """Inverse of psi_chi_decompose; exact."""
    if m_a <= 0:
        raise ValueError(f"mass must be positive, got {m_a}")
    root = np.sqrt(2.0 * m_a)
    phi = (psi + chi) / root
    phi_dot = -1j * m_a * (psi - chi) / root
    return phi, phi_dot


@dataclass(frozen=True)
class SmallParams:
    """Magnitudes of the three expansion parameters at wavenumber k."""

    lambda1: float
    lambda2: float
    lambda3: float

    @classmethod
    def from_inputs(cls, k: float, gammaDotF: float, atoms: AtomPair) -> "SmallParams":
        return cls(
            lambda1=k**2 / atoms.m1**2,
            lambda2=k**2 / atoms.m2**2,
            lambda3=abs(gammaDotF) / (atoms.m_bar * np.sqrt(atoms.m1 * atoms.m2)),
        )

    @property
    def max(self) -> float:
        return max(self.lambda1, self.lambda2, self.lambda3)

    @property
    def valid(self) -> bool:
        return self.max < 0.1


@dataclass(frozen=True)
class ModeHamiltonian:
    """The exact 4x4 Hamiltonian at fixed momentum.

    Built from the two 2x2 level-space blocks, so the decomposition
    H = B (x) beta + C (x) O is exact by construction.
    """

    B: np.ndarray
    C: np.ndarray
    k: float
    gammaDotF: float
    atoms: AtomPair

    @property
    def matrix(self) -> np.ndarray:
        return np.block([[self.B, self.C], [-self.C, -self.B]])

    @property
    def beta_part(self) -> np.ndarray:
        return np.block([[self.B, np.zeros((2, 2))], [np.zeros((2, 2)), -self.B]])

    @property
    def o_part(self) -> np.ndarray:
        return np.block([[np.zeros((2, 2)), self.C], [-self.C, np.zeros((2, 2))]])

    @property
    def small_params(self) -> SmallParams:
        return SmallParams.from_inputs(self.k, self.gammaDotF, self.atoms)


def assemble_mode_hamiltonian(k: float, gammaDotF: float, atoms: AtomPair) -> ModeHamiltonian:
    """Build the 4x4 Hamiltonian with -laplacian -> k^2 at a fixed mode.

    B carries the rest masses, C does not:
    B_ab = delta_ab (k^2/2m_a + m_a) + (gamma.F / 2 sqrt(m_a m_b)) ebar_ab,
    C_ab = delta_ab (k^2/2m_a)      + (gamma.F / 2 sqrt(m_a m_b)) ebar_ab.
    """
    m1, m2 = atoms.m1, atoms.m2
    coupling = gammaDotF / (2.0 * np.sqrt(m1 * m2)) * EPS_BAR
    kinetic = np.diag([k**2 / (2 * m1), k**2 / (2 * m2)])
    rest = np.diag([m1, m2])
    return ModeHamiltonian(B=kinetic + rest + coupling, C=kinetic + coupling, k=k, gammaDotF=gammaDotF, atoms=atoms)


@dataclass(frozen=True)
class Generator:
    """Generator Lambda of the decoupling transform e^{i Lambda}.

    Lambda = -(i/4) [diag(lambda1, lambda2) + lambda3 ebar] (x) beta O,
    where beta O = [[0, 1], [1, 0]] on the sector split and the lambda_a
    enter as signed values k^2/m_a^2 of the kinetic terms. The 1/4
    coefficients solve the anticommutator condition {g, mass} = -C that
    cancels the sector coupling at leading order.
    """

    Lambda: np.ndarray
    params: SmallParams

    @property
    def Lambda1(self) -> np.ndarray:
        # kinetic part only
        g = -0.25 * np.diag([self.params.lambda1, self.params.lambda2])
        return 1j * np.block([[np.zeros((2, 2)), g], [g, np.zeros((2, 2))]])

    @property
    def Lambda2(self) -> np.ndarray:
        return self.Lambda - self.Lambda1


def build_generator(H: ModeHamiltonian, warn: bool = True) -> Generator:
    """Construct the decoupling generator for a mode Hamiltonian."""
    sp = H.small_params
    if warn and not sp.valid:
        import warnings

        warnings.warn(
            f"expansion parameters not small (max = {sp.max:.3g} >= 0.1); "
            "leading-order decoupling is unreliable",
            stacklevel=2,
        )
    m1, m2 = H.atoms.m1, H.atoms.m2
    lam = np.diag([H.k**2 / m1**2, H.k**2 / m2**2])
    lam3 = H.gammaDotF / (H.atoms.m_bar * np.sqrt(m1 * m2))
    g = -0.25 * (lam + lam3 * EPS_BAR)
    Lambda = 1j * np.block([[np.zeros((2, 2)), g], [g, np.zeros((2, 2))]])
    return Generator(Lambda=Lambda, params=sp)


def similarity_transform(H: np.ndarray | ModeHamiltonian, Lambda: np.ndarray) -> np.ndarray:
    """H' = e^{i Lambda} H e^{-i Lambda}, exactly.

    i Lambda must be Hermitian (Lambda anti-Hermitian, as build_generator
    makes it), so one eigendecomposition i Lambda = V D V^dag gives both
    factors e^{+-i Lambda} = V e^{+-D} V^dag.
    """
    Hm = H.matrix if isinstance(H, ModeHamiltonian) else np.asarray(H, dtype=complex)
    A = 1j * np.asarray(Lambda, dtype=complex)
    skew = np.linalg.norm(A - A.conj().T)
    if skew > 1e-12 * max(1.0, np.linalg.norm(A)):
        raise ValueError(f"i Lambda is not Hermitian: |i Lambda - (i Lambda)^dag| = {skew:.3e}")
    d, V = np.linalg.eigh(A)
    U = (V * np.exp(d)) @ V.conj().T
    Uinv = (V * np.exp(-d)) @ V.conj().T
    return U @ Hm @ Uinv


def _off_block_norm(H4: np.ndarray) -> float:
    return float(np.sqrt(np.linalg.norm(H4[:2, 2:]) ** 2 + np.linalg.norm(H4[2:, :2]) ** 2))


def decoupling_residual(k: float, gammaDotF: float, atoms: AtomPair) -> dict:
    """Sector-coupling norms before and after the transform.

    Returns r_before and r_after (Frobenius norms of the off-diagonal
    2x2 blocks) and lambda_max. r_after scales quadratically in the
    expansion parameters.
    """
    H = assemble_mode_hamiltonian(k, gammaDotF, atoms)
    gen = build_generator(H, warn=False)
    before = _off_block_norm(H.matrix)
    after = _off_block_norm(similarity_transform(H, gen.Lambda))
    return {"r_before": before, "r_after": after, "lambda_max": gen.params.max}


def reduced_block_error(k: float, gammaDotF: float, atoms: AtomPair) -> dict:
    """Deviation of the transformed upper 2x2 block from the decoupled form.

    The reference is the free part diag(k^2/2m_a + m_a) plus the
    off-diagonal dipole coupling gamma.F / (2 sqrt(m1 m2)); agreement is
    to second order in the expansion parameters.
    """
    H = assemble_mode_hamiltonian(k, gammaDotF, atoms)
    gen = build_generator(H, warn=False)
    upper = similarity_transform(H, gen.Lambda)[:2, :2]
    m1, m2 = atoms.m1, atoms.m2
    reference = np.diag([k**2 / (2 * m1) + m1, k**2 / (2 * m2) + m2]) + gammaDotF / (
        2 * np.sqrt(m1 * m2)
    ) * EPS_BAR
    return {
        "error": float(np.linalg.norm(upper - reference)),
        "h_norm": float(np.linalg.norm(H.matrix)),
        "lambda_max": gen.params.max,
    }
