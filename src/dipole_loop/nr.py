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

Every function takes k and gamma.F as scalars or as broadcastable
arrays and works on the whole stack at once: matrices come back with
shape (..., 4, 4), norms with the broadcast shape, and a scalar input
gives scalar results.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import AtomPair

__all__ = [
    "SmallParams",
    "assemble_mode_hamiltonian",
    "build_generator",
    "similarity_transform",
    "decoupling_residual",
    "reduced_block_error",
]

EPS_BAR = np.array([[0.0, 1.0], [1.0, 0.0]])


class SmallParams(NamedTuple):
    """Magnitudes of the three expansion parameters at wavenumber k."""

    lambda1: float | np.ndarray
    lambda2: float | np.ndarray
    lambda3: float | np.ndarray

    @classmethod
    def from_inputs(cls, k, gammaDotF, atoms: AtomPair) -> "SmallParams":
        return cls(
            lambda1=k**2 / atoms.m1**2,
            lambda2=k**2 / atoms.m2**2,
            lambda3=np.abs(gammaDotF) / (atoms.m_bar * np.sqrt(atoms.m1 * atoms.m2)),
        )

    @property
    def max(self):
        return np.maximum(np.maximum(self.lambda1, self.lambda2), self.lambda3)


def _norm(blocks: np.ndarray) -> np.ndarray:
    return np.linalg.norm(blocks, axis=(-2, -1))


def _diag(a, b) -> np.ndarray:
    a, b = np.broadcast_arrays(a, b)
    out = np.zeros(a.shape + (2, 2))
    out[..., 0, 0], out[..., 1, 1] = a, b
    return out


def assemble_mode_hamiltonian(k, gammaDotF, atoms: AtomPair) -> np.ndarray:
    """Build the 4x4 Hamiltonian with -laplacian -> k^2 at a fixed mode.

    B carries the rest masses, C does not:
    B_ab = delta_ab (k^2/2m_a + m_a) + (gamma.F / 2 sqrt(m_a m_b)) ebar_ab,
    C_ab = delta_ab (k^2/2m_a)      + (gamma.F / 2 sqrt(m_a m_b)) ebar_ab.
    The result is [[B, C], [-C, -B]], of shape (..., 4, 4).
    """
    m1, m2 = atoms.m1, atoms.m2
    coupling = np.multiply.outer(np.asarray(gammaDotF) / (2.0 * np.sqrt(m1 * m2)), EPS_BAR)
    kinetic = _diag(k**2 / (2 * m1), k**2 / (2 * m2))
    B, C = kinetic + _diag(m1, m2) + coupling, kinetic + coupling
    H = np.empty(B.shape[:-2] + (4, 4))
    H[..., :2, :2], H[..., :2, 2:] = B, C
    H[..., 2:, :2], H[..., 2:, 2:] = -C, -B
    return H


def build_generator(k, gammaDotF, atoms: AtomPair) -> np.ndarray:
    """Lambda, which generates the decoupling transform e^{i Lambda}; (..., 4, 4).

    Lambda = -(i/4) [diag(lambda1, lambda2) + lambda3 ebar] (x) beta O,
    where beta O = [[0, 1], [1, 0]] on the sector split and the lambda_a
    enter as signed values k^2/m_a^2 of the kinetic terms. The 1/4
    coefficients solve the anticommutator condition {g, mass} = -C that
    cancels the sector coupling at leading order.
    """
    m1, m2 = atoms.m1, atoms.m2
    lam3 = np.asarray(gammaDotF) / (atoms.m_bar * np.sqrt(m1 * m2))
    g = -0.25 * (_diag(k**2 / m1**2, k**2 / m2**2) + np.multiply.outer(lam3, EPS_BAR))
    off = np.zeros(g.shape[:-2] + (4, 4))
    off[..., :2, 2:] = off[..., 2:, :2] = g
    return 1j * off


def similarity_transform(H, Lambda) -> np.ndarray:
    """H' = e^{i Lambda} H e^{-i Lambda}, exactly, for each matrix of a stack.

    i Lambda must be Hermitian (Lambda anti-Hermitian, as build_generator
    makes it), so one batched eigendecomposition i Lambda = V D V^dag
    gives both factors e^{+-i Lambda} = V e^{+-D} V^dag.
    """
    A = 1j * np.asarray(Lambda, dtype=complex)
    skew = _norm(A - np.swapaxes(A.conj(), -1, -2))
    if np.any(skew > 1e-12 * np.maximum(1.0, _norm(A))):
        raise ValueError(f"i Lambda is not Hermitian: |i Lambda - (i Lambda)^dag| = {np.max(skew):.3e}")
    d, V = np.linalg.eigh(A)
    Vh = np.swapaxes(V.conj(), -1, -2)
    U = (V * np.exp(d)[..., None, :]) @ Vh
    Uinv = (V * np.exp(-d)[..., None, :]) @ Vh
    return U @ np.asarray(H, dtype=complex) @ Uinv


def _decouple(k, gammaDotF, atoms: AtomPair):
    H = assemble_mode_hamiltonian(k, gammaDotF, atoms)
    return H, similarity_transform(H, build_generator(k, gammaDotF, atoms))


def decoupling_residual(k, gammaDotF, atoms: AtomPair) -> dict:
    """Sector-coupling norms before and after the transform.

    Returns r_before and r_after (Frobenius norms of the off-diagonal
    2x2 blocks) and lambda_max. r_after scales quadratically in the
    expansion parameters.
    """
    H, T = _decouple(k, gammaDotF, atoms)
    r_before, r_after = (np.sqrt(_norm(X[..., :2, 2:]) ** 2 + _norm(X[..., 2:, :2]) ** 2)[()] for X in (H, T))
    return {
        "r_before": r_before,
        "r_after": r_after,
        "lambda_max": SmallParams.from_inputs(k, gammaDotF, atoms).max[()],
    }


def reduced_block_error(k, gammaDotF, atoms: AtomPair) -> dict:
    """Deviation of the upper 2x2 block after the transform from the decoupled form.

    The reference is B, the free part diag(k^2/2m_a + m_a) plus the
    off-diagonal dipole coupling gamma.F / (2 sqrt(m1 m2)); agreement is
    to second order in the expansion parameters.
    """
    H, T = _decouple(k, gammaDotF, atoms)
    return {
        "error": _norm(T[..., :2, :2] - H[..., :2, :2])[()],
        "h_norm": _norm(H)[()],
        "lambda_max": SmallParams.from_inputs(k, gammaDotF, atoms).max[()],
    }
