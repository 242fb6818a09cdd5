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
The residuals are summed from its real commutator series (_decouple), exact
to rounding for every lambda_max < 1; similarity_transform's complex
eigendecomposition is kept as the tests' oracle.

Every function takes k and gamma.F as scalars or as broadcastable
arrays and works on the whole stack at once: matrices come back with
shape (..., 4, 4), norms with the broadcast shape, and a scalar input
gives scalar results.
"""

from __future__ import annotations

import numpy as np

from .core import AtomPair
from .errors import KinematicDomainError

__all__ = [
    "lambda_max",
    "assemble_mode_hamiltonian",
    "similarity_transform",
    "decoupling_residual",
    "reduced_block_error",
]

EPS_BAR = np.array([[0.0, 1.0], [1.0, 0.0]])


def lambda_max(k, gammaDotF, atoms: AtomPair):
    """The largest expansion parameter, max(k^2/m1^2, k^2/m2^2, |gamma.F|/(m_bar sqrt(m1 m2)))."""
    lam3 = np.abs(gammaDotF) / (atoms.m_bar * np.sqrt(atoms.m1 * atoms.m2))
    return np.maximum(np.maximum(k**2 / atoms.m1**2, k**2 / atoms.m2**2), lam3)


_OFFDIAG = np.kron(EPS_BAR, np.ones((2, 2)))  # the sector-coupling blocks of a 4x4 matrix
_SECTOR_SUM = np.kron(np.ones((2, 2)), np.eye(2))  # in 2x2 blocks, [[X11, X12], ...] @ it = [[X11 + X12] * 2, ...]
_MAX_TERMS = 40  # lambda_max near 1 needs 18


def _norm(X: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix, scaled by a power of two so no square underflows."""
    X = np.abs(X)
    _, e = np.frexp(np.max(X, axis=(-2, -1)))
    Y = np.ldexp(X, -e[..., None, None])
    return np.ldexp(np.sqrt(np.sum(Y * Y, axis=(-2, -1))), e)


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


def _generator(k, gammaDotF, atoms: AtomPair) -> np.ndarray:
    """A = i Lambda = (1/4) [diag(lambda1, lambda2) + lambda3 ebar] (x) beta O, real; (..., 4, 4).

    The lambda_a enter as signed k^2/m_a^2. The 1/4 makes Lambda's block g solve
    {g, mass} = -C, which cancels the sector coupling at leading order.
    """
    lam3 = np.asarray(gammaDotF) / (atoms.m_bar * np.sqrt(atoms.m1 * atoms.m2))
    G = 0.25 * (_diag(k**2 / atoms.m1**2, k**2 / atoms.m2**2) + np.multiply.outer(lam3, EPS_BAR))
    A = np.zeros(G.shape[:-2] + (4, 4))
    A[..., :2, 2:] = A[..., 2:, :2] = G
    return A


def similarity_transform(H, Lambda) -> np.ndarray:
    """H' = e^{i Lambda} H e^{-i Lambda}, exactly, for each matrix of a stack.

    i Lambda must be Hermitian (Lambda anti-Hermitian, as -i A is for the
    real generator A of _decouple), so one batched eigendecomposition
    i Lambda = V D V^dag gives both factors e^{+-i Lambda} = V e^{+-D} V^dag.
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
    """H and S = T - H + offdiag(H), for T = e^{A} H e^{-A} and A = i Lambda.

    By the Hadamard lemma T - H = sum_{n>=1} ad_A^n(H)/n!, ad_A(X) = [A, X].
    Write H = H_m + K, H_m = diag(m1, m2, -m1, -m2), K = [[C, C], [-C, -C]],
    K built exactly from H's off-diagonal blocks, which hold no rest mass.
    The generator solves [A, H_m] = -offdiag(H), so ad_A(H) = [A, K] -
    offdiag(H); S leaves out that -offdiag(H), which cancels H's own sector
    coupling, and every term it keeps is a product of O(lambda) matrices.
    """
    H = assemble_mode_hamiltonian(k, gammaDotF, atoms)
    A, D = _generator(k, gammaDotF, atoms), H * _OFFDIAG
    K = D @ _SECTOR_SUM
    S = A @ K - K @ A
    X = S - D
    for n in range(2, _MAX_TERMS + 1):
        X = (A @ X - X @ A) / n
        S = S + X
        # a matrix stops at its first term whose largest entry is at most eps/4 of S's
        live = np.abs(X).max(axis=(-2, -1)) > 0.25 * np.finfo(float).eps * np.abs(S).max(axis=(-2, -1))
        if not live.any():
            return H, S
        X = X * live[..., None, None]
    raise KinematicDomainError(f"nr: commutator series not converged in {_MAX_TERMS} terms; needs lambda_max < 1")


def decoupling_residual(k, gammaDotF, atoms: AtomPair) -> dict:
    """Sector coupling and reduced-block error of the transform, from one sum of its series.

    Returns five arrays of the broadcast shape:
    - r_before, r_after: Frobenius norms of the off-diagonal 2x2 blocks
      before and after the transform; r_after scales quadratically in the
      expansion parameters.
    - error: deviation of the upper 2x2 block after the transform from B,
      the free part diag(k^2/2m_a + m_a) plus the off-diagonal dipole
      coupling gamma.F / (2 sqrt(m1 m2)); second order in them too.
    - h_norm: Frobenius norm of H, the scale of error.
    - lambda_max: the largest expansion parameter.

    reduced_block_error is this same function under a second name, kept
    because acceptance check 8 and bench/tracing.py look the block error
    up by it; calling both would sum the series twice.
    """
    H, S = _decouple(k, gammaDotF, atoms)
    return {
        "r_before": _norm(H * _OFFDIAG)[()],
        "r_after": _norm(S * _OFFDIAG)[()],
        "error": _norm(S[..., :2, :2])[()],
        "h_norm": _norm(H)[()],
        "lambda_max": lambda_max(k, gammaDotF, atoms)[()],
    }


reduced_block_error = decoupling_residual
