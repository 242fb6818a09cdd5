"""Conventions, the dipole tensor and its contractions, and power counting.

Everything here works in natural units (hbar = c = eps0 = mu0 = 1) with
metric signature (-,+,+,+). The dipole coupling is an antisymmetric
tensor gamma^{mu nu}; its electric components gamma^{0i} carry the
atomic dipole moment through gamma^{0i} = d_i sqrt(m1 m2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import KinematicDomainError

__all__ = [
    "METRIC",
    "AtomPair",
    "DipoleTensor",
    "dipole_from_moment",
    "contractions",
    "gamma_sq_dot",
    "minkowski_dot",
    "engineering_dimension",
    "classify_renormalizability",
]


# Minkowski metric g_{mu nu} = diag(-1, +1, +1, +1), its own inverse
METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])
METRIC.flags.writeable = False


@dataclass(frozen=True)
class AtomPair:
    """The two level masses and the derived expansion quantities.

    m1 is the upper level, m2 the lower, so omega12 = m1 - m2 >= 0 in the
    intended regime (the class itself only requires positivity).
    """

    m1: float
    m2: float

    def __post_init__(self):
        if not (np.isfinite(self.m1) and np.isfinite(self.m2)):
            raise ValueError("masses must be finite")
        if self.m1 <= 0 or self.m2 <= 0:
            raise ValueError(f"masses must be positive, got m1={self.m1}, m2={self.m2}")

    @property
    def M2(self) -> float:
        return 0.5 * (self.m1**2 + self.m2**2)

    @property
    def delta(self) -> float:
        return self.m1**2 - self.m2**2

    @property
    def b(self) -> float:
        return self.delta / self.M2

    @property
    def m_bar(self) -> float:
        return 0.5 * (self.m1 + self.m2)

    @property
    def omega12(self) -> float:
        return self.m1 - self.m2

    def mass(self, level: int) -> float:
        if level == 1:
            return self.m1
        if level == 2:
            return self.m2
        raise ValueError(f"level must be 1 or 2, got {level}")

    def require_small_b(self, limit: float = 1.0) -> None:
        if abs(self.b) >= limit:
            raise KinematicDomainError(f"|b| = |delta|/M^2 = {abs(self.b):.3g} >= {limit}; expansion invalid")


def _check_antisymmetric(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must be finite")
    if not np.array_equal(m, -m.T):
        raise ValueError(f"{name} must be exactly antisymmetric")
    return m


@dataclass(frozen=True)
class DipoleTensor:
    """Antisymmetric coupling gamma^{mu nu} (components with indices up)."""

    components: np.ndarray

    def __post_init__(self):
        comp = _check_antisymmetric(self.components, "gamma")
        if comp.shape[0] != 4:
            raise ValueError(f"gamma shape {comp.shape} does not match spacetime dimension 4")
        comp = comp.copy()
        comp.flags.writeable = False
        object.__setattr__(self, "components", comp)


def dipole_from_moment(d: np.ndarray, atoms: AtomPair) -> DipoleTensor:
    """Build gamma^{mu nu} from an electric dipole moment vector.

    gamma^{0i} = d_i sqrt(m1 m2), gamma^{i0} = -gamma^{0i}, spatial
    components zero (laboratory frame).
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (3,):
        raise ValueError(f"dipole moment must have 3 components, got {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("dipole moment must be finite")
    scale = np.sqrt(atoms.m1 * atoms.m2)
    comp = np.zeros((4, 4))
    comp[0, 1:] = d * scale
    comp[1:, 0] = -d * scale
    return DipoleTensor(comp)


def contractions(gamma: DipoleTensor) -> dict:
    """Scalar and rank-2 contractions of the dipole tensor.

    Returns
    -------
    dict with
        gamma_sq : float
            gamma_{mu nu} gamma^{mu nu}. Negative for a purely electric
            tensor in this signature.
        gamma_sq_tensor : ndarray
            gamma^2_{tau lambda} = gamma^{mu}_{ tau} gamma_{mu lambda},
            symmetric, both indices down.
    """
    up = gamma.components
    down = METRIC @ up @ METRIC
    gamma_sq = float(np.sum(down * up))
    # gamma^mu_tau = g_{tau nu} gamma^{mu nu}; then contract with gamma_{mu lambda}
    mixed = up @ METRIC  # gamma^{mu}_{ tau}
    tensor = mixed.T @ down  # sum_mu gamma^{mu}_{ tau} gamma_{mu lambda}
    tensor = 0.5 * (tensor + tensor.T)  # symmetric up to round-off; enforce exactly
    return {"gamma_sq": gamma_sq, "gamma_sq_tensor": tensor}


def gamma_sq_dot(gamma: DipoleTensor, p: np.ndarray, q: np.ndarray | None = None) -> float:
    """Contraction gamma^2_{tau lambda} p^tau q^lambda (q defaults to p)."""
    if q is None:
        q = p
    t = contractions(gamma)["gamma_sq_tensor"]
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(p @ t @ q)


def minkowski_dot(p: np.ndarray, q: np.ndarray) -> float:
    """p . q = g_{mu nu} p^mu q^nu with signature (-,+,+,+)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(-p[0] * q[0] + p[1:] @ q[1:])


_INTERACTIONS = ("P", "P_tilde")


def engineering_dimension(interaction: str, n: int) -> Fraction:
    """Length dimension of the coupling for the two interaction choices.

    The derivative-free coupling P carries L^{(n-3)/2}; the
    time-derivative coupling P_tilde carries L^{(n-1)/2}, with n the
    number of spatial dimensions.
    """
    if interaction not in _INTERACTIONS:
        raise ValueError(f"interaction must be one of {_INTERACTIONS}, got {interaction!r}")
    if n not in (2, 3):
        raise ValueError(f"spatial dimension must be 2 or 3, got {n}")
    if interaction == "P_tilde":
        return Fraction(n - 1, 2)
    return Fraction(n - 3, 2)


def classify_renormalizability(interaction: str, n: int) -> str:
    """Classify by the sign of the coupling's length dimension.

    Positive exponent means the coupling grows with length
    (non-renormalizable), zero is marginal, negative is
    super-renormalizable.
    """
    e = engineering_dimension(interaction, n)
    if e > 0:
        return "non_renormalizable"
    if e == 0:
        return "marginal"
    return "super"
