"""Conventions, the dipole tensor and its contractions, and power counting.

Everything here works in natural units (hbar = c = eps0 = mu0 = 1) with
metric signature (-,+,+,+). The dipole coupling is an antisymmetric
tensor gamma^{mu nu}; its electric components gamma^{0i} carry the
atomic dipole moment through gamma^{0i} = d_i sqrt(m1 m2). numpy is
imported by the functions that use it; the metric's diagonal is SIGNATURE.
"""

from __future__ import annotations

import functools
import math

from .errors import KinematicDomainError

__all__ = [
    "SIGNATURE",
    "AtomPair",
    "DipoleTensor",
    "dipole_from_moment",
    "contractions",
    "gamma_sq_dot",
    "minkowski_dot",
    "engineering_dimension",
    "classify_renormalizability",
]

# the diagonal of the Minkowski metric g_{mu nu}, which is its own inverse
SIGNATURE = (-1.0, 1.0, 1.0, 1.0)


class _Frozen:
    """Base of the read-only records: __init__ stores the fields in the instance
    __dict__, and assigning or deleting one later raises AttributeError."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of {type(self).__name__} is read-only")

    __delattr__ = __setattr__


class AtomPair(_Frozen):
    """The two level masses and the derived expansion quantities.

    m1 is the upper level, m2 the lower, so omega12 = m1 - m2 >= 0 in the
    intended regime (the class itself only requires positivity).
    """

    def __init__(self, m1: float, m2: float):
        if not (math.isfinite(m1) and math.isfinite(m2)):
            raise ValueError("masses must be finite")
        if m1 <= 0 or m2 <= 0:
            raise ValueError(f"masses must be positive, got m1={m1}, m2={m2}")
        self.__dict__.update(m1=m1, m2=m2)

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

    def require_small_b(self) -> None:
        if abs(self.b) >= 1.0:
            raise KinematicDomainError(f"|b| = |delta|/M^2 = {abs(self.b):.3g} >= 1.0; expansion invalid")


class DipoleTensor(_Frozen):
    """Antisymmetric coupling gamma^{mu nu} (components with indices up), read-only."""

    def __init__(self, components: np.ndarray):
        import numpy as np
        comp = np.array(components, dtype=float)  # a copy, frozen below
        if comp.ndim != 2 or comp.shape[0] != comp.shape[1]:
            raise ValueError(f"gamma must be a square matrix, got shape {comp.shape}")
        if not np.isfinite(comp).all():
            raise ValueError("gamma must be finite")
        if not np.array_equal(comp, -comp.T):
            raise ValueError("gamma must be exactly antisymmetric")
        if comp.shape[0] != 4:
            raise ValueError(f"gamma shape {comp.shape} does not match spacetime dimension 4")
        comp.flags.writeable = False
        self.__dict__.update(components=comp)

    @functools.cached_property
    def _contractions(self) -> dict:
        """contractions() of this tensor, computed on first use."""
        import numpy as np
        g = np.diag(SIGNATURE)
        up = self.components
        down = g @ up @ g
        gamma_sq = float(np.sum(down * up))
        # gamma^mu_tau = g_{tau nu} gamma^{mu nu}; then contract with gamma_{mu lambda}
        mixed = up @ g  # gamma^{mu}_{ tau}
        tensor = mixed.T @ down  # sum_mu gamma^{mu}_{ tau} gamma_{mu lambda}
        tensor = 0.5 * (tensor + tensor.T)  # symmetric up to round-off; enforce exactly
        tensor.flags.writeable = False
        return {"gamma_sq": gamma_sq, "gamma_sq_tensor": tensor}


def dipole_from_moment(d: np.ndarray, atoms: AtomPair) -> DipoleTensor:
    """Build gamma^{mu nu} from an electric dipole moment vector.

    gamma^{0i} = d_i sqrt(m1 m2), gamma^{i0} = -gamma^{0i}, spatial
    components zero (laboratory frame). d needs 3 components, as numpy
    would broadcast fewer; a non-finite gamma is refused in pure Python, as
    cli._physics refuses it, before numpy's product could warn of an overflow.
    """
    import numpy as np
    d = np.asarray(d, dtype=float)
    if d.shape != (3,):
        raise ValueError(f"dipole moment must have 3 components, got {d.shape}")
    scale = math.sqrt(atoms.m1 * atoms.m2)
    if not all(math.isfinite(x * scale) for x in d.tolist()):
        raise ValueError("gamma must be finite")
    comp = np.zeros((4, 4))
    comp[0, 1:] = d * scale
    comp[1:, 0] = -d * scale
    return DipoleTensor(comp)


def contractions(gamma: DipoleTensor) -> dict:
    """Scalar and rank-2 contractions of the dipole tensor.

    They are computed once per tensor and cached on it.

    Returns
    -------
    dict with
        gamma_sq : float
            gamma_{mu nu} gamma^{mu nu}. Negative for a purely electric
            tensor in this signature.
        gamma_sq_tensor : ndarray
            gamma^2_{tau lambda} = gamma^{mu}_{ tau} gamma_{mu lambda},
            symmetric, both indices down, read-only.
    """
    return dict(gamma._contractions)


def gamma_sq_dot(gamma: DipoleTensor, p: np.ndarray, q: np.ndarray | None = None) -> float:
    """Contraction gamma^2_{tau lambda} p^tau q^lambda (q defaults to p)."""
    import numpy as np
    if q is None:
        q = p
    t = gamma._contractions["gamma_sq_tensor"]
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(p @ t @ q)


def minkowski_dot(p: np.ndarray, q: np.ndarray) -> float:
    """p . q = g_{mu nu} p^mu q^nu with signature (-,+,+,+)."""
    import numpy as np
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(-p[0] * q[0] + p[1:] @ q[1:])


_INTERACTIONS = ("P", "P_tilde")


def engineering_dimension(interaction: str, n: int):
    """Length dimension of the coupling for the two interaction choices,
    as an exact fractions.Fraction.

    The derivative-free coupling P carries L^{(n-3)/2}; the
    time-derivative coupling P_tilde carries L^{(n-1)/2}, with n the
    number of spatial dimensions.
    """
    from fractions import Fraction
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
