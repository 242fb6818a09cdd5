"""Conventions, the dipole tensor and its contractions, and power counting.

Everything here works in natural units (hbar = c = eps0 = mu0 = 1) with
metric signature (-,+,+,+). The dipole coupling is an antisymmetric
tensor gamma^{mu nu}; its electric components gamma^{0i} carry the
atomic dipole moment through gamma^{0i} = d_i sqrt(m1 m2). The metric's
diagonal is SIGNATURE. Everything here computes on plain floats and
tuples; numpy is imported only to build DipoleTensor.components.
"""

from __future__ import annotations

import functools
import math
from operator import mul

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
    intended regime (the class itself requires positive masses, nonzero squares and a finite M^2).
    """

    def __init__(self, m1: float, m2: float):
        if not (math.isfinite(m1) and math.isfinite(m2)):
            raise ValueError("masses must be finite")
        if m1 <= 0 or m2 <= 0:
            raise ValueError(f"masses must be positive, got m1={m1}, m2={m2}")
        if not (0.0 < min(m1 * m1, m2 * m2) and m1 * m1 + m2 * m2 < math.inf):  # every loop scale is built from them
            raise ValueError(f"m1 = {m1!r}, m2 = {m2!r}: m1^2 and m2^2 must be nonzero and m1^2 + m2^2 = 2 M^2 "
                             "finite (m >= 1.6e-162, m1^2 + m2^2 <= 1.8e308)")
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


def _dot(a, b) -> float:
    """sum_i a_i b_i, added left to right: the same bits on every Python version,
    which sum() (compensated from 3.12 on) would not give."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


class DipoleTensor(_Frozen):
    """Antisymmetric coupling gamma^{mu nu} (components with indices up), read-only.

    up holds the components as a tuple of row tuples; components is the same
    matrix as a read-only ndarray, built on first access.
    """

    def __init__(self, components):
        try:
            up = tuple(tuple(map(float, row)) for row in components)  # a copy
            shape = (len(up), *{len(row) for row in up})
        except TypeError:  # entries that are not rows
            up, shape = (), (len(components),)
        shape = getattr(components, "shape", shape)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"gamma must be a square matrix, got shape {tuple(shape)}")
        if not all(math.isfinite(v) for row in up for v in row):
            raise ValueError("gamma must be finite")
        if any(v != -up[nu][mu] for mu, row in enumerate(up) for nu, v in enumerate(row)):
            raise ValueError("gamma must be exactly antisymmetric")
        if shape[0] != 4:
            raise ValueError(f"gamma shape {tuple(shape)} does not match spacetime dimension 4")
        self.__dict__.update(up=up)

    @functools.cached_property
    def components(self):
        """The components as a read-only 4x4 ndarray."""
        import numpy as np
        comp = np.array(self.up)
        comp.flags.writeable = False
        return comp

    @functools.cached_property
    def _contractions(self) -> dict:
        """contractions() of this tensor, computed on first use."""
        g = SIGNATURE  # the diagonal metric lowers an index by scaling its rows or columns
        up = self.up
        mixed = [[v * g[nu] for nu, v in enumerate(row)] for row in up]  # gamma^{mu}_{ tau} = gamma^{mu nu} g_{nu tau}
        down = [[g[mu] * v for v in row] for mu, row in enumerate(mixed)]
        gamma_sq = math.fsum(d * u for d_row, u_row in zip(down, up) for d, u in zip(d_row, u_row))
        # then contract gamma^{mu}_{ tau} with gamma_{mu lambda}: sum_mu gamma^{mu}_{ tau} gamma_{mu lambda}
        tensor = [[_dot(tau, lam) for lam in zip(*down)] for tau in zip(*mixed)]
        # symmetric up to round-off; enforce exactly
        tensor = tuple(tuple(0.5 * (tensor[a][b] + tensor[b][a]) for b in range(4)) for a in range(4))
        return {"gamma_sq": gamma_sq, "gamma_sq_tensor": tensor}


def dipole_from_moment(d, atoms: AtomPair) -> DipoleTensor:
    """Build gamma^{mu nu} from an electric dipole moment vector.

    gamma^{0i} = d_i sqrt(m1 m2), gamma^{i0} = -gamma^{0i}, spatial
    components zero (laboratory frame). d needs 3 components, and a
    non-finite gamma is refused, as cli._physics refuses it.
    """
    shape = getattr(d, "shape", (len(d),) if hasattr(d, "__len__") else ())
    if tuple(shape) != (3,):
        raise ValueError(f"dipole moment must have 3 components, got {tuple(shape)}")
    scale = math.sqrt(atoms.m1 * atoms.m2)
    g = [float(x) * scale for x in d]
    if not all(map(math.isfinite, g)):
        raise ValueError("gamma must be finite")
    return DipoleTensor([(0.0, *g)] + [(-x, 0.0, 0.0, 0.0) for x in g])


def contractions(gamma: DipoleTensor) -> dict:
    """Scalar and rank-2 contractions of the dipole tensor.

    They are computed once per tensor and cached on it.

    Returns
    -------
    dict with
        gamma_sq : float
            gamma_{mu nu} gamma^{mu nu}. Negative for a purely electric
            tensor in this signature.
        gamma_sq_tensor : tuple of four row tuples
            gamma^2_{tau lambda} = gamma^{mu}_{ tau} gamma_{mu lambda},
            symmetric, both indices down.
    """
    return dict(gamma._contractions)


def gamma_sq_dot(gamma: DipoleTensor, p, q=None) -> float:
    """Contraction gamma^2_{tau lambda} p^tau q^lambda (q defaults to p)."""
    if q is None:
        q = p
    t = gamma._contractions["gamma_sq_tensor"]
    return _dot([_dot(p, column) for column in zip(*t)], q)


def minkowski_dot(p, q) -> float:
    """p . q = g_{mu nu} p^mu q^nu with signature (-,+,+,+)."""
    return _dot(map(mul, SIGNATURE, p), q)


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
