"""Single-mode Jaynes-Cummings dynamics in a truncated Fock space.

The Hamiltonian is H = Omega a^dag a + (omega12/2) sigma_z
+ g (sigma_+ a + a^dag sigma_-), with the counter-rotating terms
sigma_- a and sigma_+ a^dag optionally included. Evolution is exact by
eigendecomposition, so there is no time-stepping error; the only
approximation is the Fock truncation, which is monitored.

Basis ordering: index = level * (n_max + 1) + n with level 0 the upper
(excited) state and level 1 the lower state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import AtomPair, DipoleTensor
from .errors import TruncationError

__all__ = [
    "CavityMode",
    "JCParams",
    "JCState",
    "rabi_coupling",
    "build_hamiltonian",
    "evolve",
    "rwa_discrepancy",
    "measure_resonant_period",
]


@dataclass(frozen=True)
class CavityMode:
    """Single standing-wave mode of frequency Omega in volume V.

    K = Omega (c = 1) and E_per_photon = sqrt(Omega / V) is the electric
    field per photon; z is the longitudinal position of the atom.
    """

    Omega: float
    V: float
    z: float

    def __post_init__(self):
        if self.Omega <= 0:
            raise ValueError(f"Omega must be positive, got {self.Omega}")
        if self.V <= 0:
            raise ValueError(f"V must be positive, got {self.V}")

    @property
    def K(self) -> float:
        return self.Omega

    @property
    def E_per_photon(self) -> float:
        return np.sqrt(self.Omega / self.V)


@dataclass(frozen=True)
class JCParams:
    """Parameters of the truncated Jaynes-Cummings Hamiltonian."""

    g: float
    omega12: float
    Omega: float
    n_max: int
    rwa: bool = True
    leak_threshold: float = 1e-8

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not np.isfinite(self.omega12 - self.Omega):
            raise ValueError("detuning must be finite")

    @property
    def detuning(self) -> float:
        return self.omega12 - self.Omega

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)


@dataclass(frozen=True)
class JCState:
    """Complex amplitude vector over the (level, photon-number) basis."""

    amplitudes: np.ndarray
    n_max: int

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (2 * (self.n_max + 1),):
            raise ValueError(f"amplitude vector has shape {amp.shape}, expected ({2 * (self.n_max + 1)},)")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} deviates from 1 by more than 1e-12")
        amp = amp.copy()
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def basis(cls, level: str, n: int, n_max: int) -> "JCState":
        """Basis state |level, n> with level in {'upper', 'lower'}."""
        if level not in ("upper", "lower"):
            raise ValueError(f"level must be 'upper' or 'lower', got {level!r}")
        if not 0 <= n <= n_max:
            raise ValueError(f"photon number {n} outside [0, {n_max}]")
        amp = np.zeros(2 * (n_max + 1), dtype=complex)
        amp[(0 if level == "upper" else 1) * (n_max + 1) + n] = 1.0
        return cls(amp, n_max)

    def excited_population(self) -> float:
        return float(np.sum(np.abs(self.amplitudes[: self.n_max + 1]) ** 2))

    def inversion(self) -> float:
        p_up = self.excited_population()
        return 2.0 * p_up - 1.0

    def top_band_population(self) -> float:
        """Total population sitting at n = n_max, the truncation monitor."""
        nb = self.n_max + 1
        return float(abs(self.amplitudes[nb - 1]) ** 2 + abs(self.amplitudes[2 * nb - 1]) ** 2)


def rabi_coupling(gamma: DipoleTensor, cavity: CavityMode, atoms: AtomPair) -> float:
    """Rabi coupling g = -gamma_x E_per_photon sin(K z) / sqrt(m1 m2).

    gamma_x is the electric dipole-tensor component along the field
    polarization (taken as the first spatial axis).
    """
    gamma_x = gamma.components[0, 1]
    return float(-gamma_x * cavity.E_per_photon * np.sin(cavity.K * cavity.z) / np.sqrt(atoms.m1 * atoms.m2))


def build_hamiltonian(p: JCParams) -> np.ndarray:
    """Hermitian JC matrix on the truncated basis.

    With rwa the only coupling is sigma_+ a + a^dag sigma_-, which is
    block diagonal over the pairs {|upper, n>, |lower, n+1>}; without it
    the sigma_- a and sigma_+ a^dag terms are added.
    """
    nb = p.n_max + 1
    H = np.zeros((2 * nb, 2 * nb))
    ns = np.arange(nb)
    H[ns, ns] = ns * p.Omega + 0.5 * p.omega12
    H[nb + ns, nb + ns] = ns * p.Omega - 0.5 * p.omega12
    for n in range(p.n_max):
        c = p.g * np.sqrt(n + 1.0)
        # sigma_+ a : |lower, n+1> -> |upper, n>
        H[n, nb + n + 1] = c
        H[nb + n + 1, n] = c
        if not p.rwa:
            # sigma_+ a^dag : |lower, n> -> |upper, n+1>
            H[n + 1, nb + n] = c
            H[nb + n, n + 1] = c
    return H


@dataclass(frozen=True)
class EvolutionResult:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim)
    p_excited: np.ndarray
    inversion: np.ndarray
    norms: np.ndarray
    top_band: np.ndarray
    params: JCParams = field(repr=False)

    def state_at(self, i: int) -> JCState:
        amp = self.states[i] / np.linalg.norm(self.states[i])
        return JCState(amp, self.params.n_max)


def _propagate(H: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    evals, vecs = np.linalg.eigh(H)
    coeff = vecs.conj().T @ psi0
    phases = np.exp(-1j * np.outer(times, evals))
    return (phases * coeff) @ vecs.T


def evolve(
    state: JCState,
    p: JCParams,
    t: float,
    dt_report: float,
    enforce_truncation: bool = True,
) -> EvolutionResult:
    """Evolve exactly and sample every dt_report up to time t.

    Raises TruncationError if the top-band population ever exceeds
    p.leak_threshold (a single mode is assumed, not truncation
    artifacts); set enforce_truncation=False to only record it.
    """
    if t < 0 or dt_report <= 0:
        raise ValueError("need t >= 0 and dt_report > 0")
    H = build_hamiltonian(p)
    n_steps = int(np.floor(t / dt_report + 1e-9))
    times = np.arange(n_steps + 1) * dt_report
    states = _propagate(H, state.amplitudes, times)

    nb = p.n_max + 1
    pops = np.abs(states) ** 2
    p_exc = pops[:, :nb].sum(axis=1)
    norms = pops.sum(axis=1)
    top = pops[:, nb - 1] + pops[:, 2 * nb - 1]
    if enforce_truncation and float(top.max()) > p.leak_threshold:
        raise TruncationError(
            f"top-band population {top.max():.3e} exceeds threshold {p.leak_threshold:.3e}; "
            "increase n_max"
        )
    return EvolutionResult(
        times=times,
        states=states,
        p_excited=p_exc,
        inversion=2.0 * p_exc - norms,
        norms=np.sqrt(norms),
        top_band=top,
        params=p,
    )


def measure_resonant_period(p: JCParams, n: int) -> float:
    """Measured oscillation period of P_e starting from |upper, n>.

    Locates two consecutive crossings of the mid-population level and
    bisects each on the exact evolution to machine precision; the period
    is twice their separation. For resonant RWA dynamics this equals
    pi/(g sqrt(n+1)).
    """
    if n + 2 > p.n_max:
        raise ValueError(f"need n_max >= n + 2 for a clean truncation monitor, got n_max={p.n_max}")
    state = JCState.basis("upper", n, p.n_max)
    nb = p.n_max + 1
    evals, vecs = np.linalg.eigh(build_hamiltonian(p))
    coeff = vecs.conj().T @ state.amplitudes
    upper = vecs[:nb]

    def p_excited(ts) -> np.ndarray:
        psi = upper @ (np.exp(-1j * np.outer(evals, ts)) * coeff[:, None])
        return np.sum(np.abs(psi) ** 2, axis=0)

    guess = np.pi / (abs(p.g) * np.sqrt(n + 1.0))
    ts = np.linspace(0.0, 1.5 * guess, 600)
    pe = p_excited(ts)
    mid = 0.5 * (pe.max() + pe.min())
    crossings = []
    for i in range(len(ts) - 1):
        if (pe[i] - mid) * (pe[i + 1] - mid) < 0:
            crossings.append(_bisect(lambda t: p_excited(t)[0] - mid, ts[i], ts[i + 1]))
            if len(crossings) == 2:
                break
    if len(crossings) < 2:
        raise RuntimeError("no oscillation detected; is g zero?")
    return 2.0 * (crossings[1] - crossings[0])


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f in a bracket [lo, hi] where f changes sign, to the last bit."""
    lo_negative = f(lo) < 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if (f(mid) < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid


def rwa_discrepancy(p: JCParams, t_span: float, n_init: int = 0, n_samples: int = 2001) -> float:
    """Max over t_span of |P_e without RWA - P_e with RWA| from |upper, n_init>.

    Near resonance this is first order in g/(omega12 + Omega).
    """
    state = JCState.basis("upper", n_init, p.n_max)
    times = np.linspace(0.0, t_span, n_samples)
    nb = p.n_max + 1
    out = []
    for rwa in (True, False):
        H = build_hamiltonian(JCParams(p.g, p.omega12, p.Omega, p.n_max, rwa=rwa))
        states = _propagate(H, state.amplitudes, times)
        out.append(np.sum(np.abs(states[:, :nb]) ** 2, axis=1))
    return float(np.max(np.abs(out[0] - out[1])))
