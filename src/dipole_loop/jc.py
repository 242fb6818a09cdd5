"""Single-mode Jaynes-Cummings dynamics in a truncated Fock space.

The Hamiltonian is H = Omega a^dag a + (omega12/2) sigma_z
+ g (sigma_+ a + a^dag sigma_-), with the counter-rotating terms
sigma_- a and sigma_+ a^dag optionally included. Evolution is exact by
eigendecomposition, so there is no time-stepping error; the only
approximation is the Fock truncation, which is monitored. H is real and
conserves excitation parity with or without the RWA, so each parity
sector is diagonalised and evolved on its own in real arithmetic.

The sample grid is uniform, so evolve steps the phases,
e^{-iE(t0 + tau)} = e^{-iE t0} e^{-iE tau}: one cos/sin table of E tau per
sector, and e^{-iE t0} computed directly once per chunk. Neither factor
is rounded from a product larger than E t, so the phase-precision check
bounds the stepped phases as it bounds direct ones.

Basis ordering: index = level * (n_max + 1) + n with level 0 the upper
(excited) state and level 1 the lower state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import AtomPair, DipoleTensor
from .errors import DynamicsError, TruncationError

__all__ = [
    "CavityMode",
    "JCParams",
    "JCState",
    "EvolutionResult",
    "rabi_coupling",
    "build_hamiltonian",
    "parity_sectors",
    "evolve",
    "measure_resonant_period",
]

# eps * max|E| * t above which double-precision phases e^{-iEt} are refused
PHASE_PRECISION_BOUND = 1e-6
# sample times per block when accumulating populations in evolve
_CHUNK = 2048


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


def rabi_coupling(gamma: DipoleTensor, cavity: CavityMode, atoms: AtomPair) -> float:
    """Rabi coupling g = -gamma_x E_per_photon sin(K z) / sqrt(m1 m2).

    gamma_x is the electric dipole-tensor component along the field
    polarization (taken as the first spatial axis).
    """
    gamma_x = gamma.components[0, 1]
    return float(-gamma_x * cavity.E_per_photon * np.sin(cavity.Omega * cavity.z) / np.sqrt(atoms.m1 * atoms.m2))


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


def parity_sectors(n_max: int) -> tuple:
    """Basis indices of the even and odd excitation-parity sectors.

    |upper, n> has n + 1 excitations and |lower, n> has n. Every term of
    H, with or without the rotating-wave approximation, changes the
    excitation number by 0 or 2, so H is block diagonal over the two.
    """
    nb = n_max + 1
    parity = np.concatenate([np.arange(1, nb + 1), np.arange(nb)]) % 2
    return np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)


@functools.lru_cache(maxsize=8)
def _sector_spectrum(p: JCParams, parity: int) -> tuple:
    """(idx, evals, vecs) of the block of H on one parity sector.

    The block is real symmetric, so vecs is real. Cached per parameter
    set, because jc-rabi measures several periods on one Hamiltonian and
    each sector needs diagonalising once; the arrays are read-only.
    """
    idx = parity_sectors(p.n_max)[parity]
    evals, vecs = np.linalg.eigh(build_hamiltonian(p)[np.ix_(idx, idx)])
    for a in (idx, evals, vecs):
        a.flags.writeable = False
    return idx, evals, vecs


def _sector_eigen(p: JCParams, psi0: np.ndarray) -> list:
    """(idx, evals, vecs, coeff) for each parity sector where psi0 has weight.

    coeff = vecs^T psi0[idx] carries the (possibly complex) amplitudes of
    psi0 in the sector's eigenbasis.
    """
    sectors = []
    for parity, idx in enumerate(parity_sectors(p.n_max)):
        if np.any(psi0[idx]):
            _, evals, vecs = _sector_spectrum(p, parity)
            sectors.append((idx, evals, vecs, vecs.T @ psi0[idx]))
    return sectors


def _check_phase_precision(evals: np.ndarray, t_span: float) -> None:
    """Refuse a time span over which double-precision phases E t lose precision."""
    estimate = np.finfo(float).eps * float(np.max(np.abs(evals))) * t_span
    if estimate > PHASE_PRECISION_BOUND:
        raise DynamicsError(
            f"phase precision estimate eps*max|E|*t = {estimate:.3e} exceeds "
            f"{PHASE_PRECISION_BOUND:.0e}: double-precision phases cannot resolve "
            "the dynamics over this time span"
        )


def _stepped_amplitudes(times, evals, vecs, coeff):
    """Yield (rows, re, im) of one sector's amplitudes, chunk by chunk.

    times is the uniform grid j dt from 0, so e^{-iE(t0 + tau)} =
    e^{-iE t0} e^{-iE tau}: cos/sin of E tau are tabulated once for the
    offsets tau of one chunk, and each chunk starting at t0 folds
    e^{-iE t0}, computed directly from t0 (never by repeated
    multiplication, so nothing drifts), into the coefficient c. Then
    e^{-iE tau} c0 = (cos - i sin)(c_r + i c_i), so two real products with
    the real eigenvectors give psi(t0 + tau) = re + i im.
    """
    # times[:_CHUNK] are also the offsets tau = j dt within every chunk
    phase = np.multiply.outer(times[:_CHUNK], evals)
    cos, sin = np.cos(phase), np.sin(phase)
    for start in range(0, len(times), _CHUNK):
        rows = slice(start, start + _CHUNK)
        n = len(times[rows])
        e_t0 = evals * times[start]
        c0 = coeff * (np.cos(e_t0) - 1j * np.sin(e_t0))
        c_r, c_i = c0.real, c0.imag
        re = (cos[:n] * c_r + sin[:n] * c_i) @ vecs.T
        im = (cos[:n] * c_i - sin[:n] * c_r) @ vecs.T
        yield rows, re, im


@dataclass(frozen=True)
class EvolutionResult:
    times: np.ndarray
    p_excited: np.ndarray
    inversion: np.ndarray
    norms: np.ndarray
    top_band: np.ndarray
    params: JCParams = field(repr=False)
    sectors: list = field(repr=False, compare=False)

    @functools.cached_property
    def states(self) -> np.ndarray:
        """Amplitudes at every sample time, shape (len(times), dim), built on demand."""
        states = np.zeros((len(self.times), self.params.dim), dtype=complex)
        for idx, evals, vecs, coeff in self.sectors:
            for rows, re, im in _stepped_amplitudes(self.times, evals, vecs, coeff):
                states[rows, idx] = re + 1j * im
        return states


def _propagate(H: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Dense complex propagation on the full space; the oracle of the sector path."""
    evals, vecs = np.linalg.eigh(H)
    coeff = vecs.conj().T @ psi0
    phases = np.exp(-1j * np.outer(times, evals))
    return (phases * coeff) @ vecs.T


def evolve(
    state: JCState,
    p: JCParams,
    t: float,
    dt_report: float,
) -> EvolutionResult:
    """Evolve exactly and sample every dt_report up to time t.

    Works per parity sector in real arithmetic and accumulates the
    populations in chunks of samples, so the full state array is only
    built if EvolutionResult.states is read; both take their amplitudes
    from _stepped_amplitudes. Phases are stepped, one cos/sin table of
    E tau per sector and e^{-iE t0} per chunk, so a chunk costs O(k)
    trig calls instead of O(chunk k). Each phase is rounded from E t0 and
    E tau, both at most E t, so its error stays within the
    eps*max|E|*t that the phase-precision check bounds.

    Raises TruncationError if the top-band population ever exceeds
    p.leak_threshold (a single mode is assumed, not truncation
    artifacts). Raises DynamicsError when eps*max|E|*t exceeds
    PHASE_PRECISION_BOUND.
    """
    if t < 0 or dt_report <= 0:
        raise ValueError("need t >= 0 and dt_report > 0")
    n_steps = int(np.floor(t / dt_report + 1e-9))
    times = np.arange(n_steps + 1) * dt_report
    sectors = _sector_eigen(p, state.amplitudes)
    _check_phase_precision(np.concatenate([s[1] for s in sectors]), float(times[-1]))

    nb = p.n_max + 1
    p_exc = np.zeros(len(times))
    norms = np.zeros(len(times))
    top = np.zeros(len(times))
    for idx, evals, vecs, coeff in sectors:
        upper = (idx < nb).astype(float)
        (at_top,) = np.flatnonzero((idx == nb - 1) | (idx == 2 * nb - 1))
        for rows, re, im in _stepped_amplitudes(times, evals, vecs, coeff):
            pops = re * re + im * im
            p_exc[rows] += pops @ upper
            norms[rows] += pops.sum(axis=1)
            top[rows] += pops[:, at_top]
    if float(top.max()) > p.leak_threshold:
        raise TruncationError(
            f"top-band population {top.max():.3e} exceeds threshold {p.leak_threshold:.3e}; "
            "increase n_max"
        )
    return EvolutionResult(
        times=times,
        p_excited=p_exc,
        inversion=2.0 * p_exc - norms,
        norms=np.sqrt(norms),
        top_band=top,
        params=p,
        sectors=sectors,
    )


def measure_resonant_period(p: JCParams, n: int) -> float:
    """Measured oscillation period of P_e starting from |upper, n>.

    Locates two consecutive crossings of the mid-population level and
    bisects each on the exact evolution to machine precision; the period
    is twice their separation. For resonant RWA dynamics this equals
    pi/(g sqrt(n+1)). Only the parity sector of |upper, n> is evolved.
    """
    if n + 2 > p.n_max:
        raise ValueError(f"need n_max >= n + 2 for a clean truncation monitor, got n_max={p.n_max}")
    state = JCState.basis("upper", n, p.n_max)
    nb = p.n_max + 1
    ((idx, evals, vecs, coeff),) = _sector_eigen(p, state.amplitudes)
    upper = vecs[idx < nb] * coeff.real

    def p_excited(ts) -> np.ndarray:
        phase = np.multiply.outer(evals, ts)
        re, im = upper @ np.cos(phase), upper @ np.sin(phase)
        return np.sum(re * re + im * im, axis=0)

    guess = np.pi / (abs(p.g) * np.sqrt(n + 1.0))
    _check_phase_precision(evals, 1.5 * guess)
    ts = np.linspace(0.0, 1.5 * guess, 600)
    pe = p_excited(ts)
    mid = 0.5 * (pe.max() + pe.min())
    brackets = np.flatnonzero((pe[:-1] - mid) * (pe[1:] - mid) < 0)[:2]
    if len(brackets) < 2:
        raise DynamicsError("no oscillation detected; is g zero?")
    first, second = (_bisect(lambda t: p_excited(t) - mid, ts[i], ts[i + 1]) for i in brackets)
    return 2.0 * (second - first)


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
