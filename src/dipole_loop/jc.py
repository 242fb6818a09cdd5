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
bounds the stepped phases as it bounds direct ones. Each chunk is
computed into buffers allocated once per sector. measure_resonant_period
brackets its crossings on a uniform grid stepped by the same rule, and
bisects every crossing of a parity sector in lockstep.

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
    "JCParams",
    "JCState",
    "EvolutionResult",
    "rabi_coupling",
    "rabi_period",
    "build_hamiltonian",
    "parity_sectors",
    "evolve",
    "measure_resonant_period",
]

# eps * max|E| * t above which double-precision phases e^{-iEt} are refused
PHASE_PRECISION_BOUND = 1e-6
# sample times per block when accumulating populations in evolve. A (chunk, k)
# float buffer is 0.5 MB at k = 121, the largest sector a workload runs,
# so a chunk's four buffers stay near one core's L2; on one thread 512
# measured faster than 256, 1024 and 2048, each of which also moves
# jc_evolve.csv's last bits
_CHUNK = 512
# measure_resonant_period's bracket grid: 600 samples in 24 chunks of 25
# take 25 + 24 trig calls per eigenvalue, near the 2 sqrt(600) minimum
_GRID_POINTS = 600
_GRID_CHUNK = 25


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


def rabi_coupling(gamma: DipoleTensor, Omega: float, V: float, z: float, atoms: AtomPair) -> float:
    """Rabi coupling g = -gamma_x sqrt(Omega / V) sin(K z) / sqrt(m1 m2).

    The mode has K = Omega (c = 1) and field per photon sqrt(Omega / V) in
    volume V; z is the atom's position. gamma_x is the electric dipole
    component along the polarization (taken as the first spatial axis).
    """
    gamma_x = gamma.components[0, 1]
    return float(-gamma_x * np.sqrt(Omega / V) * np.sin(Omega * z) / np.sqrt(atoms.m1 * atoms.m2))


def rabi_period(g: float, n: int) -> float:
    """Resonant RWA period pi/(|g| sqrt(n+1)) of P_e from |upper, n> (Jaynes-Cummings)."""
    return np.pi / (abs(g) * np.sqrt(n + 1.0))


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


def _check_phase_precision(evals: np.ndarray, t_span: float) -> float:
    """The phase-rounding estimate eps*max|E|*t; refuse a span where it passes the bound."""
    estimate = np.finfo(float).eps * float(np.max(np.abs(evals))) * t_span
    if estimate > PHASE_PRECISION_BOUND:
        raise DynamicsError(
            f"phase precision estimate eps*max|E|*t = {estimate:.3e} exceeds "
            f"{PHASE_PRECISION_BOUND:.0e}: double-precision phases cannot resolve "
            "the dynamics over this time span"
        )
    return estimate


def _check_leakage(top: np.ndarray, p: JCParams) -> None:
    """Refuse dynamics whose top-band population passes p.leak_threshold."""
    if float(top.max()) > p.leak_threshold:
        raise TruncationError(
            f"top-band population {top.max():.3e} exceeds threshold {p.leak_threshold:.3e}; "
            "increase n_max"
        )


def _stepped_amplitudes(times, evals, vecs, coeff, chunk: int):
    """Yield (rows, re, im) of one sector's amplitudes, chunk samples at a time.

    times is the uniform grid j dt from 0, so e^{-iE(t0 + tau)} =
    e^{-iE t0} e^{-iE tau}: cos/sin of E tau are tabulated once for the
    offsets tau of one chunk, and each chunk starting at t0 folds
    e^{-iE t0}, computed directly from t0 (never by repeated
    multiplication, so nothing drifts), into the coefficient c. Then
    e^{-iE tau} c0 = (cos - i sin)(c_r + i c_i), so two real products with
    the real eigenvectors give psi(t0 + tau) = re + i im. vecs may hold
    only some rows of the sector's eigenvector matrix; re and im have a
    column per row.

    Every chunk is computed into the same four buffers, so re and im are
    overwritten by the next chunk: a caller copies what it keeps, and may
    use them as scratch space until it asks for the next chunk.
    """
    # times[:chunk] are also the offsets tau = j dt within every chunk
    phase = np.multiply.outer(times[:chunk], evals)
    cos, sin = np.cos(phase), np.sin(phase)
    left, right = np.empty_like(cos), np.empty_like(cos)
    re, im = np.empty((len(cos), len(vecs))), np.empty((len(cos), len(vecs)))
    for start in range(0, len(times), chunk):
        n = min(chunk, len(times) - start)
        e_t0 = evals * times[start]
        c0 = coeff * (np.cos(e_t0) - 1j * np.sin(e_t0))
        c_r, c_i = c0.real, c0.imag
        # re = (cos c_r + sin c_i) vecs^T, im = (cos c_i - sin c_r) vecs^T
        np.multiply(cos[:n], c_r, out=left[:n])
        left[:n] += np.multiply(sin[:n], c_i, out=right[:n])
        np.matmul(left[:n], vecs.T, out=re[:n])
        np.multiply(cos[:n], c_i, out=left[:n])
        left[:n] -= np.multiply(sin[:n], c_r, out=right[:n])
        np.matmul(left[:n], vecs.T, out=im[:n])
        yield slice(start, start + n), re[:n], im[:n]


def _stepped_populations(times, evals, vecs, coeff, chunk: int):
    """Yield (rows, pops), pops = re^2 + im^2 per basis state of the sector.

    The squares are taken in place in _stepped_amplitudes' buffers, so
    pops too is overwritten by the next chunk.
    """
    for rows, re, im in _stepped_amplitudes(times, evals, vecs, coeff, chunk):
        np.multiply(re, re, out=re)
        yield rows, np.add(re, np.multiply(im, im, out=im), out=re)


def _monitored_columns(idx: np.ndarray, nb: int) -> tuple:
    """(upper, at_top) of a sector: 1.0 on its upper-level columns, and its one top-band column."""
    (at_top,) = np.flatnonzero((idx == nb - 1) | (idx == 2 * nb - 1))
    return (idx < nb).astype(float), at_top


@dataclass(frozen=True)
class EvolutionResult:
    times: np.ndarray
    p_excited: np.ndarray
    inversion: np.ndarray
    norms: np.ndarray
    top_band: np.ndarray
    # eps*max|E|*t: the absolute error phase rounding may put in the populations
    phase_estimate: float
    params: JCParams = field(repr=False)
    sectors: list = field(repr=False, compare=False)

    @functools.cached_property
    def states(self) -> np.ndarray:
        """Amplitudes at every sample time, shape (len(times), dim), built on demand.

        Each chunk is copied out of _stepped_amplitudes' buffers before the
        next one overwrites them.
        """
        states = np.zeros((len(self.times), self.params.dim), dtype=complex)
        for idx, evals, vecs, coeff in self.sectors:
            for rows, re, im in _stepped_amplitudes(self.times, evals, vecs, coeff, _CHUNK):
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
    populations in chunks of _CHUNK samples, so the full state array is
    only built if EvolutionResult.states is read; both take their
    amplitudes from _stepped_amplitudes, which computes every chunk of a
    sector into the same buffers. Phases are stepped, one cos/sin table of
    E tau per sector and e^{-iE t0} per chunk, so a chunk costs O(k)
    trig calls instead of O(chunk k). Each phase is rounded from E t0 and
    E tau, both at most E t, so its error stays within the
    eps*max|E|*t that the phase-precision check bounds.

    Raises TruncationError if the top-band population ever exceeds
    p.leak_threshold (a single mode is assumed, not truncation
    artifacts). Raises DynamicsError when eps*max|E|*t exceeds
    PHASE_PRECISION_BOUND; below it the estimate is kept as
    EvolutionResult.phase_estimate.
    """
    if t < 0 or dt_report <= 0:
        raise ValueError("need t >= 0 and dt_report > 0")
    n_steps = int(np.floor(t / dt_report + 1e-9))
    times = np.arange(n_steps + 1) * dt_report
    sectors = _sector_eigen(p, state.amplitudes)
    phase_estimate = _check_phase_precision(np.concatenate([s[1] for s in sectors]), float(times[-1]))

    nb = p.n_max + 1
    p_exc = np.zeros(len(times))
    norms = np.zeros(len(times))
    top = np.zeros(len(times))
    for idx, evals, vecs, coeff in sectors:
        upper, at_top = _monitored_columns(idx, nb)
        for rows, pops in _stepped_populations(times, evals, vecs, coeff, _CHUNK):
            p_exc[rows] += pops @ upper
            norms[rows] += pops.sum(axis=1)
            top[rows] += pops[:, at_top]
    _check_leakage(top, p)
    return EvolutionResult(
        times=times,
        p_excited=p_exc,
        inversion=2.0 * p_exc - norms,
        norms=np.sqrt(norms),
        top_band=top,
        phase_estimate=phase_estimate,
        params=p,
        sectors=sectors,
    )


def measure_resonant_period(p: JCParams, n):
    """Measured oscillation period of P_e starting from |upper, n>.

    n is a photon number or a sequence of them, and the result a float or
    an array with one period per entry (nr's scalar-or-array convention).
    A period is twice the separation of the first two crossings of the
    mid-population level, found to the last bit on the exact evolution;
    for resonant RWA dynamics it equals rabi_period(g, n). Only the parity
    sector of |upper, n> is evolved, and its top band raises
    TruncationError past p.leak_threshold as in evolve.

    The crossings are bracketed on _GRID_POINTS samples over 1.5
    rabi_period(g, n), stepped in chunks of _GRID_CHUNK as evolve steps
    its samples. All crossings of one parity sector are then bisected in
    lockstep, one evaluation of P_e at all their midpoints per step.
    """
    brackets = [_crossing_brackets(p, int(k)) for k in np.atleast_1d(n)]
    periods = np.empty(len(brackets))
    for parity in (0, 1):
        ours = [i for i, b in enumerate(brackets) if b[0] == parity]
        if not ours:
            continue
        evals = _sector_spectrum(p, parity)[1]
        # two crossings per photon number, each with its own rows and level
        rows = np.repeat(np.stack([brackets[i][1] for i in ours]), 2, axis=0)
        mids = np.repeat([brackets[i][2] for i in ours], 2)
        lo, hi = (np.concatenate([brackets[i][j] for i in ours]) for j in (3, 4))

        def excess(ts):
            # P_e(ts[j]) - mids[j], one matrix-vector product per crossing:
            # no crossing's value depends on which others are evaluated
            phase = np.multiply.outer(ts, evals)[:, :, None]
            re, im = rows @ np.cos(phase), rows @ np.sin(phase)
            return np.sum((re * re + im * im)[:, :, 0], axis=1) - mids

        first, second = _bisect_lockstep(excess, lo, hi).reshape(-1, 2).T
        periods[ours] = 2.0 * (second - first)
    return float(periods[0]) if np.ndim(n) == 0 else periods


def _crossing_brackets(p: JCParams, n: int) -> tuple:
    """(parity, rows, mid, lo, hi) of the first two mid-level crossings of P_e from |upper, n>.

    rows are the sector eigenvectors' upper-level rows times the
    coefficients of |upper, n>, so that P_e(t) = |rows e^{-iEt}|^2; mid is
    the midpoint of P_e's extremes on the grid, and [lo[j], hi[j]] are the
    grid intervals where P_e - mid changes sign.
    """
    if n + 2 > p.n_max:
        raise ValueError(f"need n_max >= n + 2 for a clean truncation monitor, got n_max={p.n_max}")
    state = JCState.basis("upper", n, p.n_max)
    ((idx, evals, vecs, coeff),) = _sector_eigen(p, state.amplitudes)
    nb = p.n_max + 1
    guess = rabi_period(p.g, n)
    _check_phase_precision(evals, 1.5 * guess)
    ts = np.arange(_GRID_POINTS) * (1.5 * guess / (_GRID_POINTS - 1))
    # only the upper level and the top band enter P_e and the leakage check
    keep = (idx < nb) | (idx == 2 * nb - 1)
    upper, at_top = _monitored_columns(idx[keep], nb)
    pe, top = np.empty(len(ts)), np.empty(len(ts))
    for rows, pops in _stepped_populations(ts, evals, vecs[keep], coeff, _GRID_CHUNK):
        pe[rows] = pops @ upper
        top[rows] = pops[:, at_top]
    _check_leakage(top, p)
    mid = 0.5 * (pe.max() + pe.min())
    brackets = np.flatnonzero((pe[:-1] - mid) * (pe[1:] - mid) < 0)[:2]
    if len(brackets) < 2:
        raise DynamicsError("no oscillation detected; is g zero?")
    parity = (n + 1) % 2  # |upper, n> holds n + 1 excitations
    return parity, vecs[idx < nb] * coeff.real, mid, ts[brackets], ts[brackets + 1]


def _bisect_lockstep(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Roots of f in the brackets [lo[j], hi[j]], where f changes sign, to the last bit.

    f takes one point per bracket. Each step halves every bracket that
    still has a float strictly inside, by the sign of f at its midpoint,
    and a closed bracket stays as it is, so every root is the one that
    bisecting its bracket alone would give.
    """
    lo_negative = f(lo) < 0.0
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (lo < mid) & (mid < hi)
        if not open_.any():
            return mid
        to_lo = (f(mid) < 0.0) == lo_negative
        lo = np.where(open_ & to_lo, mid, lo)
        hi = np.where(open_ & ~to_lo, mid, hi)
