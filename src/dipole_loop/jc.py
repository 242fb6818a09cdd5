"""Single-mode Jaynes-Cummings dynamics in a truncated Fock space.

The Hamiltonian is H = Omega a^dag a + (omega12/2) sigma_z
+ g (sigma_+ a + a^dag sigma_-), with the counter-rotating terms
sigma_- a and sigma_+ a^dag optionally included. Evolution is exact by
eigendecomposition, so there is no time-stepping error; the only
approximation is the Fock truncation, which is monitored. H is real and
conserves excitation parity with or without the RWA, so each parity
sector is diagonalised on its own and has real eigenvectors.

Every time grid is uniform, so one kernel, _stepped, steps the phases,
e^{-iE(t0 + tau)} = e^{-iE t0} e^{-iE tau}: one complex table of
e^{-iE tau} per sector, eigenvalue-major, and e^{-iE t0} computed
directly once per chunk. Neither factor is rounded from a product larger
than E t, so the phase-precision check bounds the stepped phases as it
bounds direct ones. A chunk is one complex product of the table with the
coefficients and one real matrix product with the eigenvectors, computed
into buffers allocated once per sector; a second, small product sums the
squares into P_e, norm^2 and the top band. evolve and
EvolutionResult.states run the kernel on one grid; measure_resonant_period
checks every photon number, then runs it per parity sector: one bracket
grid per photon number, all in the same chunk steps, and every crossing
of the sector bisected in lockstep.

Basis ordering: index = level * (n_max + 1) + n with level 0 the upper
(excited) state and level 1 the lower state.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import _Frozen
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
# sample times per chunk in evolve. The (k, chunk) complex table, the
# product buffer and the (k, 2 chunk) real amplitude buffer are 1 MB each
# at k = 121, the largest sector a workload runs. On one thread of a 2 vCPU
# Xeon, 512 measured as fast as 256 and faster than 1024 and 2048 on the
# cavity-scale evolution; any other size also moves jc_evolve.csv's last bits
_CHUNK = 512
# measure_resonant_period's bracket grids: 600 samples in 24 chunks of 25
# take 25 + 24 trig calls per eigenvalue and photon number, near the
# 2 sqrt(600) minimum, and 24 chunk steps per parity sector
_GRID_POINTS = 600
_GRID_CHUNK = 25


class JCParams(_Frozen):
    """Parameters of the truncated Jaynes-Cummings Hamiltonian."""

    def __init__(self, g: float, omega12: float, Omega: float, n_max: int, rwa: bool = True,
                 leak_threshold: float = 1e-8):
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        if not np.isfinite(omega12 - Omega):
            raise ValueError("detuning must be finite")
        self.__dict__.update(g=g, omega12=omega12, Omega=Omega, n_max=n_max, rwa=rwa, leak_threshold=leak_threshold)

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)


class JCState(_Frozen):
    """Complex amplitude vector over the (level, photon-number) basis; its length 2 (n_max + 1) fixes n_max."""

    def __init__(self, amplitudes: np.ndarray):
        amp = np.array(amplitudes, dtype=complex)  # a copy, frozen below
        if amp.ndim != 1 or amp.size % 2 or amp.size < 4:
            raise ValueError(f"amplitude vector has shape {amp.shape}, expected an even length of at least 4")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} deviates from 1 by more than 1e-12")
        amp.flags.writeable = False
        self.__dict__.update(amplitudes=amp)

    @classmethod
    def basis(cls, level: str, n: int, n_max: int) -> "JCState":
        """Basis state |level, n> with level in {'upper', 'lower'}."""
        if level not in ("upper", "lower"):
            raise ValueError(f"level must be 'upper' or 'lower', got {level!r}")
        if not 0 <= n <= n_max:
            raise ValueError(f"photon number {n} outside [0, {n_max}]")
        amp = np.zeros(2 * (n_max + 1), dtype=complex)
        amp[(0 if level == "upper" else 1) * (n_max + 1) + n] = 1.0
        return cls(amp)


def rabi_coupling(d_x: float, Omega: float, V: float, z: float) -> float:
    """Rabi coupling g = -d_x sqrt(Omega / V) sin(K z).

    The mode has K = Omega (c = 1) and field per photon sqrt(Omega / V) in
    volume V; z is the atom's position. d_x is the electric dipole moment
    along the polarization (taken as the first spatial axis).
    """
    return float(-d_x * np.sqrt(Omega / V) * np.sin(Omega * z))


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
    n, c = ns[:-1], p.g * np.sqrt(ns[1:])
    # sigma_+ a : |lower, n+1> -> |upper, n>
    H[n, nb + n + 1] = H[nb + n + 1, n] = c
    if not p.rwa:
        # sigma_+ a^dag : |lower, n> -> |upper, n+1>
        H[n + 1, nb + n] = H[nb + n, n + 1] = c
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


def _sector_spectrum(p: JCParams, parity: int) -> tuple:
    """(idx, evals, vecs) of the block of H on one parity sector.

    The block is real symmetric, so vecs is real.
    """
    idx = parity_sectors(p.n_max)[parity]
    return (idx, *np.linalg.eigh(build_hamiltonian(p)[np.ix_(idx, idx)]))


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


def _stepped(times, evals, vecs, coeff, chunk: int, weights=None):
    """Yield (cols, out) of one sector's dynamics on m uniform grids, chunk samples at a time.

    Row i of times is the grid j dt_i from 0, and column i of coeff (k, m)
    the eigen-coefficients of the state that follows it. Since
    e^{-iE(t0 + tau)} = e^{-iE t0} e^{-iE tau}, the complex table
    e^{-iE tau} of shape (k, m, chunk) is tabulated once for the offsets
    tau of one chunk, and each chunk starting at t0 folds e^{-iE t0},
    computed directly from t0 (never by repeated multiplication, so
    nothing drifts), into the coefficients c0. A chunk is then one complex
    product z = table c0 and one real product vecs z.view(float), which
    gives the amplitudes of every grid, psi = vecs z, with re and im
    interleaved. vecs may hold only some rows of the sector's
    eigenvector matrix.

    Without weights, out is psi as a complex (rows, m, n) view. With
    weights, a (w, rows) matrix, the squares of psi are taken in place
    and out is weights |psi|^2, shape (w, m, n): one population sum per
    weight row and sample. Every chunk is computed into the same buffers,
    so out is overwritten by the next chunk: a caller copies what it keeps.
    """
    (k, m), rows, n_times = coeff.shape, len(vecs), times.shape[1]
    # times[:, :chunk] are also the offsets tau = j dt_i within every chunk
    phase = evals[:, None, None] * times[:, :chunk]
    table = np.cos(phase) - 1j * np.sin(phase)
    z_buf, psi_buf = np.empty(table.size, dtype=complex), np.empty(2 * rows * m * chunk)
    for start in range(0, n_times, chunk):
        n = min(chunk, n_times - start)
        e_t0 = np.multiply.outer(evals, times[:, start])
        c0 = coeff * (np.cos(e_t0) - 1j * np.sin(e_t0))
        z = np.multiply(table[:, :, :n], c0[:, :, None], out=z_buf[: k * m * n].reshape(k, m, n))
        psi = np.matmul(vecs, z.view(float).reshape(k, 2 * m * n), out=psi_buf[: 2 * rows * m * n].reshape(rows, -1))
        if weights is None:
            yield slice(start, start + n), psi.view(complex).reshape(rows, m, n)
        else:
            squares = weights @ np.multiply(psi, psi, out=psi)
            yield slice(start, start + n), np.add(squares[:, 0::2], squares[:, 1::2]).reshape(-1, m, n)


def _monitor_weights(idx: np.ndarray, nb: int) -> np.ndarray:
    """Weights over a sector's basis states idx whose population sums are P_e, norm^2 and the top band."""
    return np.array([idx < nb, np.ones_like(idx, dtype=bool), (idx == nb - 1) | (idx == 2 * nb - 1)], dtype=float)


class EvolutionResult(_Frozen):
    """Sampled populations of one evolution; phase_estimate is eps*max|E|*t,
    the absolute error phase rounding may put in them."""

    def __init__(self, times, p_excited, inversion, norms, top_band, phase_estimate, params, sectors):
        self.__dict__.update(times=times, p_excited=p_excited, inversion=inversion, norms=norms,
                             top_band=top_band, phase_estimate=phase_estimate, params=params, sectors=sectors)

    @functools.cached_property
    def states(self) -> np.ndarray:
        """Amplitudes at every sample time, shape (len(times), dim), built on demand.

        Each chunk is copied out of _stepped's buffers before the next one
        overwrites them.
        """
        states = np.zeros((len(self.times), self.params.dim), dtype=complex)
        for idx, evals, vecs, coeff in self.sectors:
            for cols, psi in _stepped(self.times[None], evals, vecs, coeff[:, None], _CHUNK):
                states[cols, idx] = psi[:, 0].T
        return states


def evolve(
    state: JCState,
    p: JCParams,
    t: float,
    dt_report: float,
) -> EvolutionResult:
    """Evolve exactly and sample every dt_report up to time t.

    Works per parity sector with real eigenvectors and accumulates the
    populations in chunks of _CHUNK samples stepped by _stepped (see the
    module docstring), so the full state array is only built if
    EvolutionResult.states is read.

    Raises ValueError if the state's length is not p.dim, TruncationError
    if the top-band population ever exceeds p.leak_threshold (a single
    mode is assumed, not truncation artifacts), and DynamicsError when
    eps*max|E|*t exceeds PHASE_PRECISION_BOUND; below it the estimate is
    kept as EvolutionResult.phase_estimate.
    """
    if t < 0 or dt_report <= 0:
        raise ValueError("need t >= 0 and dt_report > 0")
    if state.amplitudes.size != p.dim:
        raise ValueError(f"state has {state.amplitudes.size} amplitudes, expected dim = {p.dim} for n_max = {p.n_max}")
    n_steps = int(np.floor(t / dt_report + 1e-9))
    times = np.arange(n_steps + 1) * dt_report
    sectors = _sector_eigen(p, state.amplitudes)
    phase_estimate = _check_phase_precision(np.concatenate([s[1] for s in sectors]), float(times[-1]))

    # P_e, norm^2 and the top band, each summed over the sectors
    p_exc, norms, top = pops = np.zeros((3, len(times)))
    for idx, evals, vecs, coeff in sectors:
        weights = _monitor_weights(idx, p.n_max + 1)
        for cols, out in _stepped(times[None], evals, vecs, coeff[:, None], _CHUNK, weights):
            pops[:, cols] += out[:, 0]
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
    rabi_period(g, n), one grid per photon number, stepped in chunks of
    _GRID_CHUNK by the kernel evolve uses, every grid of a parity sector
    in the same chunk steps. All crossings of one parity sector are then
    bisected in lockstep, one evaluation of P_e at all their midpoints
    per step. Every photon number is checked before any sector is built;
    then each sector needed takes one pass, from its spectrum to bisection.
    """
    ns = list(map(int, np.atleast_1d(n)))
    for k in ns:
        if k + 2 > p.n_max:
            raise ValueError(f"need n_max >= n + 2 for a clean truncation monitor, got n_max={p.n_max}")
        if k < 0:
            raise ValueError(f"photon number {k} outside [0, {p.n_max}]")
    parities = [(k + 1) % 2 for k in ns]  # |upper, k> holds k + 1 excitations
    periods = np.empty(len(ns))
    for parity in dict.fromkeys(parities):
        ours = [i for i, q in enumerate(parities) if q == parity]
        idx, evals, vecs = _sector_spectrum(p, parity)
        rows, mids, lo, hi = _crossing_brackets(p, [ns[i] for i in ours], idx, evals, vecs)
        # two crossings per photon number, each with its own rows and level
        rows, mids = np.repeat(rows, 2, axis=0), np.repeat(mids, 2)

        def excess(ts):
            # P_e(ts[j]) - mids[j], one matrix-vector product per crossing:
            # no crossing's value depends on which others are evaluated
            phase = np.multiply.outer(ts, evals)[:, :, None]
            re, im = rows @ np.cos(phase), rows @ np.sin(phase)
            return np.sum((re * re + im * im)[:, :, 0], axis=1) - mids

        first, second = _bisect_lockstep(excess, lo.ravel(), hi.ravel()).reshape(-1, 2).T
        periods[ours] = 2.0 * (second - first)
    return float(periods[0]) if np.ndim(n) == 0 else periods


def _crossing_brackets(p: JCParams, ns, idx, evals, vecs) -> tuple:
    """(rows, mids, lo, hi) of the first two mid-level crossings of P_e from each |upper, n>, n in ns.

    idx, evals and vecs are the spectrum of the parity sector that holds
    every |upper, n>. rows[j] are the sector eigenvectors' upper-level rows
    times the coefficients of |upper, ns[j]>, so that P_e(t) =
    |rows[j] e^{-iEt}|^2; mids[j] is the midpoint of P_e's extremes on its
    grid, and [lo[j, i], hi[j, i]] are the grid intervals where P_e -
    mids[j] changes sign. Each photon number is checked for phase
    precision before any grid is stepped, and for leakage on its own
    grid, in the order of ns.
    """
    # |upper, n> is basis vector n: its eigen-coefficients are that row
    coeff = vecs[np.searchsorted(idx, ns)]
    nb = p.n_max + 1
    spans = [1.5 * rabi_period(p.g, n) for n in ns]
    for span in spans:
        _check_phase_precision(evals, span)
    ts = np.multiply.outer(np.divide(spans, _GRID_POINTS - 1), np.arange(_GRID_POINTS))
    # only the upper level and the top band enter P_e and the leakage check
    keep = (idx < nb) | (idx == 2 * nb - 1)
    pe, _, top = pops = np.empty((3, *ts.shape))
    for cols, out in _stepped(ts, evals, vecs[keep], coeff.T, _GRID_CHUNK, _monitor_weights(idx[keep], nb)):
        pops[:, :, cols] = out
    mids = 0.5 * (pe.max(axis=1) + pe.min(axis=1))
    lo, hi = np.empty((2, len(ns), 2))
    for j, mid in enumerate(mids):
        _check_leakage(top[j], p)
        brackets = np.flatnonzero((pe[j, :-1] - mid) * (pe[j, 1:] - mid) < 0)[:2]
        if len(brackets) < 2:
            raise DynamicsError("no oscillation detected; is g zero?")
        lo[j], hi[j] = ts[j, brackets], ts[j, brackets + 1]
    return vecs[idx < nb] * coeff[:, None, :], mids, lo, hi


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
