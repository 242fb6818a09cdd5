"""Cavity dynamics: Hamiltonian structure, evolution, Rabi periods."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipole_loop import jc
from dipole_loop.core import AtomPair, dipole_from_moment
from dipole_loop.errors import DynamicsError, TruncationError
from dipole_loop.jc import (
    JCParams,
    JCState,
    build_hamiltonian,
    evolve,
    measure_resonant_period,
    parity_sectors,
    rabi_coupling,
    rabi_period,
)

# sector path against the dense complex propagation, fixed beforehand
FAST_ABS = 1e-11


def resonant(g=0.002, omega12=0.05, n_max=8, rwa=True, leak_threshold=1e-8):
    return JCParams(g=g, omega12=omega12, Omega=omega12, n_max=n_max, rwa=rwa, leak_threshold=leak_threshold)


class TestCoupling:
    def test_antinode_value(self):
        atoms = AtomPair(m1=1.0, m2=0.95)
        gamma = dipole_from_moment(np.array([0.01, 0.0, 0.0]), atoms)
        omega = 0.05
        g = rabi_coupling(gamma, omega, 2.0, np.pi / (2 * omega), atoms)
        # g = -gamma_x sqrt(Omega/V) sin(K z) / sqrt(m1 m2), K = Omega
        expect = -0.01 * np.sqrt(atoms.m1 * atoms.m2) * np.sqrt(omega / 2.0) / np.sqrt(atoms.m1 * atoms.m2)
        assert g == pytest.approx(expect, rel=1e-12)

    def test_node_kills_coupling(self):
        atoms = AtomPair(m1=1.0, m2=0.95)
        gamma = dipole_from_moment(np.array([0.01, 0.0, 0.0]), atoms)
        omega = 0.05
        assert rabi_coupling(gamma, omega, 1.0, np.pi / omega, atoms) == pytest.approx(0.0, abs=1e-15)  # sin(pi) = 0


class TestHamiltonian:
    def test_hermitian(self):
        for rwa in (True, False):
            H = build_hamiltonian(resonant(rwa=rwa))
            assert np.allclose(H, H.conj().T)

    def test_diagonal_energies(self):
        p = JCParams(g=0.0, omega12=0.3, Omega=0.7, n_max=3)
        H = build_hamiltonian(p)
        nb = p.n_max + 1
        for n in range(nb):
            assert H[n, n] == pytest.approx(n * 0.7 + 0.15)
            assert H[nb + n, nb + n] == pytest.approx(n * 0.7 - 0.15)

    def test_rwa_coupling_pattern(self):
        p = resonant(g=0.01, n_max=3)
        H = build_hamiltonian(p)
        nb = p.n_max + 1
        # |upper, n> couples to |lower, n+1> with g sqrt(n+1)
        for n in range(p.n_max):
            assert H[n, nb + n + 1] == pytest.approx(0.01 * np.sqrt(n + 1))
        # no counter-rotating entries
        assert H[0, nb] == 0.0
        assert H[1, nb] == 0.0

    def test_counter_rotating_pattern(self):
        p = resonant(g=0.01, n_max=3, rwa=False)
        H = build_hamiltonian(p)
        nb = p.n_max + 1
        # |upper, n+1> additionally couples to |lower, n>
        for n in range(p.n_max):
            assert H[n + 1, nb + n] == pytest.approx(0.01 * np.sqrt(n + 1))


class TestParitySectors:
    def test_partition(self):
        even, odd = parity_sectors(4)
        assert sorted(np.concatenate([even, odd]).tolist()) == list(range(10))
        # |upper, n> has n + 1 excitations (index n), |lower, n> has n (index 5 + n)
        assert even.tolist() == [1, 3, 5, 7, 9]
        assert odd.tolist() == [0, 2, 4, 6, 8]

    @pytest.mark.parametrize("rwa", [True, False])
    def test_hamiltonian_never_crosses_sectors(self, rwa):
        p = JCParams(g=0.03, omega12=0.07, Omega=0.05, n_max=120, rwa=rwa)
        H = build_hamiltonian(p)
        even, odd = parity_sectors(p.n_max)
        assert np.count_nonzero(H[np.ix_(even, odd)]) == 0
        assert np.count_nonzero(H[np.ix_(odd, even)]) == 0
        # every coupling lies inside a sector
        assert np.count_nonzero(H[np.ix_(even, even)]) + np.count_nonzero(H[np.ix_(odd, odd)]) == np.count_nonzero(H)


class TestState:
    def test_basis_indexing(self):
        up = JCState.basis("upper", 2, 4)
        lo = JCState.basis("lower", 0, 4)
        assert up.amplitudes[2] == 1.0
        assert lo.amplitudes[5] == 1.0
        # the upper level occupies the first n_max + 1 entries
        assert np.sum(np.abs(up.amplitudes[:5]) ** 2) == 1.0
        assert np.sum(np.abs(lo.amplitudes[:5]) ** 2) == 0.0

    def test_norm_enforced(self):
        amp = np.zeros(10, dtype=complex)
        amp[0] = 0.9
        with pytest.raises(ValueError, match="norm"):
            JCState(amp, 4)

    def test_basis_bounds(self):
        with pytest.raises(ValueError):
            JCState.basis("upper", 5, 4)
        with pytest.raises(ValueError):
            JCState.basis("middle", 0, 4)


class TestEvolution:
    def test_norm_conserved(self):
        p = resonant()
        state = JCState.basis("upper", 0, p.n_max)
        period = np.pi / p.g
        out = evolve(state, p, 10 * period, period / 50)
        assert np.max(np.abs(out.norms - 1.0)) < 1e-12

    def test_block_conservation_rwa(self):
        # starting from |upper, n>, the RWA dynamics stay in the
        # {|upper, n>, |lower, n+1>} pair
        p = resonant()
        n = 1
        state = JCState.basis("upper", n, p.n_max)
        out = evolve(state, p, 5 * np.pi / p.g, np.pi / (20 * p.g))
        nb = p.n_max + 1
        pops = np.abs(out.states) ** 2
        block = pops[:, n] + pops[:, nb + n + 1]
        assert np.max(np.abs(block - 1.0)) < 1e-10

    def test_full_inversion_at_half_period(self):
        p = resonant(g=0.004)
        state = JCState.basis("upper", 0, p.n_max)
        half = 0.5 * np.pi / p.g
        out = evolve(state, p, half, half / 200)
        assert out.p_excited[0] == pytest.approx(1.0)
        assert out.p_excited[-1] == pytest.approx(0.0, abs=1e-10)

    def test_truncation_guard(self):
        # counter-rotating terms push population to the top band when
        # n_max is tight and the threshold is strict
        p = JCParams(g=0.05, omega12=0.05, Omega=0.05, n_max=2, rwa=False, leak_threshold=1e-12)
        state = JCState.basis("upper", 0, p.n_max)
        with pytest.raises(TruncationError):
            evolve(state, p, 500.0, 1.0)

    def test_time_validation(self):
        p = resonant()
        state = JCState.basis("upper", 0, p.n_max)
        with pytest.raises(ValueError):
            evolve(state, p, -1.0, 0.1)
        with pytest.raises(ValueError):
            evolve(state, p, 1.0, 0.0)


def _superposition(n_max):
    # weight in both parity sectors, with complex amplitudes
    amp = np.zeros(2 * (n_max + 1), dtype=complex)
    amp[2] = 0.6                   # |upper, 2>, odd
    amp[n_max + 1 + 2] = 0.48j     # |lower, 2>, even
    amp[1] = -0.36 + 0.48j         # |upper, 1>, even
    amp[n_max + 1 + 4] = 0.2       # |lower, 4>, even
    return JCState(amp / np.linalg.norm(amp), n_max)


# the cavity-scale benchmark's Hamiltonian (seed 0, rounded) and initial state |upper, 40>
CAVITY = JCParams(g=-0.00256, omega12=0.0542, Omega=0.0484, n_max=120, rwa=False)
CAVITY_T = 2 * np.pi / (0.00256 * np.sqrt(41.0))


def _oracle_case(case):
    """(params, state, span, samples, rows compared, bound on phase-dependent values)."""
    if case.startswith("cavity"):
        state = JCState.basis("upper", 40, CAVITY.n_max)
        if case == "cavity":
            t, phase_abs = CAVITY_T, FAST_ABS
        else:
            # just under the phase bound. FAST_ABS cannot hold here: E t is
            # ~4e9 rad, so every double-precision phase, direct or stepped,
            # and the dense oracle's from its own eigenvalues, is rounded by
            # up to ~eps*max|E|*t. The populations and amplitudes are held
            # to that estimate, the outer bound the check admits; norms,
            # which no phase touches, still hold FAST_ABS.
            (_, evals, _, _), = jc._sector_eigen(CAVITY, state.amplitudes)
            phase_abs = 0.99 * jc.PHASE_PRECISION_BOUND
            t = phase_abs / (np.finfo(float).eps * np.max(np.abs(evals)))
        # full chunks and a ragged last one; dense rows at the first chunk
        # edge and at 2047/2048, the edge of the earlier 2,048-sample chunk
        return CAVITY, state, t, 20000, [0, jc._CHUNK - 1, jc._CHUNK, 2047, 2048, 19999], phase_abs
    p = JCParams(
        g=0.004,
        omega12=0.05 if case != "detuned" else 0.062,
        Omega=0.05,
        n_max=14,
        rwa=case == "rwa",
    )
    state = _superposition(p.n_max) if case == "superposition" else JCState.basis("upper", 3, p.n_max)
    # three full accumulation chunks and a ragged one, all compared: every
    # chunk is computed into the buffers of the one before it, so states
    # must copy each chunk out before the next
    return p, state, 3 * np.pi / p.g, 3 * jc._CHUNK + 101, slice(None), FAST_ABS


class TestSectorEvolutionOracle:
    """evolve's sector, real-arithmetic path against the dense _propagate."""

    @pytest.mark.parametrize(
        "case", ["rwa", "no_rwa", "detuned", "superposition", "cavity", "cavity_near_bound"]
    )
    def test_matches_dense_propagation(self, case):
        p, state, t, n_samples, rows, phase_abs = _oracle_case(case)
        out = evolve(state, p, t, t / (n_samples - 1))
        assert len(out.times) == n_samples
        dense = jc._propagate(build_hamiltonian(p), state.amplitudes, out.times[rows])
        pops = np.abs(dense) ** 2
        nb = p.n_max + 1
        p_excited, total = pops[:, :nb].sum(axis=1), pops.sum(axis=1)
        assert np.max(np.abs(out.p_excited[rows] - p_excited)) <= phase_abs
        assert np.max(np.abs(out.inversion[rows] - (2 * p_excited - total))) <= phase_abs
        assert np.max(np.abs(out.norms[rows] - np.sqrt(total))) <= FAST_ABS
        assert np.max(np.abs(out.top_band[rows] - (pops[:, nb - 1] + pops[:, 2 * nb - 1]))) <= FAST_ABS
        assert np.max(np.abs(out.states[rows] - dense)) <= phase_abs

    def test_superposition_has_both_sectors(self):
        p = JCParams(g=0.004, omega12=0.05, Omega=0.05, n_max=14, rwa=False)
        out = evolve(_superposition(p.n_max), p, 100.0, 10.0)
        assert len(out.sectors) == 2
        assert len(evolve(JCState.basis("lower", 0, p.n_max), p, 100.0, 10.0).sectors) == 1

    def test_phase_estimate_recorded(self):
        # g = 0 leaves H diagonal; the sector of |upper, 0> (odd excitation
        # number) holds |upper, 8> at the top, E = 8 Omega + omega12/2
        p = resonant(g=0.0)
        out = evolve(JCState.basis("upper", 0, p.n_max), p, 1000.0, 10.0)
        assert out.phase_estimate == pytest.approx(np.finfo(float).eps * (8 * 0.05 + 0.5 * 0.05) * 1000.0, rel=1e-15)

    def test_refuses_unresolvable_phases(self):
        p = resonant(g=1e-13)
        state = JCState.basis("upper", 0, p.n_max)
        with pytest.raises(DynamicsError, match=r"eps\*max\|E\|\*t = "):
            evolve(state, p, 2 * np.pi / p.g, np.pi / p.g)


class TestPhaseStepping:
    """evolve's phases e^{-iE(t0 + tau)} from one table per sector."""

    def test_trig_per_chunk_is_per_eigenvalue(self, monkeypatch):
        # per-sample phases would pass every sample's E t through cos and sin
        counted = {}
        for name in ("cos", "sin"):
            def counting(x, *args, _name=name, _fn=getattr(np, name), **kwargs):
                counted[_name] = counted.get(_name, 0) + np.size(x)
                return _fn(x, *args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        p = JCParams(g=0.004, omega12=0.05, Omega=0.05, n_max=14, rwa=False)
        n_samples = 2 * jc._CHUNK + 300
        out = evolve(_superposition(p.n_max), p, (n_samples - 1) * 0.5, 0.5)
        assert len(out.times) == n_samples and len(out.sectors) == 2
        chunks = -(-n_samples // jc._CHUNK)
        limit = sum((jc._CHUNK + chunks) * len(evals) for _, evals, _, _ in out.sectors)
        assert counted["cos"] <= limit
        assert counted["sin"] <= limit


def _bisect(f, lo, hi):
    """Root of f in a bracket [lo, hi] where f changes sign, to the last bit.

    The scalar bisection jc.measure_resonant_period used per crossing
    before its lockstep search, kept as that search's oracle.
    """
    lo_negative = f(lo) < 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if (f(mid) < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid


def _populations(evals, rows, ts):
    """|rows e^{-iE t}|^2 per row, with cos and sin of every E t taken directly."""
    phase = np.multiply.outer(evals, ts)
    re, im = rows @ np.cos(phase), rows @ np.sin(phase)
    return re * re + im * im


def _slow_period(p, n):
    """The period search before the stepped grid and the lockstep bisection.

    Direct cos/sin on a 600-point linspace bracket the crossings of the mid
    level, and each crossing is bisected on its own with scalar calls.
    """
    nb = p.n_max + 1
    ((idx, evals, vecs, coeff),) = jc._sector_eigen(p, JCState.basis("upper", n, p.n_max).amplitudes)
    upper = vecs[idx < nb] * coeff.real
    ts = np.linspace(0.0, 1.5 * rabi_period(p.g, n), 600)
    pe = np.sum(_populations(evals, upper, ts), axis=0)
    mid = 0.5 * (pe.max() + pe.min())
    brackets = np.flatnonzero((pe[:-1] - mid) * (pe[1:] - mid) < 0)[:2]
    first, second = (_bisect(lambda t: np.sum(_populations(evals, upper, t)) - mid, ts[i], ts[i + 1])
                     for i in brackets)
    return 2.0 * (second - first)


def _crossing_functions(p, n):
    """[(f, lo, hi)] per crossing of |upper, n>: jc's brackets and P_e - mid as a scalar function."""
    idx, evals, vecs = jc._sector_spectrum(p, (n + 1) % 2)
    rows, mid, lo, hi = jc._crossing_brackets(p, n, idx, evals, vecs)
    return [(lambda t: np.sum(_populations(evals, rows, t)) - mid, a, b) for a, b in zip(lo, hi)]


def _dense_period(p, n):
    """The period search on the full space in complex arithmetic."""
    nb = p.n_max + 1
    evals, vecs = np.linalg.eigh(build_hamiltonian(p))
    coeff = vecs.conj().T @ JCState.basis("upper", n, p.n_max).amplitudes
    upper = vecs[:nb]

    def p_excited(ts):
        psi = upper @ (np.exp(-1j * np.outer(evals, ts)) * coeff[:, None])
        return np.sum(np.abs(psi) ** 2, axis=0)

    ts = np.linspace(0.0, 1.5 * np.pi / (abs(p.g) * np.sqrt(n + 1.0)), 600)
    pe = p_excited(ts)
    mid = 0.5 * (pe.max() + pe.min())
    crossings = []
    for i in range(len(ts) - 1):
        if (pe[i] - mid) * (pe[i + 1] - mid) < 0 and len(crossings) < 2:
            crossings.append(_bisect(lambda t: p_excited(t)[0] - mid, ts[i], ts[i + 1]))
    return 2.0 * (crossings[1] - crossings[0])


def _mp_period(p, n):
    """The period in 40-digit arithmetic, from the same double Hamiltonian and sample times.

    The sector's eigensystem comes from mpmath.eigsy, P_e is evaluated
    exactly at every sample of the stepped bracket grid, and the two
    crossings of its mid level are refined by findroot.
    """
    with mpmath.workdps(40):
        nb = p.n_max + 1
        idx = parity_sectors(p.n_max)[(n + 1) % 2]
        E, Q = mpmath.eigsy(mpmath.matrix(build_hamiltonian(p)[np.ix_(idx, idx)].tolist()))
        k, at = len(idx), int(np.flatnonzero(idx == n)[0])
        rows = [[Q[j, m] * Q[at, m] for m in range(k)] for j in range(k) if idx[j] < nb]

        def p_excited(t):
            c = [mpmath.cos(E[m] * t) for m in range(k)]
            s = [mpmath.sin(E[m] * t) for m in range(k)]
            return mpmath.fsum(mpmath.fdot(w, c) ** 2 + mpmath.fdot(w, s) ** 2 for w in rows)

        ts = [mpmath.mpf(t) for t in np.arange(jc._GRID_POINTS) * (1.5 * rabi_period(p.g, n) / (jc._GRID_POINTS - 1))]
        pe = [p_excited(t) for t in ts]
        mid = (max(pe) + min(pe)) / 2
        crossings = [i for i in range(len(ts) - 1) if (pe[i] - mid) * (pe[i + 1] - mid) < 0][:2]
        first, second = (mpmath.findroot(lambda t: p_excited(t) - mid, (ts[i], ts[i + 1]), solver="anderson")
                         for i in crossings)
        return 2 * (second - first)


class TestRabiPeriod:
    @pytest.mark.parametrize("n", [0, 3, 7, 10])
    def test_sector_search_matches_dense(self, n):
        p = resonant(g=0.004, n_max=12, rwa=False, leak_threshold=1.0)
        assert measure_resonant_period(p, n) == pytest.approx(_dense_period(p, n), rel=1e-12)

    def test_refuses_unresolvable_phases(self):
        with pytest.raises(DynamicsError, match="phase precision"):
            measure_resonant_period(resonant(g=1e-13), 0)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_resonant_period(self, n):
        p = resonant()
        measured = measure_resonant_period(p, n)
        predicted = np.pi / (p.g * np.sqrt(n + 1))
        assert measured == pytest.approx(predicted, rel=1e-6)

    @given(st.floats(5e-4, 5e-3), st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_period_scaling(self, g, n):
        p = resonant(g=g)
        measured = measure_resonant_period(p, n)
        assert measured == pytest.approx(np.pi / (g * np.sqrt(n + 1)), rel=1e-6)

    def test_refuses_truncation_leakage(self):
        # without the RWA, n = 5 at n_max 8 puts about 4.9e-4 in the top band
        p = resonant(g=0.004, n_max=8, rwa=False)
        with pytest.raises(TruncationError, match="top-band population .* exceeds threshold 1.000e-08"):
            measure_resonant_period(p, 5)
        assert measure_resonant_period(resonant(g=0.004, n_max=8, rwa=False, leak_threshold=1e-3), 5) > 0
        assert measure_resonant_period(resonant(g=0.004, n_max=14, rwa=False), 5) > 0

    def test_rabi_period(self):
        assert rabi_period(-0.002, 3) == np.pi / (0.002 * 2.0)

    def test_needs_headroom(self):
        with pytest.raises(ValueError, match="n_max"):
            measure_resonant_period(resonant(n_max=4), 3)

    def test_bisection_matches_brentq(self):
        # the crossings were refined with brentq before; bisection must land
        # on the crossings brentq finds of the same function in the same
        # brackets, here without the RWA so the periods are not exact
        from scipy.optimize import brentq

        p = resonant(g=0.004, n_max=12, rwa=False, leak_threshold=1.0)
        ns = (0, 3, 7)
        slow = []
        for n in ns:
            first, second = (brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16) for f, lo, hi in _crossing_functions(p, n))
            slow.append(2.0 * (second - first))
        assert measure_resonant_period(p, ns).tolist() == pytest.approx(slow, rel=1e-10)


# the cavity-scale jc-rabi Hamiltonian (CAVITY at resonance) and photon numbers
CAVITY_RABI = JCParams(g=CAVITY.g, omega12=CAVITY.omega12, Omega=CAVITY.omega12, n_max=120, rwa=False)
CAVITY_N = (0, 1, 2, 3, 5, 8, 13, 21)
# the stepped grid against the direct one, fixed beforehand: a few ulps of
# P_e move mid, and so each crossing, by a few ulps of the period
SLOW_REL = 1e-13
# both searches against 40-digit arithmetic, fixed beforehand
MP_REL = 1e-12


class TestPeriodSearchOracles:
    """The batched period search against the scalar search it replaced and against mpmath."""

    @pytest.mark.parametrize("p, ns", [
        pytest.param(resonant(g=0.004, n_max=12), (0, 1, 2, 3, 7, 10), id="rwa-12"),
        pytest.param(resonant(g=0.004, n_max=12, rwa=False, leak_threshold=1.0), (7, 0, 3, 10, 2, 1), id="no-rwa-12"),
        pytest.param(resonant(g=0.002, omega12=0.03, n_max=40, rwa=False), (0, 1, 4, 9, 15, 30), id="no-rwa-40"),
        pytest.param(JCParams(g=CAVITY.g, omega12=CAVITY.omega12, Omega=CAVITY.omega12, n_max=120), CAVITY_N,
                     id="rwa-120"),
        pytest.param(CAVITY_RABI, CAVITY_N, id="no-rwa-120"),
    ])
    def test_matches_slow_path(self, p, ns):
        fast = measure_resonant_period(p, ns)
        assert isinstance(fast, np.ndarray) and fast.shape == (len(ns),)
        slow = np.array([_slow_period(p, n) for n in ns])
        assert np.max(np.abs(fast - slow) / slow) <= SLOW_REL
        # a single photon number gives a float, the same as its batched entry
        one = measure_resonant_period(p, ns[-1])
        assert isinstance(one, float) and one == fast[-1]

    @pytest.mark.parametrize("p, ns", [
        pytest.param(resonant(g=0.004, n_max=12), (0, 1, 2, 3, 7, 10), id="rwa-12"),
        pytest.param(CAVITY_RABI, CAVITY_N, id="no-rwa-120"),
    ])
    def test_lockstep_matches_scalar_bisection(self, p, ns):
        # given the same brackets and mid, every lockstep root is the one
        # scalar bisection finds, bit for bit: only the grid moves periods
        scalar = []
        for n in ns:
            first, second = (_bisect(f, lo, hi) for f, lo, hi in _crossing_functions(p, n))
            scalar.append(2.0 * (second - first))
        assert measure_resonant_period(p, ns).tolist() == scalar

    @pytest.mark.parametrize("rwa", [True, False], ids=["rwa", "no-rwa"])
    def test_both_searches_match_mpmath(self, rwa):
        p = resonant(g=0.004, n_max=12, rwa=rwa, leak_threshold=1.0)
        ns = (0, 3, 4)
        exact = np.array([float(_mp_period(p, n)) for n in ns])
        assert np.max(np.abs(measure_resonant_period(p, ns) - exact) / exact) <= MP_REL
        assert np.max(np.abs(np.array([_slow_period(p, n) for n in ns]) - exact) / exact) <= MP_REL


class TestNoCacheAcrossCalls:
    """Each call diagonalises the sectors it needs itself, and nothing is kept for the next call."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = jc.build_hamiltonian

        def counting(p):
            calls.append(p)
            return build(p)

        monkeypatch.setattr(jc, "build_hamiltonian", counting)
        return calls

    def test_period_search_builds_each_parity_once_per_call(self, builds):
        # both parities, each with several photon numbers, and a second
        # call on equal parameters builds both again
        for _ in range(2):
            builds.clear()
            measure_resonant_period(resonant(n_max=30, rwa=False), [0, 1, 2, 3, 5, 8, 13])
            assert len(builds) == 2

    def test_refuses_negative_photon_number_before_building(self, builds):
        # |upper, n> is read from the sector spectrum by its basis index,
        # so a negative n must be refused before it indexes anything
        with pytest.raises(ValueError, match="photon number -1 outside"):
            measure_resonant_period(resonant(), [0, -1])
        assert len(builds) == 1

    def test_evolve_from_basis_state_builds_once(self, builds):
        p = resonant(n_max=30, rwa=False)
        evolve(JCState.basis("upper", 3, p.n_max), p, 100.0, 1.0)
        assert len(builds) == 1
