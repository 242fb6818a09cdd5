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
# evolve's eigen-major complex kernel against the time-major real one it
# replaced, fixed beforehand: both round the same phases, in another order
KERNEL_ABS = 8 * np.finfo(float).eps
# evolve against 40-digit arithmetic: phase_estimate + MP_EIG_C eps |H| / gap,
# with the eigensolver's eps |H| / gap per sector, fixed beforehand
MP_EIG_C = 8


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


class TestRecords:
    """JCParams, JCState and EvolutionResult: construction, validation messages, read-only fields."""

    def test_params_construction_and_defaults(self):
        for p in (JCParams(0.002, 0.05, 0.04, 8), JCParams(n_max=8, Omega=0.04, omega12=0.05, g=0.002)):
            assert (p.g, p.omega12, p.Omega, p.n_max, p.rwa, p.leak_threshold) == (0.002, 0.05, 0.04, 8, True, 1e-8)
            assert p.dim == 18
        p = JCParams(0.002, 0.05, 0.04, 8, False, 1e-6)
        assert (p.rwa, p.leak_threshold) == (False, 1e-6)

    @pytest.mark.parametrize("args, message", [
        ((0.002, 0.05, 0.05, 0), "n_max must be >= 1, got 0"),
        ((0.002, np.inf, 0.05, 4), "detuning must be finite"),
        ((0.002, np.inf, np.inf, 4), "detuning must be finite"),
    ])
    def test_params_refusals(self, args, message):
        with pytest.raises(ValueError) as info:
            JCParams(*args)
        assert info.value.args == (message,)

    def test_state_construction(self):
        amp = np.zeros(10)
        amp[3] = 1.0
        for state in (JCState(amp, 4), JCState(n_max=4, amplitudes=amp)):
            assert state.n_max == 4 and state.amplitudes.dtype == complex
            assert np.array_equal(state.amplitudes, amp)
            with pytest.raises(ValueError):
                state.amplitudes[0] = 1.0
        amp[3] = 0.5
        assert state.amplitudes[3] == 1.0  # a copy

    @pytest.mark.parametrize("amp, message", [
        (np.eye(1, 9, 0).ravel(), "amplitude vector has shape (9,), expected (10,)"),
        (0.9 * np.eye(1, 10, 0).ravel(), "state norm 0.9 deviates from 1 by more than 1e-12"),
    ])
    def test_state_refusals(self, amp, message):
        with pytest.raises(ValueError) as info:
            JCState(amp, 4)
        assert info.value.args == (message,)

    def test_result_positional_order(self):
        fields = ("times", "p_excited", "inversion", "norms", "top_band", "phase_estimate", "params", "sectors")
        result = jc.EvolutionResult(*fields)
        assert [getattr(result, name) for name in fields] == list(fields)

    @pytest.mark.parametrize("record, field", [
        (resonant(), "g"),
        (resonant(), "n_max"),
        (JCState.basis("upper", 0, 4), "amplitudes"),
        (evolve(JCState.basis("upper", 0, 4), resonant(n_max=4), 10.0, 1.0), "times"),
        (evolve(JCState.basis("upper", 0, 4), resonant(n_max=4), 10.0, 1.0), "states"),
    ])
    def test_fields_read_only(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.5)
        with pytest.raises(AttributeError):
            delattr(record, field)

    def test_states_cached(self, monkeypatch):
        # built by the kernel on first read only, and the same bits on a
        # second evolution of the same state
        p = resonant()
        state = JCState.basis("upper", 0, p.n_max)
        calls, stepped = [], jc._stepped
        monkeypatch.setattr(jc, "_stepped", lambda *args: calls.append(None) or stepped(*args))
        result = evolve(state, p, 2.0 * rabi_period(p.g, 0), 0.5 * rabi_period(p.g, 0) / 100)
        after_evolve = len(calls)
        states = result.states
        assert len(calls) == after_evolve + len(result.sectors)
        assert result.states is states
        assert len(calls) == after_evolve + len(result.sectors)
        again = evolve(state, p, 2.0 * rabi_period(p.g, 0), 0.5 * rabi_period(p.g, 0) / 100).states
        assert again.tobytes() == states.tobytes()
        nb = p.n_max + 1
        assert np.max(np.abs(np.sum(np.abs(states[:, :nb]) ** 2, axis=1) - result.p_excited)) < 1e-14


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


def _propagate(H, psi0, times):
    """Dense complex propagation on the full space; the oracle of the sector path."""
    evals, vecs = np.linalg.eigh(H)
    coeff = vecs.conj().T @ psi0
    phases = np.exp(-1j * np.outer(times, evals))
    return (phases * coeff) @ vecs.T


def _time_major_populations(p, state, times):
    """(P_e, norm^2, top band) by the time-major real kernel evolve used before its complex one.

    Per sector, cos and sin of E tau form (chunk, k) tables, e^{-iE t0}
    is folded into the coefficients c0 per chunk, and re and im come from
    two real products with the eigenvectors: re = (cos c_r + sin c_i)
    vecs^T, im = (cos c_i - sin c_r) vecs^T. The same phases as evolve's,
    rounded in another order.
    """
    nb, chunk = p.n_max + 1, jc._CHUNK
    pops = np.zeros((3, len(times)))
    for idx, evals, vecs, coeff in jc._sector_eigen(p, state.amplitudes):
        upper = (idx < nb).astype(float)
        (at_top,) = np.flatnonzero((idx == nb - 1) | (idx == 2 * nb - 1))
        phase = np.multiply.outer(times[:chunk], evals)
        cos, sin = np.cos(phase), np.sin(phase)
        for start in range(0, len(times), chunk):
            n = min(chunk, len(times) - start)
            e_t0 = evals * times[start]
            c0 = coeff * (np.cos(e_t0) - 1j * np.sin(e_t0))
            re = (cos[:n] * c0.real + sin[:n] * c0.imag) @ vecs.T
            im = (cos[:n] * c0.imag - sin[:n] * c0.real) @ vecs.T
            squares = re * re + im * im
            pops[:, start:start + n] += [squares @ upper, squares.sum(axis=1), squares[:, at_top]]
    return pops


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
        dense = _propagate(build_hamiltonian(p), state.amplitudes, out.times[rows])
        pops = np.abs(dense) ** 2
        nb = p.n_max + 1
        p_excited, total = pops[:, :nb].sum(axis=1), pops.sum(axis=1)
        assert np.max(np.abs(out.p_excited[rows] - p_excited)) <= phase_abs
        assert np.max(np.abs(out.inversion[rows] - (2 * p_excited - total))) <= phase_abs
        assert np.max(np.abs(out.norms[rows] - np.sqrt(total))) <= FAST_ABS
        assert np.max(np.abs(out.top_band[rows] - (pops[:, nb - 1] + pops[:, 2 * nb - 1]))) <= FAST_ABS
        assert np.max(np.abs(out.states[rows] - dense)) <= phase_abs

    @pytest.mark.parametrize("case", ["rwa", "no_rwa", "detuned", "superposition", "cavity"])
    def test_matches_time_major_kernel(self, case):
        p, state, t, n_samples, _, _ = _oracle_case(case)
        out = evolve(state, p, t, t / (n_samples - 1))
        p_excited, norm2, top = _time_major_populations(p, state, out.times)
        assert np.max(np.abs(out.p_excited - p_excited)) <= KERNEL_ABS
        assert np.max(np.abs(out.inversion - (2 * p_excited - norm2))) <= KERNEL_ABS
        assert np.max(np.abs(out.norms - np.sqrt(norm2))) <= KERNEL_ABS
        assert np.max(np.abs(out.top_band - top)) <= KERNEL_ABS

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


def _mp_spectra(p, state):
    """(idx, E, Q) of every sector where state has weight, by 40-digit mpmath.eigsy, and max |H| / gap.

    Each block is the same double Hamiltonian block evolve diagonalises.
    """
    H, spectra, scale = build_hamiltonian(p), [], 0.0
    with mpmath.workdps(40):
        for idx in parity_sectors(p.n_max):
            if np.any(state.amplitudes[idx]):
                E, Q = mpmath.eigsy(mpmath.matrix(H[np.ix_(idx, idx)].tolist()))
                energies = sorted(E)
                gap = min(b - a for a, b in zip(energies, energies[1:]))
                scale = max(scale, float(max(abs(e) for e in energies) / gap))
                spectra.append((idx, list(E), Q))
    return spectra, scale


def _mp_populations(p, state, times, spectra):
    """(P_e, norm^2, top band) at times in 40-digit arithmetic, from one (idx, E, Q) per sector.

    Every phase e^{-iEt} is taken at the exact double t, and the
    coefficients of state in each eigenbasis are summed exactly, so
    nothing of evolve's double arithmetic enters beyond the spectra given.
    """
    nb = p.n_max + 1
    with mpmath.workdps(40):
        pops = [[mpmath.mpf(0)] * len(times) for _ in range(3)]
        for idx, E, Q in spectra:
            k = len(idx)
            c = [mpmath.fsum(Q[i, m] * mpmath.mpc(state.amplitudes[idx[i]]) for i in range(k)) for m in range(k)]
            for j, t in enumerate(times):
                phased = [c[m] * mpmath.expj(-mpmath.mpf(E[m]) * mpmath.mpf(float(t))) for m in range(k)]
                for i in range(k):
                    weight = abs(mpmath.fsum(Q[i, m] * phased[m] for m in range(k))) ** 2
                    pops[1][j] += weight
                    if idx[i] < nb:
                        pops[0][j] += weight
                    if idx[i] in (nb - 1, 2 * nb - 1):
                        pops[2][j] += weight
    return pops


def _mp_columns(p_excited, norm2, top):
    """evolve's four columns from exact (P_e, norm^2, top band), at 40 digits."""
    with mpmath.workdps(40):
        return {"p_excited": p_excited, "inversion": [2 * a - b for a, b in zip(p_excited, norm2)],
                "norms": [mpmath.sqrt(b) for b in norm2], "top_band": top}


def _worst(values, exact):
    """Largest |values[j] - exact[j]|, taken in 40-digit arithmetic."""
    with mpmath.workdps(40):
        return max(float(abs(mpmath.mpf(float(v)) - x)) for v, x in zip(values, exact))


class TestEvolutionMatchesMpmath:
    """evolve, and the time-major kernel it replaced, against 40-digit arithmetic.

    The truth is the mpmath.eigsy spectrum of each sector. The printed
    table also takes each kernel against exact arithmetic on evolve's own
    double spectrum, which isolates the kernel's rounding from the
    eigensolver's eps |H| / gap that both kernels share.
    """

    @pytest.mark.parametrize("case", ["rwa", "no_rwa", "superposition"])
    def test_columns_within_bound(self, case):
        p = JCParams(g=0.004, omega12=0.05, Omega=0.05, n_max=12, rwa=case == "rwa", leak_threshold=1.0)
        state = _superposition(p.n_max) if case == "superposition" else JCState.basis("upper", 3, p.n_max)
        # three full chunks and a ragged one; samples on both sides of every chunk edge
        n_samples = 3 * jc._CHUNK + 101
        out = evolve(state, p, 3 * np.pi / p.g, 3 * np.pi / p.g / (n_samples - 1))
        at = [0, 1, jc._CHUNK - 1, jc._CHUNK, 2 * jc._CHUNK - 1, 2 * jc._CHUNK, 3 * jc._CHUNK - 1, 3 * jc._CHUNK,
              n_samples - 1]
        spectra, scale = _mp_spectra(p, state)
        truth = _mp_columns(*_mp_populations(p, state, out.times[at], spectra))
        own = _mp_columns(*_mp_populations(p, state, out.times[at], [s[:3] for s in out.sectors]))
        old_pe, old_norm2, old_top = (col[at] for col in _time_major_populations(p, state, out.times))
        old = {"p_excited": old_pe, "inversion": 2 * old_pe - old_norm2, "norms": np.sqrt(old_norm2),
               "top_band": old_top}
        bound = out.phase_estimate + MP_EIG_C * np.finfo(float).eps * scale
        for column, exact in truth.items():
            new_err, old_err = _worst(getattr(out, column)[at], exact), _worst(old[column], exact)
            print(f"jc-evolve mpmath {case} {column}: eigen-major {new_err:.3e}, time-major {old_err:.3e} "
                  f"(on evolve's own spectrum {_worst(getattr(out, column)[at], own[column]):.3e}, "
                  f"{_worst(old[column], own[column]):.3e}), bound {bound:.3e}")
            assert new_err <= bound and old_err <= bound


class TestPhaseStepping:
    """Phases e^{-iE(t0 + tau)} from one table per sector, in evolve and in the period search's bracket grid."""

    @pytest.fixture
    def counted(self, monkeypatch):
        # per-sample phases would pass every sample's E t through cos and sin
        counted = {"cos": 0, "sin": 0}
        for name in counted:
            def counting(x, *args, _name=name, _fn=getattr(np, name), **kwargs):
                counted[_name] += np.size(x)
                return _fn(x, *args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        return counted

    def test_trig_per_chunk_is_per_eigenvalue(self, counted):
        p = JCParams(g=0.004, omega12=0.05, Omega=0.05, n_max=14, rwa=False)
        n_samples = 2 * jc._CHUNK + 300
        out = evolve(_superposition(p.n_max), p, (n_samples - 1) * 0.5, 0.5)
        assert len(out.times) == n_samples and len(out.sectors) == 2
        chunks = -(-n_samples // jc._CHUNK)
        limit = sum((jc._CHUNK + chunks) * len(evals) for _, evals, _, _ in out.sectors)
        assert counted["cos"] <= limit
        assert counted["sin"] <= limit

    def test_bracket_grid_trig_per_chunk_is_per_eigenvalue(self, counted):
        # one grid of _GRID_POINTS samples per photon number, all of a
        # sector stepped together: a table of _GRID_CHUNK offsets and one
        # e^{-iE t0} per chunk, for each photon number and eigenvalue
        p = resonant(n_max=30, rwa=False)
        ns = [0, 2, 4, 6]  # |upper, n> with n even: the odd sector
        idx, evals, vecs = jc._sector_spectrum(p, 1)
        jc._crossing_brackets(p, ns, idx, evals, vecs)
        limit = len(ns) * len(evals) * (jc._GRID_CHUNK + jc._GRID_POINTS // jc._GRID_CHUNK)
        assert 0 < counted["cos"] <= limit
        assert 0 < counted["sin"] <= limit


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


def _crossing_functions(p, ns):
    """Per photon number of ns, [(f, lo, hi)] per crossing: jc's batched brackets and P_e - mid as a scalar function."""
    found = {}
    for parity in (0, 1):
        ours = [n for n in ns if (n + 1) % 2 == parity]
        if ours:
            idx, evals, vecs = jc._sector_spectrum(p, parity)
            for n, rows, mid, lo, hi in zip(ours, *jc._crossing_brackets(p, ours, idx, evals, vecs)):
                found[n] = [(lambda t, rows=rows, mid=mid, evals=evals: np.sum(_populations(evals, rows, t)) - mid, a, b)
                            for a, b in zip(lo, hi)]
    return [found[n] for n in ns]


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
        for crossings in _crossing_functions(p, ns):
            first, second = (brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16) for f, lo, hi in crossings)
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
        for crossings in _crossing_functions(p, ns):
            first, second = (_bisect(f, lo, hi) for f, lo, hi in crossings)
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
