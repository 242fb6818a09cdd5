"""End-to-end acceptance gate.

Each check prints exactly one line:

    ACCEPTANCE <n>: <PASS|FAIL> - <measured numbers and tolerance>

and then asserts, so a plain pytest run turns red on any miss. Run with
``pytest tests/test_acceptance.py -v -s`` to see every line, including
the passing ones.

Checks 3 and 5 pin the constant (finite) parts of two divergent
quantities, the subtracted self-energy slope and the vacuum
polarization. Constants of divergent integrals belong to a regulator;
the targets here are those of the package's documented one, a hard 4D
cutoff on the integration variable of the master integrals (after the
Feynman-parameter shift). Each target is derived in the check's own
comment, and tests/test_direct_oracle.py confirms both against a direct
integral over the unshifted loop momentum, which also shows how check
3's constant moves when the cutoff is put on a routed momentum instead.
See README.md.
"""

import filecmp

import numpy as np
from scipy import integrate

from dipole_loop import cli
from dipole_loop.core import (
    AtomPair,
    DipoleTensor,
    classify_renormalizability,
    contractions,
    dipole_from_moment,
    engineering_dimension,
    minkowski_dot,
)
from dipole_loop.jc import JCParams, JCState, evolve, measure_resonant_period
from dipole_loop.loops import (
    MasterIntegralKind,
    RegScheme,
    master_integral,
    radial_quadrature,
)
from dipole_loop.nr import decoupling_residual, lambda_max, reduced_block_error
from dipole_loop.renorm import (
    counterterm_report,
    divergence_fit,
    photon_polarization,
    self_energy,
    vertex_one_loop,
    wavefunction_Z,
)

ATOMS_EQ = AtomPair(m1=1.0, m2=1.0)
ATOMS = AtomPair(m1=1.0, m2=0.95)
GRID_QUAD = np.geomspace(10.0, 1000.0, 12)     # Lambda/M for the quadratic fit
GRID_LOG = np.geomspace(100.0, 10000.0, 12)    # wider, for pure log fits


def record(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {n} failed: {detail}"


def x_dipole(atoms, d=0.01):
    return dipole_from_moment(np.array([d, 0.0, 0.0]), atoms)


def sigma_scan(atoms, gamma, grid, attr="sigma_I", s=None):
    gsq = contractions(gamma)["gamma_sq"]
    p_sq = -atoms.mass(1) ** 2 if s is None else s - atoms.mass(1) ** 2
    vals = []
    for lam in grid:
        res = self_energy(1, p_sq, atoms, gamma, RegScheme(Lambda=lam))
        vals.append(getattr(res, attr) / gsq)
    return np.array(vals)


def test_criterion_01_closed_forms_match_quadrature():
    integrands = {
        MasterIntegralKind.I_A: lambda u, s: u / (u + s) ** 2,
        MasterIntegralKind.I_B: lambda u, s: 1.0 / (u + s),
        MasterIntegralKind.I_C: lambda u, s: 1.0 / (u + s) ** 3,
        MasterIntegralKind.I_D: lambda u, s: u / (u + s) ** 3,
    }
    worst = 0.0
    for kind, g in integrands.items():
        for ratio in (1e-3, 1e-2, 0.1, 0.3):
            for lam in (1.0, 10.0, 100.0):
                s = (ratio * lam) ** 2
                closed = master_integral(kind, s, lam)
                quad = radial_quadrature(lambda u: g(u, s), lam)
                worst = max(worst, abs(closed - quad) / max(abs(closed), abs(quad)))
    record(1, worst <= 1e-10,
           f"I_A..I_D vs quadrature over 4 mass ratios x 3 cutoffs, worst rel err {worst:.3e} (tol 1e-10)")


def test_criterion_02_quadratic_divergence_structure():
    vals = sigma_scan(ATOMS_EQ, x_dipole(ATOMS_EQ), GRID_QUAD)
    fit = divergence_fit(vals, GRID_QUAD, ATOMS_EQ.M2)
    got = fit.normalized()
    target = (1.0, -2.0 / 3.0, -1.0 / 9.0)
    errs = [abs(g - t) for g, t in zip(got, target)]
    ok = fit.accepted and max(errs) <= 1e-2
    record(2, ok,
           f"on-shell self-energy coefficients ({got[0]:.4f}, {got[1]:.4f}, {got[2]:.4f}) "
           f"vs (1, -2/3, -1/9), worst abs err {max(errs):.3e} (tol 1e-2), fit accepted={fit.accepted}")


def test_criterion_03_subtracted_slope_constants():
    # The slope of int dx I_A(a0(x, s)), a0 = M^2 x^2 + s x (1 - x), at s = 0
    # is int x (1 - x) I_A'(M^2 x^2) dx with I_A'(a) -> PREFACTOR
    # [3 - 2 ln(Lambda^2 / a)] at Lambda >> M. Using int x (1 - x) = 1/6 and
    # int x (1 - x) ln(x^2) = -5/18 it is PREFACTOR [-(1/3) ln(Lambda^2 / M^2)
    # - 1/18]. wavefunction_Z fits a line through the origin on its s grid,
    # which adds (f''/2) sum s^3 / sum s^2 to the slope, with
    # f'' = int x^2 (1 - x)^2 I_A''(M^2 x^2) dx -> (2/3) PREFACTOR / M^2
    # from I_A''(a) -> 2 PREFACTOR / a. The fit columns carry M^2, so the
    # target ratio c_log / c_const is (-1/3) / (-1/18 + bias).
    gamma = x_dipole(ATOMS_EQ)
    gsq = contractions(gamma)["gamma_sq"]
    M2 = ATOMS_EQ.M2
    slopes, curvatures = [], []
    for lam in GRID_LOG:
        z = wavefunction_Z(1, ATOMS_EQ, gamma, RegScheme(Lambda=lam))
        slopes.append(z["f_scalar"] / gsq)
        curvatures.append(z["curvature_residual"])
    fit = divergence_fit(np.array(slopes), GRID_LOG, M2, model="log_const")
    ratio = fit.c_log / fit.c_const
    s_grid = z["s_grid"]
    bias = float(np.sum(s_grid**3) / np.sum(s_grid**2)) / (3.0 * M2)
    target = (-1.0 / 3.0) / (-1.0 / 18.0 + bias)
    curv = max(curvatures)
    ratio_ok = abs(ratio - target) <= 2e-2
    curv_ok = curv <= 1e-3
    record(3, ratio_ok and curv_ok,
           f"subtracted slope log/const ratio {ratio:.4f} vs {target:.4f} = (-1/3)/(-1/18 + fit bias "
           f"{bias:.3e}) (tol 2e-2) [{'ok' if ratio_ok else 'MISS'}]; linearity residual "
           f"{curv:.3e} <= 1e-3 of slope [{'ok' if curv_ok else 'MISS'}]")


def test_criterion_04_vertex_structure():
    m = ATOMS_EQ.m1
    p_prime = np.array([m, 0.0, 0.0, 0.0])
    q = np.array([0.25 * m, 0.25 * m, 0.0, 0.0])  # lightlike, q^2 = 0
    js = []
    for lam in GRID_LOG:
        v = vertex_one_loop(p_prime, q, ATOMS_EQ, x_dipole(ATOMS_EQ), RegScheme(Lambda=lam))
        js.append(v["J"])
    fit = divergence_fit(np.array(js), GRID_LOG, ATOMS_EQ.M2, model="log_const")
    j_ratio = fit.c_const / fit.c_log
    v = vertex_one_loop(p_prime, q, ATOMS_EQ, x_dipole(ATOMS_EQ), RegScheme(Lambda=100.0))
    t_ratios = (-v["K1"] / v["K0"], v["K2"] / v["K0"])
    errs = [abs(j_ratio + 0.5), abs(t_ratios[0] + 0.5), abs(t_ratios[1] - 1.0 / 3.0)]
    ok = max(errs) <= 2e-2
    record(4, ok,
           f"vertex log-to-constant 1:{j_ratio:.4f} vs 1:-0.5; tensor ratios "
           f"(1, {t_ratios[0]:.4f}, {t_ratios[1]:.4f}) vs (1, -1/2, 1/3); "
           f"worst abs err {max(errs):.3e} (tol 2e-2)")


def test_criterion_05_polarization_structure():
    q_ref = np.array([0.0, 0.3, 0.0, 0.0])
    ps = []
    for lam in GRID_LOG:
        ps.append(photon_polarization(q_ref, ATOMS_EQ, x_dipole(ATOMS_EQ), RegScheme(Lambda=lam))["P_coeff"])
    fit = divergence_fit(np.array(ps), GRID_LOG, ATOMS_EQ.M2, model="log_const")
    ratio = fit.c_const / fit.c_log
    # I_E(s) = PREFACTOR [ln((Lambda^2 + s) / s) - Lambda^2 / (Lambda^2 + s)]
    # -> PREFACTOR [ln(Lambda^2 / M^2) - 1 - ln(s / M^2)], so P = int dx I_E(M^2(x))
    # has constant -1 - int ln(M^2(x) / M^2) dx; the q_ref term lies inside the tolerance
    target = -1.0
    q_sq = minkowski_dot(q_ref, q_ref)
    q_term, _ = integrate.quad(lambda x: np.log(1.0 + q_sq * x * (1.0 - x) / ATOMS_EQ.M2), 0.0, 1.0)
    ratio_ok = abs(ratio - target) <= 2e-2

    rng = np.random.default_rng(20240817)
    worst_t = 0.0
    for _ in range(100):
        upper = rng.uniform(-1.0, 1.0, size=6)
        mat = np.zeros((4, 4))
        mat[np.triu_indices(4, k=1)] = upper
        gamma = DipoleTensor(mat - mat.T)
        q = rng.uniform(-1.0, 1.0, size=4)
        out = photon_polarization(q, ATOMS, gamma, RegScheme(Lambda=50.0))
        worst_t = max(worst_t, out["transversality"])
    trans_ok = worst_t <= 1e-13
    record(5, ratio_ok and trans_ok,
           f"polarization log-to-constant 1:{ratio:.4f} vs 1:{target:.0f} (tol 2e-2; at q_ref "
           f"-1 - int ln(M^2(x)/M^2) dx = {target - q_term:.4f}) [{'ok' if ratio_ok else 'MISS'}]; "
           f"transversality over 100 random (q, gamma) "
           f"worst {worst_t:.3e} <= 1e-13 [{'ok' if trans_ok else 'MISS'}]")


def test_criterion_06_measured_prefactor():
    report = counterterm_report(ATOMS, x_dipole(ATOMS), RegScheme(Lambda=100.0))
    oracle = radial_quadrature(lambda u: 1.0, 2.0 ** 0.25)  # volume factor alone
    rel = abs(report.prefactor_measured - oracle) / abs(oracle)
    ok = rel <= 1e-6
    record(6, ok,
           f"loop prefactor measured {report.prefactor_measured:.12e}, quadrature oracle "
           f"{oracle:.12e}, rel err {rel:.3e} (tol 1e-6); ratio to 1/(2 pi)^3 = "
           f"{report.prefactor_ratio_to_printed:.12f}")


def test_criterion_07_rabi_periods_and_conservation():
    p = JCParams(g=0.002, omega12=0.05, Omega=0.05, n_max=8, rwa=True)
    worst_rel = 0.0
    for n in (0, 1, 5):
        measured = measure_resonant_period(p, n)
        predicted = np.pi / (p.g * np.sqrt(n + 1.0))
        worst_rel = max(worst_rel, abs(measured - predicted) / predicted)
    period = np.pi / p.g
    out = evolve(JCState.basis("upper", 0, p.n_max), p, 10 * period, period / 50)
    drift = np.max(np.abs(out.norms - 1.0))
    n = 1
    out2 = evolve(JCState.basis("upper", n, p.n_max), p, 5 * period, period / 20)
    nb = p.n_max + 1
    pops = np.abs(out2.states) ** 2
    block = np.max(np.abs(pops[:, n] + pops[:, nb + n + 1] - 1.0))
    ok = worst_rel <= 1e-6 and drift <= 1e-12 and block <= 1e-10
    record(7, ok,
           f"resonant periods n in (0,1,5) worst rel err {worst_rel:.3e} (tol 1e-6); "
           f"norm drift over 10 periods {drift:.3e} (tol 1e-12); "
           f"pair-block leakage {block:.3e} (tol 1e-10)")


def test_criterion_08_decoupling_residual_quadratic():
    targets = np.geomspace(1e-4, 1e-2, 9)
    lams, after = [], []
    for u in targets:
        k = ATOMS.m1 * np.sqrt(u)
        gdotF = 0.7 * u * ATOMS.m_bar * np.sqrt(ATOMS.m1 * ATOMS.m2)
        out = decoupling_residual(k, gdotF, ATOMS)
        lams.append(out["lambda_max"])
        after.append(out["r_after"])
    slope = np.polyfit(np.log(lams), np.log(after), 1)[0]
    k, gdotF = 0.03, 1e-4
    blk = reduced_block_error(k, gdotF, ATOMS)
    lam = lambda_max(k, gdotF, ATOMS)
    block_ok = blk["error"] <= lam**2 * blk["h_norm"]
    ok = abs(slope - 2.0) <= 0.1 and block_ok
    record(8, ok,
           f"post-transform residual scales with exponent {slope:.4f} vs 2.0 (tol 0.1); "
           f"reduced block error {blk['error']:.3e} <= lambda^2 * |H| = {lam**2 * blk['h_norm']:.3e} "
           f"[{'ok' if block_ok else 'MISS'}]")


def test_criterion_09_power_counting_table():
    from fractions import Fraction

    expected = {
        ("P", 3): (Fraction(0), "marginal"),
        ("P", 2): (Fraction(-1, 2), "super"),
        ("P_tilde", 3): (Fraction(1), "non_renormalizable"),
        ("P_tilde", 2): (Fraction(1, 2), "non_renormalizable"),
    }
    misses = []
    for (interaction, n), (dim, cls) in expected.items():
        got_dim = engineering_dimension(interaction, n)
        got_cls = classify_renormalizability(interaction, n)
        if got_dim != dim or got_cls != cls:
            misses.append(f"({interaction},{n}) -> {got_dim}/{got_cls}")
    record(9, not misses,
           "all four (interaction, n) dimensions and classes exact" if not misses
           else "mismatches: " + "; ".join(misses))


def test_criterion_10_byte_identical_reruns(tmp_path):
    conf = tmp_path / "default.conf"
    conf.write_text("", encoding="utf-8")
    diffs = []
    for command in cli.COMMANDS:
        for run in ("a", "b"):
            code = cli.main([command, "--config", str(conf), "--out", str(tmp_path / run)])
            assert code == 0, f"{command} exited {code}"
        name = command.replace("-", "_") + ".csv"
        if not filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False):
            diffs.append(command)
    record(10, not diffs,
           f"all {len(cli.COMMANDS)} commands rerun byte-identical" if not diffs
           else "commands differ between runs: " + ", ".join(diffs))
