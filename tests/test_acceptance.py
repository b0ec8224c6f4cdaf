"""Acceptance gate: one check per release criterion, each printing a
pass/fail line.  Run under pytest (`pytest tests/test_acceptance.py -v -s`)
or directly (`python3 tests/test_acceptance.py`) for the line-per-criterion
summary."""

import sys

import numpy as np
from scipy.linalg import expm, sqrtm

from relqi import channel as ch
from relqi import entangle as en
from relqi import geometry as geo
from relqi import photon as ph
from relqi import qmatrix as qm
from relqi import spin_half as sh
from relqi.wavepacket import GaussianSpec, Measure, gauss_grid
import helpers

RNG = np.random.default_rng(20260810)


def criterion_01_zero_boost_identity():
    psi = sh.gaussian_packet(1.0, 1.0, 12)
    beta = sh.beta_for_gamma(0.0, 1.0)
    lam = helpers.angle_boost(beta, np.pi / 2)[1]
    boosted = sh.boost_packet(lam, psi)
    entropy = qm.entropy(sh.reduced_spin_density(boosted))
    amp_delta = np.abs(boosted.amps - psi.amps).max()
    node_delta = np.abs(boosted.grid.nodes - psi.grid.nodes).max()
    assert entropy < 1e-9
    assert amp_delta < 1e-10 and node_delta < 1e-10
    return f"S={entropy:.2e}, max packet delta={max(amp_delta, node_delta):.2e}"


def criterion_02_entropy_surface():
    thetas = np.linspace(0.0, np.pi, 9)
    gammas = (0.0, 0.25, 0.5)
    surface = {}
    for theta in thetas:
        for gamma in gammas:
            beta = sh.beta_for_gamma(gamma, 1.0)
            tau, _ = sh.boosted_pair(helpers.angle_boost(beta, theta)[0], 1.0, 12)[:2]
            surface[(theta, gamma)] = qm.entropy(tau)
    assert all(s >= 0.0 for s in surface.values())
    for theta in thetas:
        np.testing.assert_allclose(
            surface[(theta, 0.25)], surface[(np.pi - theta, 0.25)], atol=1e-8
        )
    beta_25 = sh.beta_for_gamma(0.25, 1.0)
    beta_50 = sh.beta_for_gamma(0.5, 1.0)
    tau_25, _ = sh.boosted_pair(helpers.angle_boost(beta_25, np.pi / 2)[0], 1.0, 20)[:2]
    tau_50, _ = sh.boosted_pair(helpers.angle_boost(beta_50, np.pi / 2)[0], 1.0, 20)[:2]
    s0, s25, s50 = 0.0, qm.entropy(tau_25), qm.entropy(tau_50)
    assert s0 < s25 < s50
    tau_50_fine, _ = sh.boosted_pair(helpers.angle_boost(beta_50, np.pi / 2)[0], 1.0, 40)[:2]
    refinement = abs(qm.entropy(tau_50_fine) - s50)
    assert refinement < 1e-6
    return f"S(pi/2)={s0:.1e}<{s25:.4f}<{s50:.4f}, refinement delta={refinement:.2e}"


def criterion_03_quadratic_error_law():
    ratios = []
    for gamma in (0.001, 0.002, 0.005):
        beta = sh.beta_for_gamma(gamma, 1.0)
        pe = sh.boosted_pair(helpers.angle_boost(beta, np.pi / 2)[0], 1.0, 12)[2]
        ratios.append(pe / gamma**2)
    spread = max(ratios) / min(ratios)
    assert spread < 1.05
    return f"P/Gamma^2 in [{min(ratios):.6f}, {max(ratios):.6f}], spread {spread - 1:.2e}"


def criterion_04_photon_leading_order():
    k = 100.0
    out = {}
    for frac, lo, hi in ((0.003, 0.95, 1.05), (0.01, 0.9, 1.1)):
        dr = k * frac
        pe = ph.circular_pair_error(k, dr / 10.0, dr, 12)
        ratio = pe * 4.0 * k**2 / dr**2
        assert lo < ratio < hi
        out[frac] = ratio
    return f"ratio(0.003)={out[0.003]:.5f}, ratio(0.01)={out[0.01]:.5f}"


def criterion_05_doppler_law():
    worst = 0.0
    for v in (-0.5, -0.25, 0.25, 0.5):
        rep = ph.doppler_report(100.0, 0.1, 1.0, v, 12)
        deviation = abs(rep["ratio"] / rep["closed_form_ratio"] - 1.0)
        worst = max(worst, deviation)
        assert deviation < 0.05
    return f"max |ratio/closed - 1| = {worst:.2e} over v in {{+-0.25, +-0.5}}"


def _random_packet(grid, rng):
    profile = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    profile /= np.sqrt(np.real(np.sum(grid.weights * np.abs(profile) ** 2)))
    hel = rng.normal(size=(grid.n, 2)) + 1j * rng.normal(size=(grid.n, 2))
    hel /= np.linalg.norm(hel, axis=1)[:, None]
    return ph.PhotonPacket(grid=grid, profile=profile, helicity=hel)


def criterion_06_povm_completeness_and_dual_route():
    grid = gauss_grid(GaussianSpec.beam(100.0, 0.5, 8.0), 6, Measure.INVARIANT)
    povm = ph.build_povm(grid)
    worst_residual = 0.0
    worst_gap = 0.0
    for _ in range(50):
        psi = _random_packet(grid, RNG)
        worst_residual = max(worst_residual, povm.completeness_residual(psi))
        direct = ph.effective_density(psi)
        tomo = ph.effective_density_tomography(psi)
        worst_gap = max(worst_gap, float(np.abs(direct - tomo).max()))
    assert worst_residual < 1e-10
    assert worst_gap < 1e-10
    return f"completeness residual {worst_residual:.2e}, dual-route gap {worst_gap:.2e}"


def criterion_07_decoherence_channel():
    worst_tp = 0.0
    worst_eig = 0.0
    for gamma in np.linspace(0.0, 2.0, 21):
        chan = ch.decoherence_channel(gamma)
        acc = sum(k.conj().T @ k for k in chan.kraus_operators())
        worst_tp = max(worst_tp, float(np.abs(acc - np.eye(2)).max()))
        _, min_eig = qm.is_completely_positive(chan)
        worst_eig = min(worst_eig, min_eig)
    assert worst_tp < 1e-12
    assert worst_eig >= -1e-12
    rho_out = ch.decoherence_channel(0.2).apply(np.diag([1.0, 0.0]).astype(complex))
    np.testing.assert_allclose(rho_out, np.diag([0.99, 0.01]), atol=1e-14)
    return f"TP defect {worst_tp:.1e}, min Choi eig {worst_eig:.1e}, diag(0.99, 0.01) exact"


def criterion_08_non_cp_witness():
    rep = ch.non_cp_witness(0.5, k_mean=100.0, delta_z=0.1, delta_r=1.0, nodes_per_axis=12)
    assert rep["pe_after"] > rep["pe_before"] + 1e-9
    assert rep["verdict"] is not None
    violations = 0
    for _ in range(200):
        chan = helpers.random_cptp_channel(RNG, n_kraus=int(RNG.integers(1, 5)))
        r1, r2 = helpers.random_density(RNG), helpers.random_density(RNG)
        if qm.helstrom_error(chan.apply(r1), chan.apply(r2)) < qm.helstrom_error(r1, r2) - 1e-9:
            violations += 1
    assert violations == 0
    return (
        f"pair error {rep['pe_before']:.3e} -> {rep['pe_after']:.3e}, verdict fired; "
        f"monotonicity counterexamples: {violations}/200"
    )


def criterion_09_entanglement_frame_dependence():
    sharp = en.bell_gaussian(1e-4, 1.0, 8)
    lam9 = geo.boost_from_velocity([0.0, 0.0, 0.9])
    c_sharp = en.concurrence(en.spin_spin_density(en.boost_pair(lam9, sharp)))
    assert abs(c_sharp - 1.0) < 1e-4
    wide = en.bell_gaussian(0.5, 1.0, 8)
    values = []
    for beta in (0.3, 0.6, 0.9):
        lam = geo.boost_from_velocity([0.0, 0.0, beta])
        values.append(en.concurrence(en.spin_spin_density(en.boost_pair(lam, wide))))
    assert values[0] > values[1] > values[2]
    restored = en.concurrence(
        en.spin_spin_density(en.boost_pair(geo.lorentz_inverse(lam9), en.boost_pair(lam9, wide)))
    )
    assert abs(restored - 1.0) < 1e-8
    return (
        f"sharp C={c_sharp:.6f}, wide C={values[0]:.4f}>{values[1]:.4f}>{values[2]:.4f}, "
        f"restored C={restored:.10f}"
    )


def criterion_10_oracle_equivalences():
    # partial trace vs index summation
    gaps = []
    rho4 = helpers.random_density(RNG, 4)
    r = rho4.reshape(2, 2, 2, 2)
    oracle = np.zeros((2, 2), dtype=complex)
    for mu in range(2):
        for nu in range(2):
            oracle[mu, nu] = sum(r[m, mu, m, nu] for m in range(2))
    gaps.append(np.abs(qm.partial_trace(rho4, (2, 2), "left") - oracle).max())
    assert gaps[-1] < 1e-12

    # reduced spin density vs direct summation
    beta = sh.beta_for_gamma(0.5, 1.0)
    boosted = sh.boost_packet(
        helpers.angle_boost(beta, np.pi / 2)[1], sh.gaussian_packet(1.0, 1.0, 8)
    )
    direct = np.zeros((2, 2), dtype=complex)
    for w, a in zip(boosted.grid.weights, boosted.amps):
        direct += w * np.outer(a, a.conj())
    gaps.append(np.abs(sh.reduced_spin_density(boosted) - direct).max())
    assert gaps[-1] < 1e-12

    # two-particle reduction vs double summation
    state = en.boost_pair(
        geo.boost_from_velocity([0.0, 0.0, 0.7]), en.bell_gaussian(0.5, 1.0, 4)
    )
    flat = state.g.reshape(state.grid1.n, state.grid2.n, 4)
    double = np.zeros((4, 4), dtype=complex)
    for i, wi in enumerate(state.grid1.weights):
        for j, wj in enumerate(state.grid2.weights):
            double += wi * wj * np.outer(flat[i, j], flat[i, j].conj())
    gaps.append(np.abs(en.spin_spin_density(state) - double).max())
    assert gaps[-1] < 1e-12

    # Wigner rotation vs dense matrix-product oracle with exponential boosts
    gen = []
    for i in range(3):
        k = np.zeros((4, 4))
        k[0, 1 + i] = k[1 + i, 0] = 1.0
        gen.append(k)

    def exp_boost(p4, mass):
        sp = p4[1:]
        if np.linalg.norm(sp) == 0.0:
            return np.eye(4)
        xi = np.arccosh(p4[0] / mass)
        n = sp / np.linalg.norm(sp)
        return expm(xi * sum(n[i] * gen[i] for i in range(3)))

    mass = 1.0
    lam = geo.boost_from_velocity([0.0, 0.0, 0.6])
    p4 = geo.four_momentum(mass, [mass, 0.0, 0.0])
    w_oracle = np.linalg.inv(exp_boost(lam @ p4, mass)) @ lam @ exp_boost(p4, mass)
    w = geo.wigner_rotation_batch(lam, [p4[1:]], mass)[1][0]
    gaps.append(np.abs(w - w_oracle[1:, 1:]).max())
    assert gaps[-1] < 1e-10

    # Helstrom error vs the matrix square-root definition
    r1, r2 = helpers.random_density(RNG), helpers.random_density(RNG)
    pe_sqrtm = 0.5 - 0.25 * np.real(np.trace(sqrtm((r1 - r2) @ (r1 - r2))))
    gaps.append(abs(qm.helstrom_error(r1, r2) - pe_sqrtm))
    assert gaps[-1] < 1e-10
    return "max oracle gaps: " + ", ".join(f"{g:.1e}" for g in gaps)


CRITERIA = [
    (1, "zero-boost identity", criterion_01_zero_boost_identity),
    (2, "entropy surface: sign, growth, symmetry, refinement", criterion_02_entropy_surface),
    (3, "quadratic distinguishability law", criterion_03_quadratic_error_law),
    (4, "photon leading-order pair error", criterion_04_photon_leading_order),
    (5, "Doppler distinguishability law", criterion_05_doppler_law),
    (6, "POVM completeness and dual-route density", criterion_06_povm_completeness_and_dual_route),
    (7, "decoherence channel TP/CP and hand value", criterion_07_decoherence_channel),
    (8, "non-CP witness with monotonicity suite", criterion_08_non_cp_witness),
    (9, "entanglement frame dependence", criterion_09_entanglement_frame_dependence),
    (10, "oracle equivalences", criterion_10_oracle_equivalences),
]


def _run_criterion(number, name, fn):
    try:
        detail = fn()
    except AssertionError:
        print(f"[FAIL] criterion {number}: {name}")
        raise
    print(f"[PASS] criterion {number}: {name} ({detail})")


def test_criterion_01():
    _run_criterion(*CRITERIA[0])


def test_criterion_02():
    _run_criterion(*CRITERIA[1])


def test_criterion_03():
    _run_criterion(*CRITERIA[2])


def test_criterion_04():
    _run_criterion(*CRITERIA[3])


def test_criterion_05():
    _run_criterion(*CRITERIA[4])


def test_criterion_06():
    _run_criterion(*CRITERIA[5])


def test_criterion_07():
    _run_criterion(*CRITERIA[6])


def test_criterion_08():
    _run_criterion(*CRITERIA[7])


def test_criterion_09():
    _run_criterion(*CRITERIA[8])


def test_criterion_10():
    _run_criterion(*CRITERIA[9])


def main() -> int:
    failures = 0
    for number, name, fn in CRITERIA:
        try:
            _run_criterion(number, name, fn)
        except AssertionError:
            failures += 1
    print(f"{len(CRITERIA) - failures}/{len(CRITERIA)} criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
