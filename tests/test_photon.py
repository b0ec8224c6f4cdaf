import math
import warnings

import numpy as np
import pytest

from relqi import channel as ch
from relqi import geometry as geo
from relqi import photon as ph
from relqi import qmatrix as qm
from relqi import wavepacket as wp
from relqi.wavepacket import Measure, gauss_grid, GaussianSpec
import helpers

RNG = np.random.default_rng(4242)

PE_REFERENCE_DR1_K100 = 2.49950640906e-05  # converged (24 nodes per axis)


def monochromatic(direction_amps):
    """Single-node beam along z with the given helicity amplitudes."""
    base = ph.gaussian_beam(100.0, 0.1, 1.0, +1, nodes_per_axis=1)
    amps = np.asarray(direction_amps, dtype=complex)[None, :]
    return ph.PhotonPacket(grid=base.grid, amps=wp.normalize(base.grid, amps))


def one_direction(khat):
    """Helicity vectors of a single direction, as one row of helicity_vectors_batch."""
    ep, em = ph.helicity_vectors_batch(np.asarray(khat, dtype=float)[None, :])
    return ep[0], em[0]


def linear_amps(direction):
    """Helicity amplitudes of a linear polarization along `direction` at k = z."""
    ep, em = one_direction([0.0, 0.0, 1.0])
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    return np.array([np.conj(ep) @ d, np.conj(em) @ d])


def random_packet(grid, rng):
    """Random normalized profile and random per-node elliptic polarization."""
    raw = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    envelope = np.exp(-np.arange(grid.n) % 7 / 7.0)
    profile = raw * envelope
    profile = profile / np.sqrt(np.real(np.sum(grid.weights * np.abs(profile) ** 2)))
    hel = rng.normal(size=(grid.n, 2)) + 1j * rng.normal(size=(grid.n, 2))
    hel /= np.linalg.norm(hel, axis=1)[:, None]
    return ph.PhotonPacket(grid=grid, amps=profile[:, None] * hel)


def test_helicity_vectors_at_z():
    ep, em = one_direction([0, 0, 1])
    np.testing.assert_allclose(ep, np.array([1, 1j, 0]) / np.sqrt(2), atol=1e-14)
    np.testing.assert_allclose(em, np.array([1, -1j, 0]) / np.sqrt(2), atol=1e-14)


def test_helicity_vectors_transverse_orthonormal():
    for _ in range(25):
        khat = RNG.normal(size=3)
        khat /= np.linalg.norm(khat)
        ep, em = one_direction(khat)
        assert abs(ep @ khat) < 1e-12 and abs(em @ khat) < 1e-12
        assert abs(np.conj(ep) @ em) < 1e-12
        assert np.conj(ep) @ ep == pytest.approx(1.0, abs=1e-12)


def test_helicity_vectors_via_standard_rotation():
    rot = geo.standard_rotation_batch([[1.0, 0.0, 0.0]])[0]
    ep, em = one_direction([1.0, 0.0, 0.0])
    np.testing.assert_allclose(ep, rot @ (np.array([1, 1j, 0]) / np.sqrt(2)), atol=1e-12)
    np.testing.assert_allclose(em, rot @ (np.array([1, -1j, 0]) / np.sqrt(2)), atol=1e-12)


def test_transversal_b_fully_transverse():
    b, ell = ph.transversal_b([1, 0, 0], [0, 0, 1])
    np.testing.assert_allclose(b, [1, 0, 0], atol=1e-14)
    assert ell == 0.0


def test_transversal_b_pure_longitudinal():
    khat = np.array([0.6, 0.0, 0.8])
    b, ell = ph.transversal_b(khat, khat)
    assert np.linalg.norm(b) < 1e-12
    assert abs(ell) == pytest.approx(1.0, abs=1e-12)


def test_transversal_b_oblique_example():
    khat = np.array([np.sin(np.pi / 4), 0.0, np.cos(np.pi / 4)])
    b, ell = ph.transversal_b([1.0, 0.0, 0.0], khat)
    assert ell == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
    assert np.linalg.norm(b) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_transversal_b_completeness():
    for _ in range(20):
        d = RNG.normal(size=3)
        d /= np.linalg.norm(d)
        khat = RNG.normal(size=3)
        khat /= np.linalg.norm(khat)
        b, ell = ph.transversal_b(d, khat)
        assert np.linalg.norm(b) ** 2 + ell**2 == pytest.approx(1.0, abs=1e-12)
        assert abs(b @ khat) < 1e-10


def test_povm_monochromatic_probabilities():
    x_pol = monochromatic(linear_amps([1, 0, 0]))
    povm = ph.build_povm(x_pol.grid)
    np.testing.assert_allclose(povm.probabilities(x_pol), [1.0, 0.0, 0.0], atol=1e-12)
    diag = monochromatic(linear_amps([1, 1, 0]))
    np.testing.assert_allclose(povm.probabilities(diag), [0.5, 0.5, 0.0], atol=1e-12)


def test_povm_completeness_on_random_states():
    grid = gauss_grid(GaussianSpec.beam(100.0, 0.5, 8.0), 6, Measure.INVARIANT)
    povm = ph.build_povm(grid)
    for _ in range(50):
        psi = random_packet(grid, RNG)
        assert povm.completeness_residual(psi) < 1e-10


def test_povm_rejects_plain_grids():
    grid = gauss_grid(GaussianSpec.isotropic(1.0), 4, Measure.PLAIN)
    with pytest.raises(ValueError, match="INVARIANT"):
        ph.build_povm(grid)


def test_effective_density_monochromatic():
    x_pol = monochromatic(linear_amps([1, 0, 0]))
    np.testing.assert_allclose(ph.effective_density(x_pol), np.diag([1, 0, 0]), atol=1e-12)


def test_effective_density_dual_route_random():
    grid = gauss_grid(GaussianSpec.beam(60.0, 0.4, 5.0), 5, Measure.INVARIANT)
    for _ in range(50):
        psi = random_packet(grid, RNG)
        direct = ph.effective_density(psi)
        tomo = ph.effective_density_tomography(psi)
        assert np.abs(direct - tomo).max() < 1e-10
        helpers.check_density_matrix(direct, tol=1e-8)


def test_effective_density_monochromatic_limit():
    beam = ph.gaussian_beam(100.0, 0.001, 0.01, +1, 8)
    rho = ph.effective_density(beam)
    # z row/column empty, x-y block circular
    assert np.abs(rho[2, :]).max() < 1e-7
    mono = np.zeros((3, 3), dtype=complex)
    mono[:2, :2] = [[0.5, -0.5j], [0.5j, 0.5]]
    np.testing.assert_allclose(rho, mono, atol=1e-7)


def test_effective_density_strictly_mixed_for_finite_spread():
    beam = ph.gaussian_beam(100.0, 0.1, 1.0, +1, 10)
    eigs = np.linalg.eigvalsh(ph.effective_density(beam))
    assert eigs.max() < 1.0 - 1e-8


@pytest.mark.parametrize("k, dz, dr", [(100.0, 0.1, 1.0), (100.0, 0.1, 3.0), (10.0, 1.0, 2.0)])
@pytest.mark.parametrize("helicity", [+1, -1])
def test_circular_density_matches_the_3d_beam(k, dz, dr, helicity):
    # The 3-D oracle grid is converged to about 1e-15 at 24 nodes per axis.
    expected = ph.effective_density(ph.gaussian_beam(k, dz, dr, helicity, 24))
    for n in (8, 12):
        rho = helpers.circular_density(k, dz, dr, helicity, n)
        assert np.abs(rho - expected).max() < 1e-14
        assert rho[2, 2].real == pytest.approx(expected[2, 2].real, rel=1e-12, abs=0.0)
        # Only the diagonal and the xy imaginary pair survive the axial symmetry.
        assert np.count_nonzero(rho.real) == 3 and np.count_nonzero(rho.imag) == 2
        assert rho[0, 0] == rho[1, 1] and rho[0, 1] == rho[1, 0].conjugate()


@pytest.mark.parametrize("helicity", [0, 2, 7, -3, 0.5])
def test_beam_helicity_must_be_plus_or_minus_one(helicity):
    with pytest.raises(ValueError, match="helicity must be"):
        ph.gaussian_beam(100.0, 0.1, 1.0, helicity, 4)
    with pytest.raises(ValueError, match="helicity must be"):
        ph.circular_density_values(100.0, 0.1, 1.0, helicity, 4)


def test_gaussian_beam_moments():
    beam = ph.gaussian_beam(100.0, 0.5, 5.0, +1, 10)
    w2 = beam.grid.weights * np.sum(np.abs(beam.amps) ** 2, axis=1)
    assert np.sum(w2) == pytest.approx(1.0, abs=1e-8)
    mean = np.einsum("n,nc->c", w2, beam.grid.nodes)
    direction = mean / np.linalg.norm(mean)
    np.testing.assert_allclose(direction, [0, 0, 1], atol=1e-8)
    khat = ph.directions(beam.grid.nodes)
    theta2 = np.einsum("n,n->", w2, khat[:, 0] ** 2 + khat[:, 1] ** 2)
    assert theta2 == pytest.approx(5.0**2 / 100.0**2, rel=0.01)


def test_gaussian_beam_guards():
    with pytest.raises(ValueError, match="must exceed 3.88972489787 \\* delta_z"):
        ph.gaussian_beam(1.0, 0.5, 0.1)
    with pytest.warns(UserWarning, match="paraxial"):
        ph.gaussian_beam(10.0, 0.2, 5.0, nodes_per_axis=4)


@pytest.mark.parametrize("call", [
    lambda: ph.gaussian_beam(10.0, 0.2, 5.0, +1, 4),
    lambda: ph.circular_density_values(10.0, 0.2, 5.0, +1, 4),
    lambda: ph.circular_pair_error(10.0, 0.2, 5.0, 4),
    lambda: ph.doppler_report(10.0, 0.2, 5.0, 0.5, 4),
    lambda: ch.non_cp_witness(0.5, 10.0, 0.2, 5.0, 4),
], ids=["gaussian_beam", "circular_density_values", "circular_pair_error", "doppler_report",
        "non_cp_witness"])
def test_paraxial_warning_names_the_calling_line(call):
    # however deep in relqi the beam rule is built, the warning points here
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert [str(w.message) for w in caught] == [
        "k_mean 10 < 5 * delta_r 5: beam is far from paraxial"]
    assert caught[0].filename == __file__


def test_circular_pair_error_leading_order():
    k = 100.0
    ratios = {}
    for frac in (0.03, 0.01, 0.003):
        dr = k * frac
        pe = ph.circular_pair_error(k, dr / 10.0, dr, 12)
        ratios[frac] = pe * 4.0 * k**2 / dr**2
        assert pe > 0.0
    assert 0.9 < ratios[0.01] < 1.1
    assert 0.95 < ratios[0.003] < 1.05
    assert abs(ratios[0.003] - 1.0) < abs(ratios[0.03] - 1.0)


def test_circular_pair_error_vanishes_monochromatically():
    k = 100.0
    errors = [
        ph.circular_pair_error(k, k * f / 10.0, k * f, 10) for f in (0.03, 0.01, 0.003)
    ]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-5


def test_circular_pair_error_reference_value():
    assert ph.circular_pair_error(100.0, 0.1, 1.0, 12) == pytest.approx(
        PE_REFERENCE_DR1_K100, rel=1e-6
    )


def pair_error(psi1, psi2):
    """Helstrom error of the effective polarization matrices of two beams."""
    return qm.helstrom_error(ph.effective_density(psi1), ph.effective_density(psi2))


def test_orthogonality_audit_identical_states():
    beam = ph.gaussian_beam(100.0, 0.1, 1.0, +1, 6)
    assert pair_error(beam, beam) == pytest.approx(0.5, abs=1e-12)


def test_orthogonality_audit_circular_pair():
    k = 100.0
    plus = ph.gaussian_beam(k, 0.5, 5.0, +1, 10)
    minus = ph.gaussian_beam(k, 0.5, 5.0, -1, 10)
    pe = pair_error(plus, minus)
    assert pe > 0.0
    assert pe == pytest.approx(ph.circular_pair_error(k, 0.5, 5.0, 10), abs=1e-15)
    for v in (-0.9, -0.5, 0.5):
        lam = geo.boost_from_velocity([0.0, 0.0, -v])
        audit = pair_error(ph.boost_photon(lam, plus), ph.boost_photon(lam, minus))
        pe_v = ph.circular_pair_error(k, 0.5, 5.0, 10, v)
        assert pe_v == pytest.approx(audit, rel=1e-10, abs=0.0)


def variance_form_oracle(beam):
    """(1 - |<khat>|)/2 in variance form, every sum taken by math.fsum."""
    p = beam.grid.weights * np.sum(np.abs(beam.amps) ** 2, axis=1)
    khat = ph.directions(beam.grid.nodes)
    r = [math.fsum(p * khat[:, c]) for c in range(3)]
    spread = math.fsum(p * np.sum((khat - r) ** 2, axis=1))
    return 0.5 * spread / (1.0 + math.sqrt(math.fsum(x * x for x in r)))


# The 3-D oracle grid is converged to about 1e-15 at 24 nodes per axis; at
# 12 it is still up to 4e-10 off at (kA, dz, dr) = (10, 1, 2).
ORACLE_NODES = 24


@pytest.mark.parametrize("k, dz, dr, n, v", [
    (100.0, 0.001, 0.01, 8, 0.0),
    (100.0, 0.1, 1.0, 12, -0.9),
    *[(k, dz, dr, 16, v) for k, dz, dr in ((10.0, 1.0, 2.0), (100.0, 0.1, 3.0))
      for v in (0.0, 0.5, -0.9)],
])
def test_circular_pair_error_small_error_precision(k, dz, dr, n, v):
    beam = ph.gaussian_beam(k, dz, dr, +1, ORACLE_NODES)
    if v != 0.0:
        beam = ph.boost_photon(geo.boost_from_velocity([0.0, 0.0, -v]), beam)
    expected = variance_form_oracle(beam)
    pe = ph.circular_pair_error(k, dz, dr, n, v)
    assert pe == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_circular_pair_error_backward_mean_direction():
    # At v = 0.99 the mean direction of the (10, 1, 2) beam points backward
    # for the observer: <cos theta'> < 0 and the error is (1 + <cos theta'>)/2.
    lam = geo.boost_from_velocity([0.0, 0.0, -0.99])
    expected = variance_form_oracle(ph.boost_photon(lam, ph.gaussian_beam(10.0, 1.0, 2.0, +1, 32)))
    assert ph.circular_pair_error(10.0, 1.0, 2.0, 32, 0.99) == pytest.approx(expected, rel=1e-3)


@pytest.mark.parametrize("args, match", [
    ((100.0, 0.1, 1.0, 8, 1.0), "observer speed"),
    ((100.0, 0.1, 1.0, 8, -1.0), "observer speed"),
    ((1.0, 0.4, 0.1, 8), "must exceed"),
    ((100.0, 0.0, 1.0, 8), "positive"),
    ((100.0, 0.1, -1.0, 8), "positive"),
    ((6.0, 1.0, 0.5, 40), "backward"),
    # a node exactly at k_z = 0 is not forward
    ((ph.beam_reach(24) * 0.1, 0.1, 0.01, 24), "must exceed"),
])
def test_circular_pair_error_guards(args, match):
    with pytest.raises(ValueError, match=match):
        ph.circular_pair_error(*args)


def test_orthogonality_audit_monochromatic_limit():
    pe = ph.circular_pair_error(100.0, 0.001, 0.01, 8)
    assert pe < 1e-6


def test_doppler_zero_velocity():
    rep = ph.doppler_report(100.0, 0.1, 1.0, 0.0, 8)
    assert rep["pe_boosted"] == pytest.approx(rep["pe_rest"], abs=1e-15)
    assert rep["closed_form_ratio"] == 1.0


def test_doppler_closed_form_ratios():
    for v, expected in ((-0.5, 1.0 / 3.0), (-0.25, 0.6), (0.25, 5.0 / 3.0), (0.5, 3.0)):
        rep = ph.doppler_report(100.0, 0.1, 1.0, v, 12)
        assert rep["ratio"] == pytest.approx(expected, rel=0.05)
        assert rep["closed_form_ratio"] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_doppler_leading_order_improves_with_narrow_beams():
    devs = []
    for dr in (3.0, 1.0, 0.3):
        rep = ph.doppler_report(100.0, dr / 10.0, dr, 0.5, 10)
        devs.append(abs(rep["ratio"] / rep["closed_form_ratio"] - 1.0))
    assert devs[0] > devs[1] > devs[2]


def test_boost_preserves_transversality_and_norm():
    beam = ph.gaussian_beam(100.0, 0.1, 5.0, +1, 8)
    lam = geo.boost_from_velocity([0.0, 0.0, -0.6])
    out = ph.boost_photon(lam, beam)
    alpha = out.alpha_vectors()
    khat = ph.directions(out.grid.nodes)
    assert np.abs(np.einsum("nc,nc->n", alpha, khat)).max() < 1e-10
    w2 = np.sum(out.grid.weights * np.sum(np.abs(out.amps) ** 2, axis=1))
    assert w2 == pytest.approx(1.0, abs=1e-8)


def test_rotation_invariance_of_povm_probabilities():
    grid = gauss_grid(GaussianSpec.beam(80.0, 0.4, 4.0), 5, Measure.INVARIANT)
    psi = random_packet(grid, RNG)
    probs = ph.build_povm(grid).probabilities(psi)
    rot = helpers.rotation_about(RNG.normal(size=3), 1.234)
    rotated = ph.rotate_packet(rot, psi)
    povm_rot = ph.build_povm(rotated.grid)
    rotated_probs = np.array(
        [povm_rot.expectation(rotated, rot @ np.eye(3)[m]) for m in range(3)]
    )
    np.testing.assert_allclose(rotated_probs, probs, atol=1e-10)


def test_packet_validation():
    beam = ph.gaussian_beam(100.0, 0.1, 1.0, +1, 4)
    with pytest.raises(ValueError, match="norm"):
        ph.PhotonPacket(grid=beam.grid, amps=2.0 * beam.amps)


def beam_means_numpy(k_mean, delta_z, delta_r, n, speeds):
    """_beam_means with numpy: the same per-node terms on the same rule, summed by np.sum."""
    t, w_z = helpers.gauss_rule("Gauss-Hermite", n)
    x, w_x = helpers.gauss_rule("Gauss-Laguerre", n)
    k_z = (k_mean + delta_z * t)[:, None]
    k_r2 = delta_r * delta_r * x
    k = np.sqrt(k_z * k_z + k_r2)
    p = w_z[:, None] * w_x / k
    p = p / np.sum(p)
    means = [(np.sum(p * (1.0 + v) * (k_r2 / (k + k_z)) / (k - v * k_z)),
              np.sum(p * (1.0 - v) * (k + k_z) / (k - v * k_z))) for v in speeds]
    return np.sum(p * k_r2 / (k * k)), means


@pytest.mark.parametrize("n", [12, 24, 95])
def test_beam_means_match_a_numpy_oracle(n):
    # the 19 speeds of the benchmark's doppler sweep, on its beam
    speeds = [-0.9 + 0.1 * i for i in range(19)]
    sin2, means = ph._beam_means(100.0, 0.1, 1.0, n, speeds)
    sin2_np, means_np = beam_means_numpy(100.0, 0.1, 1.0, n, speeds)
    assert sin2 == pytest.approx(sin2_np, rel=1e-14, abs=0.0)
    for pair, pair_np in zip(means, means_np, strict=True):
        assert pair == pytest.approx(pair_np, rel=1e-14, abs=0.0)


def test_gauss_rules_are_built_once_per_node_count():
    # one cache, in wavepacket, serves the photon rules and gauss_grid
    wp._gauss_outcome.cache_clear()
    first = ph.circular_pair_error(100.0, 0.1, 1.0, 12, 0.5)
    assert ph.circular_pair_error(100.0, 0.1, 1.0, 12, 0.5) == first
    info = wp._gauss_outcome.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    gauss_grid(GaussianSpec.isotropic(1.0), 12, Measure.PLAIN)
    info = wp._gauss_outcome.cache_info()
    assert (info.misses, info.hits) == (2, 3)
    for name in ("Gauss-Hermite", "Gauss-Laguerre"):
        x, w = wp._gauss_floats(name, 12)
        assert type(x) is tuple and type(w) is tuple  # the shared cached rule is immutable
    with pytest.raises(ValueError, match="Gauss-Laguerre rule breaks down at 196 nodes"):
        wp._gauss_floats("Gauss-Laguerre", 196)


def test_profile_norm_defect_is_a_numerical_error():
    beam = ph.gaussian_beam(100.0, 0.1, 1.0, +1, 4)
    with pytest.raises(wp.NumericalError, match="packet norm"):
        ph.PhotonPacket(grid=beam.grid, amps=2.0 * beam.amps)
