import numpy as np
import pytest
from scipy.linalg import expm
from scipy.spatial.transform import Rotation

from relqi import channel as ch
from relqi import entangle as en
from relqi import geometry as geo
from relqi import spin_half as sh
from relqi.wavepacket import NumericalError
import helpers

RNG = np.random.default_rng(20240811)

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]

# Boost generators in the (t, x, y, z) ordering; expm(xi * n.K) is the pure
# boost with rapidity xi along n, an independent route to standard_boost.
BOOST_GEN = []
for i in range(3):
    k = np.zeros((4, 4))
    k[0, 1 + i] = 1.0
    k[1 + i, 0] = 1.0
    BOOST_GEN.append(k)


def random_beta(rng, bmax=0.95):
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return rng.uniform(0.05, bmax) * direction


def random_onshell(rng, mass):
    return geo.four_momentum(mass, rng.normal(scale=mass, size=3))


def exp_boost(p4, mass):
    """Standard boost via the matrix exponential of the generators."""
    sp = p4[1:]
    norm = np.linalg.norm(sp)
    if norm == 0.0:
        return np.eye(4)
    xi = np.arccosh(p4[0] / mass)
    n = sp / norm
    return expm(xi * sum(n[i] * BOOST_GEN[i] for i in range(3)))


def little_group_element(lam, p4, mass):
    """Single-node 4x4 pipeline B(Lp)^{-1} L B(p), with its time-axis check."""
    b_in = geo.standard_boost(p4, mass)
    b_out_inv = geo.lorentz_inverse(geo.standard_boost(lam @ p4, mass))
    w4 = b_out_inv @ lam @ b_in
    defect = max(abs(w4[0, 0] - 1.0), np.abs(w4[0, 1:]).max(), np.abs(w4[1:, 0]).max())
    assert defect <= 1e-10
    return w4


def rotvec_su2_lift(rots):
    """exp(-i theta n.sigma / 2) from scipy's rotation vector, theta in [0, pi]."""
    rotvec = np.atleast_2d(Rotation.from_matrix(rots).as_rotvec())
    theta = np.linalg.norm(rotvec, axis=-1)
    axis = np.zeros_like(rotvec)
    axis[:, 2] = 1.0  # arbitrary axis where theta == 0 (sin term vanishes)
    nz = theta > 0.0
    axis[nz] = rotvec[nz] / theta[nz, None]
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    u = np.empty(rotvec.shape[:-1] + (2, 2), dtype=complex)
    u[..., 0, 0] = c - 1j * s * axis[..., 2]
    u[..., 0, 1] = -s * axis[..., 1] - 1j * s * axis[..., 0]
    u[..., 1, 0] = s * axis[..., 1] - 1j * s * axis[..., 0]
    u[..., 1, 1] = c + 1j * s * axis[..., 2]
    return u


def test_boost_zero_velocity_is_identity():
    assert np.array_equal(geo.boost_from_velocity([0.0, 0.0, 0.0]), np.eye(4))


def test_boost_hand_values():
    lam = geo.boost_from_velocity([0.0, 0.0, 0.6])
    assert lam[0, 0] == pytest.approx(1.25, abs=1e-14)
    assert lam[0, 3] == pytest.approx(0.75, abs=1e-14)
    gb = lam @ np.array([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(gb, [1.25, 0.0, 0.0, 0.75], atol=1e-14)


def test_boost_inverse_composition():
    beta = np.array([0.2, -0.3, 0.5])
    lam = geo.boost_from_velocity(beta) @ geo.boost_from_velocity(-beta)
    assert np.abs(lam - np.eye(4)).max() < 1e-12


def test_boost_superluminal_rejected():
    with pytest.raises(ValueError, match="superluminal"):
        geo.boost_from_velocity([0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="superluminal"):
        geo.boost_from_velocity([0.8, 0.8, 0.0])
    # below 1, but 1 - beta^2 <= 1e-12: the float boost matrix fails, not causality
    with pytest.raises(NumericalError, match=r"too close to 1 .* = 0\.99999999999989997$"):
        geo.boost_from_velocity([0.0, 0.0, 0.9999999999999])


def test_metric_preservation_random():
    for _ in range(50):
        lam = geo.boost_from_velocity(random_beta(RNG))
        assert helpers.metric_defect(lam) < 1e-12
        assert helpers.is_proper_orthochronous(lam, tol=1e-11)


def test_standard_boost_rest_is_identity():
    m = 2.3
    lam = geo.standard_boost(np.array([m, 0.0, 0.0, 0.0]), m)
    np.testing.assert_allclose(lam, np.eye(4), atol=1e-14)


def test_standard_boost_defining_property():
    m = 0.7
    for _ in range(30):
        p4 = random_onshell(RNG, m)
        lam = geo.standard_boost(p4, m)
        np.testing.assert_allclose(lam @ np.array([m, 0, 0, 0]), p4, rtol=1e-10)
        # pure boost: symmetric spatial block
        assert np.abs(lam[1:, 1:] - lam[1:, 1:].T).max() < 1e-12


def test_standard_boost_rapidity_example():
    m = 1.3
    p4 = np.array([np.sqrt(2.0) * m, 0.0, 0.0, m])
    lam = geo.standard_boost(p4, m)
    xi = np.arcsinh(1.0)
    assert lam[0, 0] == pytest.approx(np.cosh(xi), abs=1e-12)
    assert lam[0, 3] == pytest.approx(np.sinh(xi), abs=1e-12)


def test_standard_boost_offshell_rejected():
    with pytest.raises(ValueError, match="off shell"):
        geo.standard_boost(np.array([1.0, 0.0, 0.0, 0.9]), 1.0)


def test_standard_boost_matches_exponential_oracle():
    m = 1.1
    for _ in range(10):
        p4 = random_onshell(RNG, m)
        np.testing.assert_allclose(geo.standard_boost(p4, m), exp_boost(p4, m), atol=1e-11)


def test_wigner_rotation_passthrough():
    m = 0.9
    rot = helpers.rotation_about([0.3, -1.0, 0.2], 1.1)
    lam = np.eye(4)
    lam[1:, 1:] = rot
    p4 = random_onshell(RNG, m)
    w = geo.wigner_rotation_batch(lam, [p4[1:]], m)[1][0]
    np.testing.assert_allclose(w, rot, atol=1e-11)


def test_wigner_rotation_collinear_identity():
    m = 1.0
    lam = geo.boost_from_velocity([0.0, 0.0, 0.7])
    w = geo.wigner_rotation_batch(lam, [[0.0, 0.0, 0.0]], m)[1][0]
    np.testing.assert_allclose(w, np.eye(3), atol=1e-12)
    w = geo.wigner_rotation_batch(lam, [[0.0, 0.0, 0.4]], m)[1][0]
    np.testing.assert_allclose(w, np.eye(3), atol=1e-11)


def test_wigner_rotation_matrix_product_oracle():
    # transverse configuration: boost along z, momentum along x
    m = 1.0
    lam = geo.boost_from_velocity([0.0, 0.0, 0.6])
    p4 = geo.four_momentum(m, [m, 0.0, 0.0])
    w = geo.wigner_rotation_batch(lam, [p4[1:]], m)[1][0]
    p_out = lam @ p4
    w_oracle = np.linalg.inv(exp_boost(p_out, m)) @ lam @ exp_boost(p4, m)
    np.testing.assert_allclose(w, w_oracle[1:, 1:], atol=1e-10)
    # rotation about y by the oracle angle
    angle = np.arctan2(w_oracle[3, 1], w_oracle[1, 1])
    np.testing.assert_allclose(w, helpers.rotation_about([0.0, 1.0, 0.0], -angle), atol=1e-10)


def test_little_group_closure():
    m = 0.8
    for _ in range(20):
        lam1 = geo.boost_from_velocity(random_beta(RNG, 0.8))
        lam2 = geo.boost_from_velocity(random_beta(RNG, 0.8))
        p4 = random_onshell(RNG, m)
        w1 = geo.wigner_rotation_batch(lam1, [p4[1:]], m)[1][0]
        w2 = geo.wigner_rotation_batch(lam2, [(lam1 @ p4)[1:]], m)[1][0]
        w12 = geo.wigner_rotation_batch(lam2 @ lam1, [p4[1:]], m)[1][0]
        np.testing.assert_allclose(w2 @ w1, w12, atol=1e-10)


def test_wigner_rotation_batch_matches_single_node():
    m = 1.2
    lam = geo.boost_from_velocity(random_beta(RNG, 0.9))
    momenta = RNG.normal(scale=m, size=(40, 3))
    p4, rots = geo.wigner_rotation_batch(lam, momenta, m)
    for q, p_out, w in zip(momenta, p4, rots):
        q4 = geo.four_momentum(m, q)
        np.testing.assert_allclose(p_out, lam @ q4, atol=1e-12)
        np.testing.assert_allclose(w, little_group_element(lam, q4, m)[1:, 1:], atol=1e-12)
    # each node's arithmetic is the same whatever other momenta share its call
    wigner = geo.wigner_quaternion_map(lam, m)
    parts = [wigner(momenta[:7]), wigner(momenta[7:])]
    np.testing.assert_array_equal(np.concatenate([p for p, _ in parts]), p4)
    np.testing.assert_array_equal(np.concatenate([q for _, q in parts], axis=1),
                                  wigner(momenta)[1])
    _, u = geo.wigner_su2_batch(lam, momenta, m)
    np.testing.assert_allclose(u, geo.rotations_to_su2(rots), atol=1e-15)


@pytest.mark.parametrize("velocity", [[0.5, 0.0, 0.6], [0.3, -0.5, 0.6]], ids=["xz", "generic"])
def test_wigner_moments_do_not_depend_on_the_block_size(monkeypatch, velocity):
    tau = helpers.boost(velocity)[0]
    d, s = sh.wigner_moments(tau, 1.0, 9)
    monkeypatch.setattr(sh, "_WIGNER_BLOCK", 7)
    d_seven, s_seven = sh.wigner_moments(tau, 1.0, 9)
    np.testing.assert_allclose(d_seven, d, rtol=1e-14, atol=0.0)
    assert s_seven == pytest.approx(s, rel=1e-14, abs=0.0)


def test_sweep_rows_build_no_lorentz_matrix(monkeypatch):
    # a sweep row passes its boost as tau = tanh(xi/2) n: no Lorentz matrix is
    # built or split into B R, and each block of the rule takes its four-momenta
    # once; n = 24 folded over y is 4 blocks, folded over x and y 2
    calls = {"matrix": 0, "split": 0, "blocks": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(geo, "boost_from_velocity", counted("matrix", geo.boost_from_velocity))
    monkeypatch.setattr(geo, "standard_boost", counted("split", geo.standard_boost))
    monkeypatch.setattr(geo, "_rotation_quaternion", counted("split", geo._rotation_quaternion))
    monkeypatch.setattr(geo, "four_momentum", counted("blocks", geo.four_momentum))
    sh.sweep_values(0.7, 0.5, 1.0, 24)
    assert calls == {"matrix": 0, "split": 0, "blocks": 4}
    en.sweep_values(0.5, 0.6, 24)
    ch.consistency_check(0.2, 0.7, 24)
    assert calls == {"matrix": 0, "split": 0, "blocks": 10}


def test_time_axis_defect_is_raised_before_any_node():
    # B^-1 L of the float boost (gamma ~ 1e4) leaves the time axis by 8.0e-9;
    # the map's function, which evaluates nodes, is never made
    lam = helpers.angle_boost(sh.beta_for_gamma(0.9999, 1.0), 1.0)[1]
    nodes = helpers.packet_rule(1.0, 24)[0]
    messages = []
    for call in (lambda: geo.wigner_quaternion_map(lam, 1.0),
                 lambda: geo.wigner_rotation_batch(lam, nodes, 1.0)):
        with pytest.raises(NumericalError, match="do not fix the time axis") as err:
            call()
        messages.append(str(err.value))
    assert messages == [messages[0]] * 2


def _kernel_cases():
    """Lorentz transformations covering the kernel's split lam = B R."""
    rot = np.eye(4)
    rot[1:, 1:] = helpers.rotation_about([0.4, -1.0, 0.7], 2.3)
    oblique = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    cases = {"identity": np.eye(4), "rotation": rot}
    for beta in (0.1, 0.6, 0.9, 0.99):
        cases[f"boost_{beta}"] = geo.boost_from_velocity(beta * oblique)
    cases["composed_boosts"] = geo.boost_from_velocity([0.7, 0.0, 0.2]) @ geo.boost_from_velocity(
        [0.0, -0.5, 0.6]
    )
    cases["boost_rotation"] = geo.boost_from_velocity(0.9 * oblique) @ rot
    cases["rotation_boost"] = rot @ geo.boost_from_velocity([0.0, 0.8, 0.1])
    return cases


KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_wigner_kernel_matches_4x4_oracle(name):
    # The closed-form Thomas-Wigner kernel against the 4x4 product B(Lq)^-1 L B(q).
    # Largest gap measured at beta = 0.99: 2.5e-13 (atol 1e-11).
    lam = KERNEL_CASES[name]
    m = 1.3
    momenta = np.random.default_rng(7).normal(scale=2.0 * m, size=(64, 3))
    p4, rots = geo.wigner_rotation_batch(lam, momenta, m)
    for q, p_out, w in zip(momenta, p4, rots):
        q4 = geo.four_momentum(m, q)
        np.testing.assert_allclose(p_out, lam @ q4, rtol=1e-14, atol=1e-12)
        np.testing.assert_allclose(w, little_group_element(lam, q4, m)[1:, 1:], atol=1e-11)


@pytest.mark.parametrize("px", [0.3, 1.0, 50.0])
def test_wigner_kernel_perpendicular_angle_at_high_rapidity(px):
    # Boost along z, momentum along x: a rotation about y by -theta with
    # tan(theta/2) = tanh(eta/2) tanh(xi/2), where eta and xi are the rapidities.
    m, beta = 1.0, 0.999999
    lam = geo.boost_from_velocity([0.0, 0.0, beta])
    p4 = geo.four_momentum(m, [px, 0.0, 0.0])
    theta = 2.0 * np.arctan(beta / (1.0 + np.sqrt(1.0 - beta * beta)) * px / (p4[0] + m))
    w = geo.wigner_rotation_batch(lam, [p4[1:]], m)[1][0]
    np.testing.assert_allclose(w, helpers.rotation_about([0.0, 1.0, 0.0], -theta), atol=1e-11)


_ORACLE_QUAT = np.array([0.4, -1.0, 0.7, 1.1]) / np.linalg.norm([0.4, -1.0, 0.7, 1.1])


@pytest.mark.parametrize("velocity, quat, scale, atol", [
    (0.6 * np.array([np.sin(0.7), 0.0, np.cos(0.7)]), None, 2.0, 4e-15),
    (np.array([0.0, 0.0, 0.9]), None, 2.0, 4e-15),
    (np.array([0.3, -0.5, 0.7]), _ORACLE_QUAT, 2.0, 4e-15),
    # gamma ~ 700, |q| ~ 1e3 m: B^-1 L of the float L leaves the time axis by
    # 5.8e-11, so L's rotation part is known only to that angle; turning the
    # oracle's L by it moves the nearly antiparallel nodes' W by up to 2.2e-9
    (0.999999 * np.array([np.sin(1.0), 0.0, np.cos(1.0)]), None, 1e3, 4e-9),
], ids=["xz", "z", "boost_rotation", "gamma_700"])
def test_wigner_kernel_matches_decimal_oracle(velocity, quat, scale, atol):
    # The kernel's rotations and quaternions against B(Lq)^-1 L B(q) taken in
    # 40-digit decimal, with L built from tanh(xi/2) n of the float L's velocity
    # (and its quaternion).
    # Largest gaps measured: 9.2e-16 (boost_rotation) and 1.1e-9 (gamma_700).
    tau, lam = helpers.boost(velocity)
    if quat is not None:
        lam = lam @ np.block([[1.0, np.zeros((1, 3))],
                              [np.zeros((3, 1)), geo.quaternion_rotations(quat[None])[0]]])
    mass = 1.3
    momenta = np.random.default_rng(3).normal(scale=scale * mass, size=(64, 3))
    rots, quats = helpers.decimal_wigner(tau, quat, momenta, mass)
    kernel_quats = geo.wigner_quaternion_map(lam, mass)(momenta)[1].T
    signs = np.sign(np.sum(kernel_quats * quats, axis=1))
    np.testing.assert_allclose(kernel_quats, signs[:, None] * quats, rtol=0.0, atol=atol)
    np.testing.assert_allclose(geo.wigner_rotation_batch(lam, momenta, mass)[1], rots,
                               rtol=0.0, atol=atol)


@pytest.mark.parametrize("tau, delta_over_m", [
    (0.9999 * np.array([np.sin(1.0), 0.0, np.cos(1.0)]), 1.0),
    (np.array([0.0, 0.0, sh.tanh_half_rapidity(0.9999999999999)]), 0.5),
], ids=["spin_gamma_1e4", "entangle_beta_near_1"])
def test_boost_quaternions_match_decimal_oracle_at_large_rapidity(tau, delta_over_m):
    # The tau path at gamma ~ 1e4 (the spin row --theta 1 --gamma 0.9999) and
    # gamma ~ 2.2e6 (the entangle row at beta = 0.9999999999999), on the nodes of
    # a packet rule, against the 40-digit product with L taken exactly from tau.
    # A float L cannot carry these boosts: a 1-ulp change in beta moves the
    # rapidity by about 5e-9 at gamma ~ 1e4.  Largest gap measured: 2.2e-16.
    nodes = helpers.packet_rule(delta_over_m, 12)[0]
    quats = helpers.decimal_wigner(tau, None, nodes, 1.0)[1]
    kernel_quats = geo.boost_quaternions(tau, nodes).T
    signs = np.sign(np.sum(kernel_quats * quats, axis=1))
    np.testing.assert_allclose(kernel_quats, signs[:, None] * quats, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize(
    "signs",
    [(1, -1, -1, -1), (1, -1, 1, 1), (-1, 1, 1, 1), (-1, -1, -1, -1)],
    ids=["parity", "mirror", "time_reversal", "total_inversion"],
)
def test_wigner_kernel_rejects_improper_or_non_orthochronous(signs):
    lam = np.diag(np.array(signs, dtype=float)) @ geo.boost_from_velocity([0.2, 0.0, 0.5])
    momenta = RNG.normal(size=(5, 3))
    with pytest.raises(ValueError, match="proper and orthochronous"):
        geo.wigner_rotation_batch(lam, momenta, 1.0)
    with pytest.raises(ValueError, match="proper and orthochronous"):
        geo.wigner_rotation_batch(lam, momenta[:1], 1.0)
    with pytest.raises(ValueError, match="proper and orthochronous"):
        geo.wigner_su2_batch(lam, momenta, 1.0)


def test_onshell_transport():
    m = 1.7
    for _ in range(20):
        lam = geo.boost_from_velocity(random_beta(RNG))
        p4 = random_onshell(RNG, m)
        q = helpers.minkowski_norm2(lam @ p4)
        assert abs(q - m * m) < 1e-10 * m * m * 10


def test_su2_identity():
    np.testing.assert_allclose(geo.rotations_to_su2(np.eye(3)), np.eye(2), atol=1e-14)


def test_su2_pi_about_z():
    u = geo.rotations_to_su2(helpers.rotation_about([0, 0, 1], np.pi))
    np.testing.assert_allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]),
                               atol=1e-12)


def test_su2_covers_rotation():
    for _ in range(100):
        rot = helpers.rotation_about(RNG.normal(size=3), RNG.uniform(0, np.pi))
        u = geo.rotations_to_su2(rot)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        v = RNG.normal(size=3)
        lhs = u @ (v[0] * PAULI[0] + v[1] * PAULI[1] + v[2] * PAULI[2]) @ u.conj().T
        w = rot @ v
        rhs = w[0] * PAULI[0] + w[1] * PAULI[1] + w[2] * PAULI[2]
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_su2_projective_homomorphism():
    for _ in range(30):
        r1 = helpers.rotation_about(RNG.normal(size=3), RNG.uniform(0, np.pi))
        r2 = helpers.rotation_about(RNG.normal(size=3), RNG.uniform(0, np.pi))
        u12 = geo.rotations_to_su2(r1 @ r2)
        prod = geo.rotations_to_su2(r1) @ geo.rotations_to_su2(r2)
        assert (
            np.abs(u12 - prod).max() < 1e-10 or np.abs(u12 + prod).max() < 1e-10
        )


def test_su2_lift_matches_rotvec_oracle():
    rots = Rotation.random(10000, RNG.integers(2**32)).as_matrix()
    np.testing.assert_allclose(geo.rotations_to_su2(rots), rotvec_su2_lift(rots),
                               rtol=0.0, atol=1e-14)


def test_su2_lift_every_pivot_and_half_turns():
    # Shepperd's pivot is the largest of (R_xx, R_yy, R_zz, trace): near-half
    # turns about each axis pick that axis' diagonal, small angles the trace.
    rots = [helpers.rotation_about([0.0, 0.0, 1.0], np.pi),
            helpers.rotation_about([1.0, 1.0, 0.0], np.pi)]
    for axis in np.eye(3):
        for angle in (np.pi, np.pi - 1e-9, 3.0):
            rots.append(helpers.rotation_about(axis + 0.05 * RNG.normal(size=3), angle))
    for angle in (0.0, 1e-9, 0.5, 2.0):
        rots.append(helpers.rotation_about(RNG.normal(size=3), angle))
    rots = np.array(rots)
    trace = np.trace(rots, axis1=1, axis2=2)
    pivots = np.argmax(np.stack([rots[:, 0, 0], rots[:, 1, 1], rots[:, 2, 2], trace], 1), 1)
    assert set(pivots) == {0, 1, 2, 3}
    np.testing.assert_allclose(geo.rotations_to_su2(rots), rotvec_su2_lift(rots),
                               rtol=0.0, atol=1e-14)


def test_standard_rotation_conventions():
    np.testing.assert_allclose(geo.standard_rotation_batch([[0, 0, 1]])[0], np.eye(3), atol=1e-14)
    np.testing.assert_allclose(
        geo.standard_rotation_batch([[1, 0, 0]])[0],
        helpers.rotation_about([0, 1, 0], np.pi / 2),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        geo.standard_rotation_batch([[0, 0, -1]])[0],
        helpers.rotation_about([1, 0, 0], np.pi),
        atol=1e-12,
    )


def test_standard_rotation_maps_z():
    for _ in range(30):
        khat = RNG.normal(size=3)
        khat /= np.linalg.norm(khat)
        rot = geo.standard_rotation_batch([khat])[0]
        np.testing.assert_allclose(rot @ np.array([0.0, 0.0, 1.0]), khat, atol=1e-10)
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-12
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)


def test_standard_rotation_twist_is_the_polar_rotation():
    # R z = khat leaves the twist about khat free, and the twist fixes the helicity
    # phase: R(khat) is the rotation about z x khat by the polar angle of khat
    rng = np.random.default_rng(7)
    khats = rng.normal(size=(1000, 3))
    khats /= np.linalg.norm(khats, axis=1)[:, None]
    rots = geo.standard_rotation_batch(khats)
    oracle = [helpers.rotation_about(np.cross([0.0, 0.0, 1.0], k), np.arccos(k[2]))
              for k in khats]
    np.testing.assert_allclose(rots, oracle, rtol=0.0, atol=5e-15)


def test_standard_rotation_near_minus_z():
    # the arccos oracle is ill-conditioned here, so check R z = khat and R^T R = I
    rng = np.random.default_rng(8)
    offsets = rng.normal(size=(1000, 2))
    scales = 10.0 ** rng.uniform(-12.0, -3.0, size=1000) / np.linalg.norm(offsets, axis=1)
    offsets *= scales[:, None]
    khats = np.column_stack([offsets, -np.ones(1000)])
    khats /= np.linalg.norm(khats, axis=1)[:, None]
    rots = geo.standard_rotation_batch(khats)
    np.testing.assert_allclose(rots[:, :, 2], khats, rtol=0.0, atol=2e-15)
    np.testing.assert_allclose(np.swapaxes(rots, 1, 2) @ rots,
                               np.broadcast_to(np.eye(3), rots.shape), rtol=0.0, atol=4e-15)


def test_standard_rotation_rejects_non_unit():
    with pytest.raises(ValueError, match="unit"):
        geo.standard_rotation_batch([[0.0, 0.0, 0.5]])[0]


def test_wigner_su2_batch_from_kernel_quaternions():
    # U is taken from the kernel's quaternions with the sign that makes
    # w >= 0, the convention of rotations_to_su2; a rotation near pi behind
    # the boost gives nodes whose kernel quaternion has w < 0.
    rot = np.eye(4)
    rot[1:, 1:] = helpers.rotation_about([0.3, 1.0, -0.2], np.pi - 0.05)
    lam = geo.boost_from_velocity([0.5, 0.0, 0.3]) @ rot
    momenta = np.random.default_rng(11).normal(size=(200, 3))
    quats = geo.wigner_quaternion_map(lam, 1.0)(momenta)[1].T
    assert np.any(quats[:, 3] < 0.0) and np.any(quats[:, 3] > 0.0)
    _, u = geo.wigner_su2_batch(lam, momenta, 1.0)
    _, rots = geo.wigner_rotation_batch(lam, momenta, 1.0)
    np.testing.assert_allclose(u, geo.rotations_to_su2(rots), rtol=0.0, atol=1e-15)


def test_off_shell_momentum_is_a_numerical_error():
    # NumericalError is a ValueError: in a sweep row it makes a NaN row, outside one exit 3
    with pytest.raises(NumericalError, match="off shell"):
        geo.standard_boost(np.array([1.0, 0.0, 0.0, 0.9]), 1.0)
