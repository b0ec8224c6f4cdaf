"""The paper's laws, checked on the rows relqi prints.

Each test runs a subcommand through `cli.run`, parses its CSV or JSON and
checks a relation between printed values: the Doppler law of the photon
pair error, the pair error's positivity and its paraxial closed form, the
polarization matrix as a state with no pure photon qubit, the spin
entropy as the binary entropy of the printed pair error and its dependence
on the boost direction, the spin pair error's shape in theta, the channel
audit's quadratic law off axis and quartic law on axis, and the boosted
singlet's concurrence falling with beta and delta/m over an exact one-bit
marginal.  No oracle is computed; the golden cases supply the spin and
density invocations.

Every value is printed with 12 significant digits, so each is within half
a unit of its 12th digit, relative HALF_DIGIT, of the float relqi computed.
Each tolerance below is derived from that bound and stated where it is
used.  This file imports no scipy: CI also runs it where relqi is installed
without its test extra.
"""

import contextlib
import io
import json
import math
import pathlib

import numpy as np
import pytest

from relqi import cli, spin_half

CASES = json.loads((pathlib.Path(__file__).resolve().parent / "golden" / "cases.json")
                   .read_text(encoding="utf-8"))
HALF_DIGIT = 5e-12  # half a unit in the 12th significant digit, relative
# a ratio of two printed values is within two HALF_DIGITs of the ratio of the floats
RATIO_DIGITS = 2 * HALF_DIGIT
# the next term of a paraxial law moves a hundredfold fall by a share of order (dr/kA)^2
# at the coarse row: at most 9e-4 times a coefficient that reaches 17 at v = 0.9, a
# share of at most 0.3% on these rows
NEXT_ORDER = 5e-3


def _printed(argv) -> str:
    """What `cli.run(argv)` prints on stdout (`--out` is `-` unless argv says otherwise)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    return out.getvalue()


def _rows(argv) -> list:
    """The printed CSV rows of `argv` as dicts of floats, and of `converged` as a bool."""
    header, *lines = _printed(argv).splitlines()
    return [{key: cell == "true" if key == "converged" else float(cell)
             for key, cell in zip(header.split(","), line.split(","))} for line in lines]


def _falls_a_hundredfold(coarse: float, fine: float) -> bool:
    """Whether a deviation from a law falls from `coarse` to `fine`, 100 times smaller.

    Each deviation is a printed ratio minus 1 and is off by up to RATIO_DIGITS, so
    their quotient is off by RATIO_DIGITS / |fine| + RATIO_DIGITS / |coarse|, relative;
    NEXT_ORDER allows for the law's next term at the coarse row.
    """
    slack = RATIO_DIGITS / abs(fine) + RATIO_DIGITS / abs(coarse) + NEXT_ORDER
    return abs(coarse / (100.0 * fine) - 1.0) <= slack


def test_doppler_ratio_tends_to_the_doppler_factor():
    # p_error(v) / p_error(0) -> (1 + v)/(1 - v) as dr/kA -> 0, with a deviation of
    # order (dr/kA)^2: a hundredfold fall per decade of dr at kA = 100, dz = 0.1
    deviation = {}
    for dr in (1.0, 0.1, 0.01):
        rows = _rows(["doppler", "--format", "csv", "--v=-0.9,-0.5,0,0.5,0.9", "--dr", str(dr)])
        assert len(rows) == 5
        rest = next(row["p_error"] for row in rows if row["v"] == 0.0)
        for row in rows:
            v = row["v"]
            if v != 0.0:
                deviation[dr, v] = row["p_error"] / rest / ((1 + v) / (1 - v)) - 1.0
    for v in (-0.9, -0.5, 0.5, 0.9):
        assert 0.0 < abs(deviation[0.01, v]) < 1e-7, v
        for coarse, fine in ((1.0, 0.1), (0.1, 0.01)):
            assert _falls_a_hundredfold(deviation[coarse, v], deviation[fine, v]), (v, coarse)


def test_photon_pair_error_is_positive_at_every_finite_spread():
    # no two photon states are exactly orthogonal: a finite radial spread gives a
    # positive pair error, however narrow the beam
    rows = _rows(["photon-distinguish", "--dr", "1e-3,0.01,0.1,0.3,1,3,10"])
    assert len(rows) == 7
    assert all(row["p_error"] > 0.0 for row in rows)


def test_photon_pair_error_tends_to_its_closed_form():
    # p_error -> (dr / 2kA)^2 as dr/kA -> 0: the default dr sweep at kA = 100, 1000 and
    # 10000, where dz/kA shrinks with dr/kA and the gap falls a hundredfold per decade
    gap = {}
    for k_mean in (100.0, 1000.0, 10000.0):
        rows = _rows(["photon-distinguish", "--kA", str(k_mean)])
        assert len(rows) == 3
        for row in rows:
            assert row["p_error"] > 0.0
            gap[k_mean, row["delta_r"]] = row["p_error"] / row["p_error_closed_form"] - 1.0
    for dr in (0.3, 1.0, 3.0):
        for coarse, fine in ((100.0, 1000.0), (1000.0, 10000.0)):
            assert _falls_a_hundredfold(gap[coarse, dr], gap[fine, dr]), (dr, coarse)


@pytest.mark.parametrize("name", ["photon-density", "photon-density-helicity-minus"])
def test_photon_density_is_a_state_with_no_pure_qubit(name):
    report = json.loads(_printed(CASES[name]["argv"]))
    rho_re, rho_im = np.array(report["rho_re"]), np.array(report["rho_im"])
    # each printed entry is within HALF_DIGIT of its float, relative; the floats are
    # symmetric (real part) and antisymmetric (imaginary part)
    np.testing.assert_allclose(rho_re, rho_re.T, rtol=2 * HALF_DIGIT, atol=0.0)
    np.testing.assert_allclose(rho_im, -rho_im.T, rtol=2 * HALF_DIGIT, atol=0.0)
    # the trace: three diagonal entries, each within HALF_DIGIT of a float that sums to 1
    # up to a few units of double rounding
    assert abs(np.trace(rho_re) - 1.0) <= HALF_DIGIT * np.abs(np.diag(rho_re)).sum() + 1e-15
    # printing moves every entry by at most HALF_DIGIT of it, so an eigenvalue by at most
    # HALF_DIGIT times the Frobenius norm of the matrix
    rho = rho_re + 1j * rho_im
    assert np.linalg.eigvalsh(rho).min() >= -HALF_DIGIT * np.linalg.norm(rho)
    # rho_zz = <sin^2 theta>/2 > 0: a photon's polarization is never a pure qubit
    assert rho_re[2, 2] > 0.0


def _binary_entropy(p: float) -> float:
    if p == 0.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log1p(-p) / math.log(2.0))


@pytest.mark.parametrize("name", ["spin-entropy", "spin-distinguish", "bench-spin",
                                  "spin-entropy-gamma-1e4"])
def test_spin_entropy_is_the_binary_entropy_of_the_pair_error(name):
    rows = _rows(CASES[name]["argv"])
    assert rows
    for row in rows:
        p, entropy = row["p_error"], row["entropy_bits"]
        want = _binary_entropy(p)
        if want == 0.0:
            assert entropy == 0.0
            continue
        # the printed p is within HALF_DIGIT of its float, which moves h(p) by
        # HALF_DIGIT times |p h'(p) / h(p)|, relative; the printed entropy adds HALF_DIGIT
        slope = abs(p * math.log2((1.0 - p) / p) / want)
        assert abs(entropy / want - 1.0) <= HALF_DIGIT * (1.0 + slope) + 1e-15, row


def test_spin_entropy_depends_on_the_boost_direction():
    # the spin entropy is not a Lorentz scalar: one packet and one Gamma give different
    # entropies for a boost along z and one along x, and none at Gamma = 0
    rows = _rows(["spin-entropy", "--theta", "0,1.5707963267948966", "--gamma", "0,0.25"])
    assert len(rows) == 4 and all(row["converged"] for row in rows)
    entropy = {(row["theta"] > 0.0, row["gamma"]): row["entropy_bits"] for row in rows}
    assert entropy[False, 0.0] == entropy[True, 0.0] == 0.0
    along_z, along_x = entropy[False, 0.25], entropy[True, 0.25]
    assert along_x > 0.0 and abs(along_z / along_x - 1.0) > 0.1, (along_z, along_x)


def _spin_error(theta: str, gammas, delta_over_m: float = 1.0) -> dict:
    """The printed p_error of spin-distinguish at one theta, by Gamma."""
    rows = _rows(["spin-distinguish", "--theta", theta, "--gamma", ",".join(map(repr, gammas)),
                  "--delta-over-m", repr(delta_over_m)])
    assert len(rows) == len(gammas) and all(row["converged"] for row in rows)
    return {row["gamma"]: row["p_error"] for row in rows}


@pytest.mark.parametrize("delta_over_m, gammas", [
    (0.1, (1e-3, 1e-2, 0.05)),
    (1.0, (1e-3, 1e-2, 0.1, 0.5)),
    (100.0, (1e-3, 1e-2, 0.1, 0.5)),
])
def test_spin_pair_error_across_the_boost_halves_along_it(delta_over_m, gammas):
    # for the isotropic packet D = -R diag(s, s, 2s) R^T, so |r| = 1 - s across the
    # boost and 1 - 2s along it: p_error(pi/2) = p_error(0)/2 exactly, and the cubic
    # grid treats x and z alike.  The printed ratio is within RATIO_DIGITS of the float
    # ratio, which the kernel's rounding moves by less than 1e-14.
    along = _spin_error("0", gammas, delta_over_m)
    across = _spin_error("1.5707963267948966", gammas, delta_over_m)
    for gamma in gammas:
        assert along[gamma] > 0.0
        assert abs(2.0 * across[gamma] / along[gamma] - 1.0) <= RATIO_DIGITS + 1e-14, gamma


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_oblique_spin_pair_error_tends_to_its_theta_shape(theta):
    # p_error(theta) / p_error(0) -> (sin^2 theta + 2 cos^2 theta)/2 as Gamma -> 0, with a
    # gap of order Gamma^2 that falls a hundredfold per decade (6.8e-9 at theta = 0.5 and
    # Gamma = 1e-3); each printed ratio is within RATIO_DIGITS of the float ratio, so the
    # test asks for a fall of at least fifty-fold with that slack on either side
    gammas = (0.1, 0.01, 0.001)
    along, oblique = _spin_error("0", gammas), _spin_error(repr(theta), gammas)
    shape = (math.sin(theta) ** 2 + 2.0 * math.cos(theta) ** 2) / 2.0
    gaps = [abs(oblique[gamma] / along[gamma] / shape - 1.0) for gamma in gammas]
    assert gaps[-1] > RATIO_DIGITS, gaps
    for coarse, fine in zip(gaps, gaps[1:]):
        assert coarse - RATIO_DIGITS >= 50.0 * (fine + RATIO_DIGITS), gaps


def _trace_distance(gamma: float, theta: float) -> float:
    report = json.loads(_printed(["channel-audit", "--gamma", repr(gamma), "--theta", repr(theta)]))
    return report["trace_distance"]


# the float distance carries the rounding of a kernel sum and of the closed form, and
# the quadratic law's next term is of relative order Gamma^2 <= 1e-20: together below
# 1e-14 on these rows, against the HALF_DIGIT of the printed value
LAW_ROUNDING = 1e-14


def _check_the_off_axis_channel_distance_is_quadratic():
    # T e_z = e_z - s (sin theta cos theta, 0, 1 + cos^2 theta) with s -> Gamma^2 / 4, so
    # the distance to the channel image (0, 0, 1 - Gamma^2/2) tends to Gamma^2 sin(theta)/8
    for theta in (0.5, 1.2):
        for gamma in (1e-10, 1e-30, 1e-60):
            law = gamma * gamma * math.sin(theta) / 8.0
            distance = _trace_distance(gamma, theta)
            assert abs(distance / law - 1.0) <= HALF_DIGIT + LAW_ROUNDING, (theta, gamma, distance)


def test_off_axis_channel_distance_is_quadratic_in_gamma():
    _check_the_off_axis_channel_distance_is_quadratic()


def test_the_quadratic_law_sees_s_off_by_1e_10(monkeypatch):
    # s scaled by 1 + e moves the off-axis distance by -e relative, twenty times the
    # tolerance of the law at e = 1e-10
    moments = spin_half.wigner_moments

    def off(*args, **kwargs):
        d, s = moments(*args, **kwargs)
        return d, s * (1.0 + 1e-10)

    monkeypatch.setattr(spin_half, "wigner_moments", off)
    with pytest.raises(AssertionError) as failure:
        _check_the_off_axis_channel_distance_is_quadratic()
    # the law's comparison failed, not the exit code
    assert "distance / law" in str(failure.traceback[-1].statement)


def test_on_axis_channel_distance_is_quartic_in_gamma():
    # at theta = 0 the Gamma^2 terms cancel: d(Gamma) / d(Gamma/2) tends to 2^4 from
    # below, with a gap of order Gamma^2 that falls fourfold per halving.  Each printed
    # ratio is within 16 RATIO_DIGITS of the ratio of the floats, far below the gaps.
    gammas = (0.1, 0.05, 0.025, 0.0125)
    distances = [_trace_distance(gamma, 0.0) for gamma in gammas]
    gaps = [16.0 - coarse / fine for coarse, fine in zip(distances, distances[1:])]
    slack = 16.0 * RATIO_DIGITS
    assert all(gap > slack for gap in gaps), gaps
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.0 * (fine - slack) <= coarse + slack, gaps


def test_concurrence_falls_with_beta_and_width_over_a_one_bit_marginal():
    widths, betas = (1e-4, 1e-3, 1e-2, 0.1, 0.5), (0.1, 0.3, 0.6, 0.9, 0.99)
    rows = _rows(["entangle-sweep", "--delta-over-m=" + ",".join(map(repr, widths)),
                  "--beta=" + ",".join(map(repr, betas))])
    assert len(rows) == len(widths) * len(betas)
    # tracing a spin out of the singlet's state leaves I/2, whatever the boost
    assert all(row["entropy_of_marginal_bits"] == 1.0 for row in rows)
    concurrence = {(row["delta_over_m"], row["beta"]): row["concurrence"] for row in rows}
    # (1 - s)(1 - 3s) falls as s = <sin^2(omega/2)> rises with beta and with delta/m; each
    # printed value <= 1 is within HALF_DIGIT of its float, so two within 2 HALF_DIGIT
    for width in widths:
        for slow, fast in zip(betas, betas[1:]):
            assert concurrence[width, fast] <= concurrence[width, slow] + 2 * HALF_DIGIT
    for beta in betas:
        for narrow, wide in zip(widths, widths[1:]):
            assert concurrence[wide, beta] <= concurrence[narrow, beta] + 2 * HALF_DIGIT
    # and it tends to 1 as delta/m -> 0: 1 - C = 4s - 3s^2 with s of order (delta/m)^2
    # falls a hundredfold per decade.  1 - C is off by at most HALF_DIGIT < RATIO_DIGITS,
    # and the next order of s moves the fall by 2e-4 at beta = 0.99, inside NEXT_ORDER.
    for beta in (0.6, 0.9, 0.99):
        deficits = [1.0 - concurrence[width, beta] for width in (1e-2, 1e-3, 1e-4)]
        for coarse, fine in zip(deficits, deficits[1:]):
            assert _falls_a_hundredfold(coarse, fine), (beta, deficits)
