"""The 1-D rapidity rule for s = <sin^2(omega/2)> (spin_half.wigner_sin2_mean).

The oracle is a `scipy.integrate.dblquad` of the Thomas-Wigner angle itself,
tan(omega/2) = t sin(theta) / (1 + t cos(theta)) with
t = tanh(xi/2) tanh(eta/2), over the packet's momentum r = p/delta and
cos(theta), never the rule's direction mean or its series.  The packet is
wigner_moments': the probability r^2 exp(-r^2) dr (PLAIN), over the energy
sqrt(1 + (delta/m)^2 r^2) (INVARIANT).
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from relqi import spin_half as sh
from relqi import wavepacket as wp
from relqi.wavepacket import Measure
import helpers

CUT = 9.0  # the integrals stop where r^2 exp(-r^2) is 5e-34
NODES = 32  # the value at 2 * NODES rapidity nodes is the one checked


def dblquad_s(a, d, convention):
    """<sin^2(omega/2)> at tanh(xi/2) = a and delta/m = d, by dblquad over (r, cos theta)."""
    def weight(r):
        w = r * r * math.exp(-r * r)
        return w / math.sqrt(1.0 + (d * r) ** 2) if convention is Measure.INVARIANT else w

    def sin2_half_omega(c, r):
        p = d * r  # |p| / m = sinh(eta), so tanh(eta/2) = p / (E/m + 1)
        t = a * p / (math.sqrt(1.0 + p * p) + 1.0)
        return weight(r) * t * t * (1.0 - c * c) / (1.0 + 2.0 * t * c + t * t)

    # split r where eta passes 1, which a wide packet reaches at small r
    edges = sorted({0.0, min(1.0 / d, CUT), CUT})
    spans = list(zip(edges, edges[1:]))
    num = sum(dblquad(sin2_half_omega, lo, hi, -1.0, 1.0, epsabs=0.0, epsrel=2e-14)[0]
              for lo, hi in spans)
    norm = sum(quad(weight, lo, hi, epsabs=0.0, epsrel=2e-14)[0] for lo, hi in spans)
    return num / (2.0 * norm)


@pytest.mark.parametrize("a, d, convention", [
    (1e-3, 1e-2, Measure.PLAIN),
    (0.5, 1e-2, Measure.INVARIANT),
    (0.25, 1.0, Measure.PLAIN),  # spin-entropy --theta 0 --gamma 0.25: p_error = s
    (sh.tanh_half_rapidity(0.9), 0.5, Measure.INVARIANT),  # entangle-sweep (0.5, 0.9)
    (0.9, 3.0, Measure.PLAIN),
    (0.005, 100.0, Measure.PLAIN),  # spin-entropy --gamma 0.5 --delta-over-m 100
    (0.5, 100.0, Measure.INVARIANT),
])
def test_s_matches_a_thomas_wigner_dblquad(a, d, convention):
    coarse, fine = (sh.wigner_sin2_mean(a, d, n, convention) for n in (NODES, 2 * NODES))
    oracle = dblquad_s(a, d, convention)
    assert fine == pytest.approx(oracle, rel=1e-13, abs=0.0)
    # the n/2n pair carries its own error: the coarse value sits within its change
    assert abs(coarse - oracle) <= abs(coarse - fine) + 1e-13 * oracle


@pytest.mark.parametrize("d", [1e-110, 5e-322])
@pytest.mark.parametrize("convention", [Measure.PLAIN, Measure.INVARIANT])
def test_a_narrow_packet_gives_the_leading_term(d, convention):
    # s -> tanh^2(xi/2) (delta/m)^2 / 4; at a subnormal width both round to 0
    a = 0.3
    leading = a * a * d * d / 4.0
    for s in (sh.wigner_sin2_mean(a, d, n, convention) for n in (NODES, 2 * NODES)):
        assert s == pytest.approx(leading, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("theta, convention", [
    (0.0, Measure.PLAIN),
    (0.0, Measure.INVARIANT),
    (1.1, Measure.PLAIN),
])
def test_the_3d_moments_are_minus_r_diag_s_s_2s_rt(theta, convention):
    # D of the 3-D rule is -R diag(s, s, 2s) R^T, R turning z onto the boost
    # direction, within the 3-D rule's own change from n to 2n
    a, d = 0.5, 1.0
    tau = a * np.array([math.sin(theta), 0.0, math.cos(theta)])
    rot = helpers.rotation_about([0.0, 1.0, 0.0], theta)
    s = sh.wigner_sin2_mean(a, d, 2 * NODES, convention)
    expected = -rot @ np.diag([s, s, 2.0 * s]) @ rot.T
    (d_n, s_n), (d_2n, s_2n) = (sh.wigner_moments(tau, d, n, convention) for n in (16, 32))
    change = np.abs(d_n - d_2n).max()
    assert 0.0 < change < 1e-3 * s
    assert np.abs(d_2n - expected).max() <= change
    assert abs(s_2n - s) <= abs(s_n - s_2n)


def test_s_reads_no_numpy():
    probe = ("import json, sys; from relqi import spin_half; "
             f"spin_half.wigner_sin2_mean(0.5, 1.0, {NODES}); "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('numpy.'))))")
    out = subprocess.run([sys.executable, "-c", probe], env=helpers.fresh_env(),
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []


def test_wide_packets_compute_or_say_why():
    s = sh.wigner_sin2_mean(0.3, 1e200, 2 * NODES)
    assert 0.0 < s < 0.5
    with pytest.raises(wp.NumericalError, match="too wide for floats"):
        sh.wigner_sin2_mean(0.3, 1e308, 2 * NODES)


@pytest.mark.parametrize("args", [(1.0, 1.0, 8), (-0.1, 1.0, 8), (0.5, 0.0, 8),
                                  (0.5, math.nan, 8), (0.5, 1.0, 0)])
def test_invalid_inputs_raise(args):
    with pytest.raises(ValueError, match="0 <= tanh"):
        sh.wigner_sin2_mean(*args)
