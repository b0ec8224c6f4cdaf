"""Printed digits against an independent oracle: the photon subcommands.

Each case runs a subcommand through `cli.run`, parses what it prints and
compares every value with a `scipy.integrate.dblquad` over (k_z, k_r) of
the beam's invariant measure |f|^2 d^3k / |k|, never with relqi's own
rules.  The beam is `gaussian_beam`'s: |f|^2 = exp(-(k_z - kA)^2 / dz^2 -
k_r^2 / dr^2).  An observer moving at speed v along z sees each direction
by exact aberration, cos theta' = (cos theta - v) / (1 - v cos theta); the
oracle integrates 1 - cos theta' in the form (1 + v)(1 - cos theta) /
(1 - v cos theta), with 1 - cos theta = sin^2 theta / (1 + cos theta), so
that no mean is a difference of two numbers close to 1.

The tolerance is half a unit in the 12th significant digit that the CLI
prints, relative 5e-12.  Entries that vanish by the beam's axial symmetry
must print exactly 0.
"""

import contextlib
import functools
import io
import json
import math

import pytest
from scipy.integrate import dblquad

from relqi import cli

K_MEAN, DELTA_Z = 100.0, 0.1  # the defaults of the photon subcommands
CUT = 9.0  # the integrals stop where the envelope is exp(-81)
REL = 5e-12


def _integral(delta_r, h):
    """The beam integral of h(k_z, k_r) in units t = (k_z - kA)/dz, u = k_r/dr."""
    def integrand(u, t):
        k_z, k_r = K_MEAN + DELTA_Z * t, delta_r * u
        return math.exp(-t * t - u * u) * u / math.hypot(k_z, k_r) * h(k_z, k_r)

    return dblquad(integrand, -CUT, CUT, 0.0, CUT, epsabs=0.0, epsrel=1e-13)[0]


@functools.lru_cache(maxsize=None)
def _norm(delta_r):
    return _integral(delta_r, lambda k_z, k_r: 1.0)


def sin2_mean(delta_r):
    """<sin^2 theta> at rest."""
    return _integral(delta_r, lambda k_z, k_r: k_r * k_r / (k_z * k_z + k_r * k_r)) / _norm(delta_r)


def one_minus_cos_mean(delta_r, v):
    """<1 - cos theta'> seen by an observer moving at speed v along z."""
    def aberrated(k_z, k_r):
        k = math.hypot(k_z, k_r)
        cos, sin2 = k_z / k, (k_r / k) ** 2
        return (1.0 + v) * (sin2 / (1.0 + cos)) / (1.0 - v * cos)

    return _integral(delta_r, aberrated) / _norm(delta_r)


def pair_error(delta_r, v):
    """(1 - |<cos theta'>|)/2 of the circular pair."""
    mean = one_minus_cos_mean(delta_r, v)
    return 0.5 * min(mean, 2.0 - mean)


def _printed(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv + ["--out", "-"])
    assert code == 0
    return out.getvalue()


def _csv_rows(argv):
    header, *lines = _printed(argv).splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def test_photon_distinguish_defaults():
    rows = _csv_rows(["photon-distinguish"])
    assert [float(row["delta_r"]) for row in rows] == [0.3, 1.0, 3.0]
    for row in rows:
        assert float(row["p_error"]) == pytest.approx(
            pair_error(float(row["delta_r"]), 0.0), rel=REL, abs=0.0)


def test_doppler_pair_errors():
    rows = _csv_rows(["doppler", "--v=-0.9,0.5,0.9"])
    assert [float(row["v"]) for row in rows] == [-0.9, 0.5, 0.9]
    for row in rows:
        assert float(row["p_error"]) == pytest.approx(
            pair_error(1.0, float(row["v"])), rel=REL, abs=0.0)


def test_photon_density_entries():
    report = json.loads(_printed(["photon-density"]))
    re, im = report["rho_re"], report["rho_im"]
    s, c = sin2_mean(1.0), 1.0 - one_minus_cos_mean(1.0, 0.0)
    expected = {(0, 0): 0.5 - 0.25 * s, (1, 1): 0.5 - 0.25 * s, (2, 2): 0.5 * s}
    for i in range(3):
        for j in range(3):
            if (i, j) in expected:
                assert re[i][j] == pytest.approx(expected[i, j], rel=REL, abs=0.0)
            else:
                assert re[i][j] == 0.0
            if {i, j} == {0, 1}:
                assert im[i][j] == pytest.approx(0.5 * c * (i - j), rel=REL, abs=0.0)
            else:
                assert im[i][j] == 0.0


def test_photon_distinguish_at_a_190_node_refinement():
    # --resolution 95 refines on 190 Gauss-Laguerre nodes
    (row,) = _csv_rows(["photon-distinguish", "--dr", "1", "--resolution", "95"])
    assert row["converged"] == "true"
    assert float(row["p_error"]) == pytest.approx(pair_error(1.0, 0.0), rel=REL, abs=0.0)


def test_doppler_at_a_190_node_refinement():
    report = json.loads(_printed(["doppler", "--v", "0.5", "--resolution", "95"]))
    assert report["converged"] is True
    rest, boosted = pair_error(1.0, 0.0), pair_error(1.0, 0.5)
    assert report["pe_rest"] == pytest.approx(rest, rel=REL, abs=0.0)
    assert report["pe_boosted"] == pytest.approx(boosted, rel=REL, abs=0.0)
    assert report["ratio"] == pytest.approx(boosted / rest, rel=REL, abs=0.0)
