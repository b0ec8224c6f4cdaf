"""The photon oracle comparisons fail when the photon kernel's digits move.

tests/test_printed_digits.py compares every value the photon subcommands
print with a dblquad oracle at relative 5e-12, half a unit in the 12th
printed digit.  A comparison passes as easily when it is blind as when the
program is right, so here each of its cases runs through `cli.run` as the
program stands, where it must pass, and with one input of the photon kernel
perturbed, where one of its oracle comparisons must fail:

- every output of `photon._beam_means` scaled by 1 + 1e-10, 20 times the
  5e-12 bound;
- 1e-10 added to the first Gauss-Laguerre weight that `photon._gauss_floats`
  hands the kernel.  The weights sum to 1, so this puts a part in 1e10 more
  of the rule's mass on its innermost node, near k_r = 0, and moves each
  normalised mean of k_r^2 by about 1e-10 of itself.  A uniform scale of
  the weights would cancel in that normalisation.

The sizes are set by the bound, not tuned to the cases.  The oracle
integrals are memoised here, so that each is taken once.
"""

import functools

import pytest

from relqi import photon
import test_printed_digits as digits

PERTURBATION = 1e-10
CASES = [test for name, test in vars(digits).items() if name.startswith("test_")]
ORACLES = {name: functools.cache(getattr(digits, name))
           for name in ("sin2_mean", "one_minus_cos_mean")}


def scale_beam_means(monkeypatch):
    kernel = photon._beam_means

    def scaled(*args):
        sin2, means = kernel(*args)
        up = 1.0 + PERTURBATION
        return sin2 * up, [(minus * up, plus * up) for minus, plus in means]

    monkeypatch.setattr(photon, "_beam_means", scaled)


def raise_first_laguerre_weight(monkeypatch):
    rules = photon._gauss_floats

    def raised(name, nodes_per_axis):
        x, w = rules(name, nodes_per_axis)
        if name == "Gauss-Laguerre":
            w = (w[0] + PERTURBATION,) + w[1:]
        return x, w

    monkeypatch.setattr(photon, "_gauss_floats", raised)


@pytest.mark.parametrize("perturb", [None, scale_beam_means, raise_first_laguerre_weight],
                         ids=["unperturbed", "beam-means-scaled", "laguerre-weight-raised"])
def test_printed_digit_cases_fail_exactly_when_the_kernel_moves(monkeypatch, perturb):
    assert len(CASES) >= 5
    for name, oracle in ORACLES.items():
        monkeypatch.setattr(digits, name, oracle)
    if perturb is None:
        for case in CASES:
            case()
        return
    perturb(monkeypatch)
    for case in CASES:
        with pytest.raises(AssertionError) as failure:
            case()
        # an oracle comparison failed, not the exit code or the converged flag
        assert "pytest.approx(" in str(failure.traceback[-1].statement), case.__name__
