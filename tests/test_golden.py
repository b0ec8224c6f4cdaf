"""Golden outputs: relqi prints the same bytes for every pinned invocation.

tests/golden/cases.json lists each case's argv, exit code and stderr; its
stdout is tests/golden/<case>.stdout, and every such file names a case.
The cases are every subcommand at its defaults, the four seed-0 benchmark
invocations (their flags come from bench/workloads.py), the pinned
failures, the rows that compute just below a rule's breakdown (photon
rows refined on 190 Gauss-Laguerre nodes), the report branches that the
defaults leave out (a zero gamma, a witness that does not fire,
helicity -1 and a single-speed doppler JSON), and a tilted channel audit
at gamma = 1e-60, whose distance is Gamma^2 sin(theta)/8.  A golden file is edited only
when a printed value changes, with the change listed in CHANGES.md beside
an oracle value, and never to make a defect pass.  This file and
tests/test_cli.py import no scipy: CI also runs them where relqi is
installed without its test extra.

No golden case may call a solver or build a channel: each runs with
every numpy.linalg function but `norm` replaced by one that raises, with
`qmatrix.QubitChannel` refusing to be built, and with the Gauss rules
rebuilt.  The rules come from a QL sweep in the standard library, the
channel audit reads its Choi spectrum from the channel's Kraus weights and
the boosted singlet's marginal entropy is the exact one bit, so no
subcommand makes a LAPACK call or builds a Kraus or Choi matrix.

The four benchmark cases also run as the `python -m relqi` processes the
benchmark times, through `main`, and must print the same bytes.

Every case is compared byte for byte, stdout, stderr and exit code, with no
exception: every printed digit is one relqi computed, and the `rel_delta`
of `convergence` is the relative change between the two values as printed.
"""

import contextlib
import importlib.util
import io
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from relqi import cli, qmatrix
from relqi import wavepacket as wp
import helpers

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
WORKLOADS = GOLDEN.parent.parent / "bench" / "workloads.py"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _expected(name):
    """The exit code, stdout and stderr that case `name` pins."""
    case = CASES[name]
    return case["exit"], (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8"), case["stderr"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_the_golden_file(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy.linalg solver was called")

    def refuse_channel(*args, **kwargs):
        raise AssertionError("a QubitChannel was built")

    for solver, fn in vars(np.linalg).items():
        if callable(fn) and not isinstance(fn, type) and solver != "norm":
            monkeypatch.setattr(np.linalg, solver, refuse)
    monkeypatch.setattr(qmatrix.QubitChannel, "__init__", refuse_channel)
    wp._gauss_outcome.cache_clear()
    assert _run(CASES[name]["argv"]) == _expected(name)


def test_every_golden_file_names_a_case():
    # an orphan file would never be compared
    assert sorted({path.stem for path in GOLDEN.glob("*.stdout")} - set(CASES)) == []


@pytest.mark.parametrize("name", ["bench-spin", "bench-doppler", "bench-channel"])
def test_spin_photon_and_channel_paths_call_no_eigen_solver(monkeypatch, name):
    # the Gauss rules come from a QL sweep in the standard library, and the channel
    # audit reads its Choi spectrum from the channel's Kraus weights
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy.linalg eigen-solver was called")

    for solver in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, solver, refuse)
    wp._gauss_outcome.cache_clear()
    assert _run(CASES[name]["argv"]) == _expected(name)


@pytest.mark.parametrize("name", ["bench-spin", "bench-doppler", "bench-channel",
                                  "bench-entangle"])
def test_the_relqi_process_prints_the_golden_bytes(name):
    # the path the benchmark times: a fresh interpreter through cli.main
    case = CASES[name]
    out = subprocess.run([sys.executable, "-m", "relqi", *case["argv"]], env=helpers.fresh_env(),
                         stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (
        case["exit"], (GOLDEN / f"{name}.stdout").read_bytes(), case["stderr"].encode())


def test_benchmark_cases_follow_the_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    pinned = {f"bench-{inv.name}": inv.argv(inv.sweep_texts(w.name, 0), "-")
              for w in workloads.WORKLOADS.values() for inv in w.invocations}
    assert len(pinned) == 4
    assert {name: CASES[name]["argv"] for name in pinned} == pinned
