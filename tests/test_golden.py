"""Golden outputs: relqi prints the same bytes for every pinned invocation.

tests/golden/cases.json lists each case's argv, exit code and stderr; its
stdout is tests/golden/<case>.stdout, and every such file names a case.
The cases are every subcommand at its defaults, the four seed-0 benchmark
invocations (their flags come from bench/workloads.py), the pinned
failures, the rows that compute just below a rule's breakdown (photon
rows refined on 190 Gauss-Laguerre nodes), and the report branches that
the defaults leave out (a zero gamma, a witness that does not fire,
helicity -1 and a single-speed doppler JSON).  A golden file is edited only
when a printed value changes, with the change listed in CHANGES.md beside
an oracle value, and never to make a defect pass.  This file and
tests/test_cli.py import no scipy: CI also runs them where relqi is
installed without its test extra.

Values that are only rounding noise are compared by rule, not byte for
byte: the photon rel_delta of `convergence` (2.71e-16, two equal sums),
within the benchmark's absolute 1e-14.
"""

import contextlib
import importlib.util
import io
import json
import pathlib
import re
import sys

import numpy as np
import pytest

from relqi import cli
from relqi import wavepacket as wp

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
WORKLOADS = GOLDEN.parent.parent / "bench" / "workloads.py"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))

ABS_NOISE = 1e-14  # bench/checks.py REF_ABS_TOL
# (subcommand, stream, pattern whose group 2 is a noise value, compared within ABS_NOISE)
NOISE = (
    ("convergence", "stdout", r"^(photon_pair_error_dr_over_k_0\.01,(?:[^,]*,){4})([^,]*)(,)"),
)


def _masked(command: str, stream: str, text: str):
    """`text` with its noise values replaced by `*`, and those values."""
    values = []
    for where, kind, pattern in NOISE:
        if (where, kind) != (command, stream):
            continue
        values += [float(m.group(2)) for m in re.finditer(pattern, text, re.M)]
        text = re.sub(pattern, r"\1*\3", text, flags=re.M)
    return text, values


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_the_golden_file(name):
    case = CASES[name]
    code, out, err = _run(case["argv"])
    assert code == case["exit"]
    command = case["argv"][0]
    expected = {"stdout": (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8"),
                "stderr": case["stderr"]}
    for stream, got in (("stdout", out), ("stderr", err)):
        got_text, got_values = _masked(command, stream, got)
        want_text, want_values = _masked(command, stream, expected[stream])
        assert got_text == want_text, stream
        assert len(got_values) == len(want_values)
        for g, w in zip(got_values, want_values):
            assert abs(g - w) <= ABS_NOISE, (stream, g, w)


def test_every_golden_file_names_a_case():
    # an orphan file would never be compared
    assert sorted({path.stem for path in GOLDEN.glob("*.stdout")} - set(CASES)) == []


@pytest.mark.parametrize("name", ["bench-spin", "bench-doppler", "bench-channel"])
def test_spin_photon_and_channel_paths_call_no_eigen_solver(monkeypatch, name):
    # the Gauss rules come from a QL sweep in the standard library, and the channel
    # audit reads its Choi spectrum from the Kraus Gram matrix
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy.linalg eigen-solver was called")

    for solver in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, solver, refuse)
    wp._gauss_outcome.cache_clear()
    case = CASES[name]
    assert _run(case["argv"]) == (
        case["exit"], (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8"), case["stderr"])


def test_benchmark_cases_follow_the_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    pinned = {f"bench-{inv.name}": inv.argv(inv.sweep_texts(w.name, 0), "-")
              for w in workloads.WORKLOADS.values() for inv in w.invocations}
    assert len(pinned) == 4
    assert {name: CASES[name]["argv"] for name in pinned} == pinned
