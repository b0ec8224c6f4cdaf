"""Golden outputs: relqi prints the same bytes for every pinned invocation.

tests/golden/cases.json lists each case's argv, exit code and stderr; its
stdout is tests/golden/<case>.stdout.  The cases are every subcommand at
its defaults, the four seed-0 benchmark invocations (their flags come from
bench/workloads.py), the pinned failures, and the report branches that the
defaults leave out (a zero gamma, a witness that does not fire, helicity -1
and a single-speed doppler JSON).  A golden file is edited only
when a printed value changes, with the change listed in CHANGES.md beside
an oracle value, and never to make a defect pass.

Values that are only rounding noise are compared by rule, not byte for
byte: the minimum Choi eigenvalue of a channel audit (LAPACK noise around
an exact 0) and the photon rel_delta of `convergence` (8.13e-16, two equal
sums) within the benchmark's absolute 1e-14, and the time-axis defect on
stderr up to its number.
"""

import contextlib
import importlib.util
import io
import json
import pathlib
import re
import sys

import pytest

from relqi import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
WORKLOADS = GOLDEN.parent.parent / "bench" / "workloads.py"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))

ABS_NOISE = 1e-14  # bench/checks.py REF_ABS_TOL
# (subcommand, stream, pattern whose group 2 is a noise value, compared within ABS_NOISE
# or not compared)
NOISE = (
    ("channel-audit", "stdout", r'("min_choi_eig": )([^,\n]+)()', True),
    ("convergence", "stdout",
     r"^(photon_pair_error_dr_over_k_0\.01,(?:[^,]*,){4})([^,]*)(,)", True),
    ("spin-entropy", "stderr", r"(do not fix the time axis \()([^)]*)(\))", False),
)


def _masked(command: str, stream: str, text: str):
    """`text` with its noise values replaced by `*`, and those values (compared ones only)."""
    values = []
    for where, kind, pattern, compared in NOISE:
        if (where, kind) != (command, stream):
            continue
        values += [float(m.group(2)) for m in re.finditer(pattern, text, re.M) if compared]
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


def test_benchmark_cases_follow_the_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    pinned = {f"bench-{inv.name}": inv.argv(inv.sweep_texts(w.name, 0), "-")
              for w in workloads.WORKLOADS.values() for inv in w.invocations}
    assert len(pinned) == 4
    assert {name: CASES[name]["argv"] for name in pinned} == pinned
