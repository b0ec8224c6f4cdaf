"""Correctness checks on relqi output files.

A row fails when it is missing, holds NaN or an unparsable field, or
misses a check.  Every seed gets the physics checks; seed 0 is also
compared field by field with the committed reference outputs.  A channel
audit report counts as one row.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import Invocation

REF_REL_TOL = 1e-8
REF_ABS_TOL = 1e-14
EXACT_FIELDS = ("grid_nodes", "converged")
# Leading-order Doppler law: the printed errors sit within 0.2% of it on these grids.
DOPPLER_REL_TOL = 1e-2


class RowError(Exception):
    pass


def _num(row: dict, key: str) -> float:
    try:
        value = float(row[key])
    except (KeyError, TypeError, ValueError):
        raise RowError(f"{key}: missing or not a number ({row.get(key)!r})") from None
    if not math.isfinite(value):
        raise RowError(f"{key}: not finite ({value})")
    return value


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise RowError(message)


def _match(row: dict, key: str, expected: float) -> None:
    value = _num(row, key)
    _require(_close(value, expected, 1e-9, 1e-12), f"{key}: {value} != {expected}")


def _common(row: dict, inv: Invocation) -> None:
    _require(row.get("converged") == "true", f"converged: {row.get('converged')!r}")
    _require(row.get("grid_nodes") == str(inv.resolution**3),
             f"grid_nodes: {row.get('grid_nodes')!r}")


def _check_spin(row: dict, params: tuple, inv: Invocation) -> None:
    theta, gamma = params
    dm = inv.pinned_value("--delta-over-m")
    _match(row, "theta", theta)
    _match(row, "gamma", gamma)
    _match(row, "delta_over_m", dm)
    _common(row, inv)
    entropy, p_error, beta = _num(row, "entropy_bits"), _num(row, "p_error"), _num(row, "beta")
    _require(0.0 <= entropy <= 1.0, f"entropy_bits {entropy} outside [0, 1]")
    _require(0.0 <= p_error <= 0.5, f"p_error {p_error} outside [0, 1/2]")
    _require(0.0 <= beta < 1.0, f"beta {beta} outside [0, 1)")
    mixing = 0.0 if beta == 0.0 else dm * (1.0 - math.sqrt(1.0 - beta * beta)) / beta
    _require(_close(mixing, gamma, 1e-9, 1e-12), f"beta {beta} does not give gamma {gamma}")


def _check_doppler(row: dict, params: tuple, inv: Invocation) -> None:
    (v,) = params
    k_a, dr = inv.pinned_value("--kA"), inv.pinned_value("--dr")
    _match(row, "v", v)
    _match(row, "kA", k_a)
    _match(row, "delta_r", dr)
    _match(row, "delta_z", inv.pinned_value("--dz"))
    _common(row, inv)
    p_error, closed = _num(row, "p_error"), _num(row, "p_error_closed_form")
    law = (1.0 + v) / (1.0 - v)
    rest = dr * dr / (4.0 * k_a * k_a)
    _require(_close(closed, law * rest, 1e-9), f"p_error_closed_form {closed} != {law * rest}")
    _require(_close(p_error / rest, law, DOPPLER_REL_TOL),
             f"Doppler ratio {p_error / rest} far from (1+v)/(1-v) = {law}")
    _require(_close(p_error, closed, DOPPLER_REL_TOL),
             f"p_error {p_error} far from closed form {closed}")


def _check_entangle(row: dict, params: tuple, inv: Invocation) -> None:
    dm, beta = params
    _match(row, "delta_over_m", dm)
    _match(row, "beta", beta)
    _common(row, inv)
    conc, ent = _num(row, "concurrence"), _num(row, "entropy_of_marginal_bits")
    _require(0.0 <= conc <= 1.0, f"concurrence {conc} outside [0, 1]")
    _require(0.0 <= ent <= 1.0, f"entropy_of_marginal_bits {ent} outside [0, 1]")


def _check_channel(report: dict, inv: Invocation) -> None:
    gamma, v = inv.pinned_value("--gamma"), inv.pinned_value("--witness-v")
    _match(report, "gamma", gamma)
    _require(report.get("is_cp") is True and report.get("is_tp") is True,
             f"is_cp/is_tp: {report.get('is_cp')!r}/{report.get('is_tp')!r}")
    _require(_num(report, "min_choi_eig") >= -1e-12, "negative Choi eigenvalue")
    distance = _num(report, "trace_distance")
    _require(0.0 <= distance <= gamma * gamma, f"trace_distance {distance} above gamma^2")
    ratio = _num(report, "pe_after") / _num(report, "pe_before")
    law = (1.0 + v) / (1.0 - v)
    _require(_close(ratio, law, DOPPLER_REL_TOL), f"witness ratio {ratio} far from {law}")
    _require(bool(report.get("verdict")), "witness verdict missing")


_ROW_CHECKS = {"spin": _check_spin, "doppler": _check_doppler, "entangle": _check_entangle}


def _same_field(key: str, got, want) -> bool:
    if key in EXACT_FIELDS or isinstance(want, (bool, type(None))):
        return got == want
    try:
        a, b = float(got), float(want)
    except (TypeError, ValueError):
        return got == want
    return _close(a, b, REF_REL_TOL, REF_ABS_TOL)


def _compare(row: dict, ref: dict) -> None:
    if set(row) != set(ref):
        raise RowError(f"fields {sorted(row)} differ from reference {sorted(ref)}")
    for key, want in ref.items():
        if not _same_field(key, row[key], want):
            raise RowError(f"{key}: {row[key]!r} differs from reference {want!r}")


def read_rows(kind: str, path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        if kind == "channel":
            return [json.load(handle)]
        return list(csv.DictReader(handle))


def check(inv: Invocation, params: list[tuple], returncode: int, path: Path,
          reference: Path | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one invocation's output file."""
    attempted = len(params)
    if returncode != 0:
        return attempted, attempted, [f"{inv.name}: exit code {returncode}"]
    try:
        rows = read_rows(inv.kind, path)
        refs = read_rows(inv.kind, reference) if reference is not None else None
    except (OSError, ValueError) as exc:
        return attempted, attempted, [f"{inv.name}: unreadable output ({exc})"]
    for found, what in ((rows, "rows"), (refs, "reference rows")):
        if found is not None and len(found) != attempted:
            return attempted, attempted, [f"{inv.name}: {len(found)} {what}, expected {attempted}"]
    failed, problems = 0, []
    for i, (row, p) in enumerate(zip(rows, params)):
        try:
            if inv.kind == "channel":
                _check_channel(row, inv)
            else:
                if None in row or None in row.values():
                    raise RowError("malformed CSV row")
                _ROW_CHECKS[inv.kind](row, p, inv)
            if refs is not None:
                _compare(row, refs[i])
        except RowError as exc:
            failed += 1
            problems.append(f"{inv.name} row {i}: {exc}")
    return attempted, failed, problems
