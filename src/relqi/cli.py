"""Command-line sweeps with deterministic CSV/JSON output.

Subcommands: spin-entropy, spin-distinguish, photon-density,
photon-distinguish, doppler, channel-audit, entangle-sweep, convergence.
Parameter lists accept `a,b,c` or `min:max:step` (inclusive); angles are in
radians, speeds are fractions of c.  Lists starting with a negative number
need the `--flag=value` form.  Rows run in order in the calling thread
and floats, in CSV and JSON alike, are printed with 12 significant digits,
so a fixed configuration yields byte-identical output.  Every subcommand
takes --resolution from 4 to 1000 nodes per axis, 12 by default.
Exit codes: 0 success, 1 numerical non-convergence (output still written),
2 configuration error, 3 numerical failure of a JSON report.  A failed CSV
row, convergence probes included, prints NaN and its reason on stderr.
"""

from __future__ import annotations

import argparse
import errno
import gc
import itertools
import json
import math
import os
import sys

from . import channel, entangle, photon, spin_half, wavepacket

SPIN_HEADER = "theta,gamma,beta,delta_over_m,entropy_bits,p_error,grid_nodes,converged"
PHOTON_HEADER = "kA,delta_r,delta_z,v,p_error,p_error_closed_form,grid_nodes,converged"
ENTANGLE_HEADER = (
    "delta_over_m,beta,concurrence,entropy_of_marginal_bits,grid_nodes,converged"
)
CONVERGENCE_HEADER = (
    "observable,nodes_per_axis,grid_nodes,value,refined_value,rel_delta,converged"
)
MAX_ROWS = 100_000  # the most values of a min:max:step range, and the most rows of a sweep
# the most nodes per axis: the smallest weight of a 1-D rule underflows far below it
# (Gauss-Hermite from 389 nodes, Gauss-Laguerre from 196), and the O(n^2) rule build,
# paid once per process and node count even when the rule breaks down, takes about 1 s
# at 1000 nodes
MAX_RESOLUTION = 1000
MIN_RESOLUTION = 4  # the fewest nodes per axis of every subcommand, convergence included


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


def parse_values(text: str, field: str):
    """Parse `a,b,c` or `min:max:step` into a list of floats."""
    is_range = ":" in text
    parts = text.split(":") if is_range else [t for t in text.split(",") if t != ""]
    try:
        values = [float(t) for t in parts]
    except ValueError:
        raise ConfigError(f"{field}: cannot parse range {text!r}") from None
    if not values:
        raise ConfigError(f"{field}: empty range")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{field}: values must be finite")
    if not is_range:
        return values
    if len(values) != 3 or values[2] <= 0.0 or values[1] < values[0]:
        raise ConfigError(f"{field}: cannot parse range {text!r}")
    lo, hi, step = values
    span = (hi - lo) / step + 1e-9  # the range holds floor(span) + 1 values
    if not span < MAX_ROWS:
        raise ConfigError(f"{field}: a range holds at most {MAX_ROWS} values")
    return [lo + i * step for i in range(int(math.floor(span)) + 1)]


def _map_rows(fn, items):
    """Evaluate the rows of a sweep in order, in the calling thread."""
    return [fn(item) for item in items]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "nan" if math.isnan(value) else f"{value:.12g}"
    return str(value)


def _csv(header: str, rows) -> str:
    keys = header.split(",")
    lines = [header]
    for row in rows:
        if "error" in row:  # a failed row prints nan for the values it lacks
            row = dict.fromkeys(keys, math.nan) | row
        lines.append(",".join(_fmt(row[k]) for k in keys))
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    def clean(x):
        if isinstance(x, dict):
            return {k: clean(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [clean(v) for v in x]
        if isinstance(x, float):
            # the CSV's 12 significant digits; -0.0 prints as 0.0
            return None if math.isnan(x) else float(_fmt(x)) + 0.0
        return x

    return json.dumps(clean(obj), indent=2, sort_keys=True) + "\n"


def _check_out(path: str) -> None:
    """Refuse, before any row runs, an output path that _write cannot open: a directory,
    an existing file without write permission, or a new file whose directory is missing
    or not writable.  Creates and truncates nothing."""
    if path == "-":
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    elif not path or not os.path.isdir(parent):
        code = errno.ENOENT
    else:
        code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        raise ConfigError(f"out: {OSError(code, os.strerror(code), path)}")


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"out: {exc}") from None


def _write_rows(args, header: str, keys, rows) -> int:
    """Write rows as CSV, each failed row's reason (named by `keys`) to stderr; exit code."""
    for row in rows:
        if "error" in row:
            where = " ".join(f"{k}={_fmt(row[k])}" for k in keys)
            print(f"relqi: row {where}: {row['error']}", file=sys.stderr)
    _write(args.out, _csv(header, rows))
    return 0 if all(row["converged"] for row in rows) else 1


def _build_parser():
    """The `relqi` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(prog="relqi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, converged=True):
        p.add_argument("--out", default="-", help="output path; '-' for stdout")
        p.add_argument("--resolution", type=int, default=wavepacket.DEFAULT_NODES_PER_AXIS,
                       help="quadrature nodes per axis")
        if converged:  # channel-audit prints no converged flag
            p.add_argument("--tolerance", type=float, default=1e-4,
                           help="refinement tolerance for the converged flag")
        p.add_argument("--config", default=None,
                       help="JSON file whose entries override these flags")

    for name, help_text, theta, gamma in (
        ("spin-entropy", "spin entropy over (theta, gamma)", "0:3.14159:0.19635",
         "0,0.25,0.5"),
        ("spin-distinguish", "pair error over (theta, gamma)", "1.5707963268",
         "0.001,0.002,0.005"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--theta", default=theta)
        p.add_argument("--gamma", default=gamma)
        p.add_argument("--delta-over-m", type=float, default=1.0)
        common(p)

    p = sub.add_parser("photon-density", help="3x3 polarization matrix of a beam")
    p.add_argument("--kA", type=float, default=100.0)
    p.add_argument("--dr", type=float, default=1.0)
    p.add_argument("--dz", type=float, default=0.1)
    p.add_argument("--helicity", type=int, choices=(-1, 1), default=1)
    common(p)

    p = sub.add_parser("photon-distinguish", help="circular-pair error vs radial spread")
    p.add_argument("--kA", type=float, default=100.0)
    p.add_argument("--dr", default="0.3,1,3")
    p.add_argument("--dz", type=float, default=0.1)
    p.set_defaults(v="0")
    common(p)

    p = sub.add_parser("doppler", help="pair error seen by an observer moving along z")
    p.add_argument("--kA", type=float, default=100.0)
    p.add_argument("--dr", type=float, default=1.0)
    p.add_argument("--dz", type=float, default=0.1)
    p.add_argument("--v", default="0.5")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="default: json for a single speed, csv for a list")
    common(p)

    p = sub.add_parser("channel-audit", help="CP/TP audit of the decoherence channel")
    p.add_argument("--gamma", type=float, default=0.2)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--witness-v", type=float, default=None,
                   help="also run the Doppler non-CP witness at this speed")
    common(p, converged=False)

    p = sub.add_parser("entangle-sweep", help="boosted-singlet concurrence sweep")
    p.add_argument("--delta-over-m", default="0.0001,0.5")
    p.add_argument("--beta", default="0.3,0.6,0.9")
    common(p)

    p = sub.add_parser("convergence", help="observable values at n and 2n nodes per axis")
    common(p)
    return parser, sub.choices


def _apply_config(args, subparser) -> None:
    """Override parsed flags with the --config entries.

    Each entry is a JSON string or number, read as its command-line text
    through the flag's own `type` and `choices`, so a value means what it
    would mean on the command line.
    """
    if not args.config:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            overrides = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: {exc}") from None
    if not isinstance(overrides, dict):
        raise ConfigError("config: top-level JSON object required")
    actions = {a.dest: a for a in subparser._actions if hasattr(args, a.dest)}
    for key, value in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"config: unknown field {key!r}")
        if action.dest == "config":
            raise ConfigError("config: a config file cannot name another config file")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ConfigError(f"{key}: expected a string or a number, got {value!r}")
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            value = text if action.type is None else action.type(text)
        except ValueError:
            raise ConfigError(f"{key}: invalid {action.type.__name__} value {value!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"{key}: {value!r} is not one of {list(action.choices)}")
        setattr(args, action.dest, value)


# The bound that every value of a parameter flag meets, whether it holds one
# value or a list; a flag that is not listed takes any finite value.
_POSITIVE = (lambda x: x > 0.0, "must be positive")
_SPEED = (lambda x: abs(x) < 1.0, "speeds must satisfy |v| < 1")
_BOUNDS = {"kA": _POSITIVE, "dr": _POSITIVE, "dz": _POSITIVE, "delta_over_m": _POSITIVE,
           "gamma": (lambda x: x >= 0.0, "must be nonnegative"), "v": _SPEED, "beta": _SPEED,
           "witness_v": _SPEED}


def _values(args, flag: str) -> list:
    """The values of a parameter flag, one number or a list, each checked against its bound;
    an int flag, whose choices the parser checks, holds its one value as it is."""
    value = getattr(args, flag)
    if isinstance(value, int):
        return [value]
    field = flag.replace("_", "-")
    values = parse_values(str(value), field)
    holds, message = _BOUNDS.get(flag, (None, None))
    if holds is not None and not all(map(holds, values)):
        raise ConfigError(f"{field}: {message}")
    return values


def _validate(args) -> None:
    for key, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key.replace('_', '-')}: must be finite")
    if "tolerance" in args and args.tolerance <= 0.0:
        raise ConfigError("tolerance: must be positive")
    if args.resolution < MIN_RESOLUTION:
        raise ConfigError(f"resolution: must be >= {MIN_RESOLUTION}")
    if args.resolution > MAX_RESOLUTION:
        raise ConfigError(f"resolution: must be <= {MAX_RESOLUTION}")
    _check_out(args.out)


def _moved(coarse, fine, tolerance: float) -> bool:
    """Whether a value, or any entry of a (nested) list of values, moved by `tolerance` or more."""
    if isinstance(coarse, (int, float)):
        return not abs(fine - coarse) < tolerance
    return any(_moved(c, f, tolerance) for c, f in zip(coarse, fine))


def _normal(values: dict) -> dict:
    """`values`, unless one (or an entry of a nested list) is a float whose printed digits
    were never computed, one that is not finite or is subnormal: NumericalError then
    names its key."""
    def fault(v):
        if isinstance(v, list):
            return next(filter(None, map(fault, v)), None)
        if isinstance(v, float) and not math.isfinite(v):
            return f"is not finite ({v})"
        if isinstance(v, float) and 0.0 < abs(v) < sys.float_info.min:
            return "underflows: below the smallest normal float"

    for key, value in values.items():
        if reason := fault(value):
            raise wavepacket.NumericalError(f"{key} {reason}")
    return values


def _refine(args, values_at) -> dict:
    """The values at --resolution, their node count and converged flag.

    `values_at(n)` returns the dict of grid-dependent values printed at n
    nodes per axis.  They are recomputed at 2n, and `converged` holds when
    every value (every entry of a list) moved by less than --tolerance,
    absolute.  A ValueError propagates.  This is the one refinement rule of
    every sweep row and JSON report.
    """
    n = args.resolution
    values = _normal(values_at(n))
    fine = values_at(2 * n)
    converged = not any(_moved(v, fine[k], args.tolerance) for k, v in values.items())
    return {**values, "grid_nodes": n**3, "converged": converged}


def _row(args, fields: dict, evaluate) -> dict:
    """One CSV row, of a sweep or a convergence probe: its input `fields` and evaluate().

    A row whose evaluation raises ValueError, at either resolution, keeps
    its `fields` and the normal `values` the error carries, if any, is not
    converged and carries the reason as "error".
    """
    try:
        return {**fields, **evaluate()}
    except ValueError as exc:
        try:
            values, error = _normal(getattr(exc, "values", {})), str(exc)
        except ValueError as underflow:
            values, error = {}, f"{exc}; {underflow}"
        return {**fields, **values, "grid_nodes": args.resolution**3,
                "converged": False, "error": error}


_KEYS = {"dr": "delta_r", "dz": "delta_z"}  # the printed name of a flag, where it differs

_SPIN = (SPIN_HEADER, ("delta_over_m",), ("theta", "gamma"),
         lambda p, n: spin_half.sweep_values(p["theta"], p["gamma"], p["delta_over_m"], n))
_PHOTON = lambda p, n: photon.sweep_values(p["kA"], p["dz"], p["dr"], p["v"], n)


# Each row kind: its CSV header, or None for a one-row JSON report; its flags that hold
# one value and its swept flags (which name a failed row), each in the order they are
# checked; and the values of a row at n nodes per axis, one call of its physics module on
# the row's parameters (by flag).  A kind with a dz flag is a beam's.  A subcommand
# without a _COMMANDS entry writes the rows of the kind of its name.
_ROWS = {
    "spin-entropy": _SPIN,
    "spin-distinguish": _SPIN,
    "photon-density": (None, ("kA", "dr", "dz", "helicity"), (),
                       lambda p, n: photon.circular_density_values(
                           p["kA"], p["dz"], p["dr"], p["helicity"], n)),
    # the circular pair compared at rest: the parser sets v to 0 and adds no flag
    "photon-distinguish": (PHOTON_HEADER, ("kA", "dz", "v"), ("dr",), _PHOTON),
    "doppler": (PHOTON_HEADER, ("kA", "dr", "dz"), ("v",), _PHOTON),
    "doppler-report": (None, ("kA", "dr", "dz", "v"), (),
                       lambda p, n: photon.doppler_report(p["kA"], p["dz"], p["dr"], p["v"], n)),
    "entangle-sweep": (ENTANGLE_HEADER, (), ("delta_over_m", "beta"),
                       lambda p, n: entangle.sweep_values(p["delta_over_m"], p["beta"], n)),
}


def _grid(args, kind: str) -> dict:
    """The checked values of every flag of row kind `kind`, by flag.

    A beam on which the Gauss-Hermite rule of the refinement, 2n nodes per
    axis, reaches k_z <= 0 (the check of photon._beam_axis) is refused here,
    before any row; a rule that breaks down raises its NumericalError.
    """
    _, fixed, swept, _ = _ROWS[kind]
    grid = {flag: _values(args, flag) for flag in fixed + swept}
    if "dz" in grid:
        n = 2 * args.resolution
        reach, (k_mean,), (delta_z,) = photon.beam_reach(n), grid["kA"], grid["dz"]
        if not k_mean > reach * delta_z:
            raise ConfigError(f"kA: must exceed {_fmt(reach)} * dz = {_fmt(reach * delta_z)}, "
                              f"the outermost node of the {n}-node beam rule")
    return grid


def _fields(params: dict) -> dict:
    """A row's parameters by printed name."""
    return {_KEYS.get(flag, flag): value for flag, value in params.items()}


def _sweep_row(args, command: str, params: dict) -> dict:
    """The row of row kind `command` at `params` (flag: value): _refine's values, through _row."""
    return _row(args, _fields(params),
                lambda: _refine(args, lambda n: _ROWS[command][3](params, n)))


def _sweep(args, kind: str, grid: dict) -> int:
    """Write the rows of row kind `kind` over the product of `grid`, as CSV, or as the JSON
    report of its one row, which _refine refines; return the exit code."""
    header, _, swept, values = _ROWS[kind]
    if header is None:
        params = {flag: value for flag, (value,) in grid.items()}
        report = {**_fields(params), **_refine(args, lambda n: values(params, n)),
                  "tolerance": args.tolerance}
        _write(args.out, _json(report))
        return 0 if report["converged"] else 1
    if math.prod(map(len, grid.values())) > MAX_ROWS:
        names = ", ".join(flag.replace("_", "-") for flag in swept)
        raise ConfigError(f"{names}: a sweep holds at most {MAX_ROWS} rows")
    rows = _map_rows(lambda combo: _sweep_row(args, kind, dict(zip(grid, combo))),
                     itertools.product(*grid.values()))
    return _write_rows(args, header, [_KEYS.get(flag, flag) for flag in swept], rows)


def _cmd_doppler(args) -> int:
    grid = _grid(args, "doppler")
    report = (args.format or ("json" if len(grid["v"]) == 1 else "csv")) == "json"
    if report and len(grid["v"]) > 1:
        raise ConfigError("v: a JSON report takes one speed; list speeds with --format csv")
    return _sweep(args, "doppler-report" if report else "doppler", grid)


def _cmd_channel_audit(args) -> int:
    for flag in ("gamma", "witness_v"):
        if getattr(args, flag) is not None:
            _values(args, flag)  # its bound, checked before any audit runs
    # every key is printed, null where its audit does not run; is_cp describes the
    # audited channel, the verdict the Doppler frame-change pair map
    report = {"gamma": args.gamma, "theta": args.theta, **channel.certify(args.gamma),
              "trace_distance": None, "pe_before": None, "pe_after": None, "verdict": None}
    if args.gamma > 0.0:
        report["trace_distance"] = channel.consistency_check(
            args.gamma, args.theta, args.resolution)
    if args.witness_v is not None:
        report.update(channel.non_cp_witness(args.witness_v, nodes_per_axis=args.resolution))
    _write(args.out, _json(report))
    return 0


# Each convergence probe: its observable, and the row kind, parameters (by flag) and
# column of the row whose value it refines
_PROBES = (
    ("spin_entropy_theta_pi2_gamma_0.5", "spin-entropy",
     {"theta": math.pi / 2, "gamma": 0.5, "delta_over_m": 1.0}, "entropy_bits"),
    ("spin_pair_error_gamma_0.005", "spin-distinguish",
     {"theta": math.pi / 2, "gamma": 0.005, "delta_over_m": 1.0}, "p_error"),
    ("photon_pair_error_dr_over_k_0.01", "photon-distinguish",
     {"kA": 100.0, "dz": 0.1, "v": 0.0, "dr": 1.0}, "p_error"),
    ("doppler_ratio_v_0.5", "doppler-report",
     {"kA": 100.0, "dr": 1.0, "dz": 0.1, "v": 0.5}, "ratio"),
    ("entangle_concurrence_dm_0.5_beta_0.6", "entangle-sweep",
     {"delta_over_m": 0.5, "beta": 0.6}, "concurrence"),
)


def _cmd_convergence(args) -> int:
    n = args.resolution

    def evaluate(probe):
        name, kind, params, column = probe

        def printed():
            # the values as printed: rel_delta is their relative change, which a reader
            # recomputes from the row, with no digit from below them
            value, refined = (float(_fmt(_ROWS[kind][3](params, r)[column])) for r in (n, 2 * n))
            delta = abs(refined - value) / max(abs(refined), 1e-300)
            return {"grid_nodes": n**3, "value": value, "refined_value": refined,
                    "rel_delta": delta, "converged": delta < args.tolerance}

        return _row(args, {"observable": name, "nodes_per_axis": n}, printed)

    return _write_rows(args, CONVERGENCE_HEADER, ("observable",), _map_rows(evaluate, _PROBES))


_COMMANDS = {
    "doppler": _cmd_doppler,
    "channel-audit": _cmd_channel_audit,
    "convergence": _cmd_convergence,
}


def run(argv) -> int:
    """Parse arguments, run the subcommand, return the exit code."""
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config(args, subparsers[args.command])
        _validate(args)
        if args.command in _COMMANDS:
            return _COMMANDS[args.command](args)
        return _sweep(args, args.command, _grid(args, args.command))
    except wavepacket.NumericalError as exc:
        print(f"relqi: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"relqi: configuration error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    """The `relqi` command: run(sys.argv[1:]) in a process of its own.

    The objects the imports leave live until exit, so gc.freeze() moves
    them to the permanent generation: no collection traverses them, neither
    during the run nor at shutdown, which leaves their cycles to the
    operating system instead of taking them apart.  A subcommand that reads
    numpy imports it inside run() (relqi._numpy), so the entry point
    freezes again when run() returns, before exit.  Only the entry point
    freezes; run() and importing relqi leave a library caller's heap as it
    is.
    """
    gc.freeze()
    code = run(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
