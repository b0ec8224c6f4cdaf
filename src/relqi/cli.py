"""Command-line sweeps with deterministic CSV/JSON output.

Subcommands: spin-entropy, spin-distinguish, photon-density,
photon-distinguish, doppler, channel-audit, entangle-sweep, convergence.
Parameter lists accept `a,b,c` or `min:max:step` (inclusive); angles are in
radians, speeds are fractions of c.  Lists starting with a negative number
need the `--flag=value` form.  Rows run in order in the calling thread
and floats, in CSV and JSON alike, are printed with 12 significant digits,
so a fixed configuration yields byte-identical output.
Exit codes: 0 success, 1 numerical non-convergence (output still written),
2 configuration error, 3 numerical failure outside a sweep row.  A sweep
row that fails is written as NaN, and its reason is printed on stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
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


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


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

    def common(p, resolution, refined=True):
        p.add_argument("--out", default="-", help="output path; '-' for stdout")
        p.add_argument("--resolution", type=int, default=resolution,
                       help="quadrature nodes per axis")
        p.add_argument("--tolerance", type=float, default=1e-4,
                       help="refinement tolerance for the converged flag")
        p.add_argument("--config", default=None,
                       help="JSON file whose entries override these flags")
        if refined:  # convergence always computes both resolutions
            p.add_argument("--no-convergence", action="store_true",
                           help="skip the refined-grid convergence check")

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
        common(p, spin_half.DEFAULT_NODES_PER_AXIS)

    p = sub.add_parser("photon-density", help="3x3 polarization matrix of a beam")
    p.add_argument("--kA", type=float, default=100.0)
    p.add_argument("--dr", type=float, default=1.0)
    p.add_argument("--dz", type=float, default=0.1)
    p.add_argument("--helicity", type=int, choices=(-1, 1), default=1)
    common(p, photon.DEFAULT_NODES_PER_AXIS)

    p = sub.add_parser("photon-distinguish", help="circular-pair error vs radial spread")
    p.add_argument("--kA", type=float, default=100.0)
    p.add_argument("--dr", default="0.3,1,3")
    p.add_argument("--dz", type=float, default=0.1)
    common(p, photon.DEFAULT_NODES_PER_AXIS)

    p = sub.add_parser("doppler", help="pair error seen by an observer moving along z")
    p.add_argument("--kA", type=float, default=100.0)
    p.add_argument("--dr", type=float, default=1.0)
    p.add_argument("--dz", type=float, default=0.1)
    p.add_argument("--v", default="0.5")
    p.add_argument("--format", choices=("csv", "json"), default=None,
                   help="default: json for a single speed, csv for a list")
    common(p, photon.DEFAULT_NODES_PER_AXIS)

    p = sub.add_parser("channel-audit", help="CP/TP audit of the decoherence channel")
    p.add_argument("--gamma", type=float, default=0.2)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--witness-v", type=float, default=None,
                   help="also run the Doppler non-CP witness at this speed")
    common(p, spin_half.DEFAULT_NODES_PER_AXIS)

    p = sub.add_parser("entangle-sweep", help="boosted-singlet concurrence sweep")
    p.add_argument("--delta-over-m", default="0.0001,0.5")
    p.add_argument("--beta", default="0.3,0.6,0.9")
    common(p, entangle.DEFAULT_NODES_PER_AXIS)

    p = sub.add_parser("convergence", help="observable values at n and 2n nodes per axis")
    common(p, 8, refined=False)
    return parser, sub.choices


def _apply_config(args, subparser) -> None:
    """Override parsed flags with the --config entries.

    An entry of a switch is true or false; any other entry is a JSON string
    or number, read as its command-line text through the flag's own `type`
    and `choices`, so a value means what it would mean on the command line.
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
        switch = action.nargs == 0
        if switch != isinstance(value, bool) or not isinstance(value, (str, int, float)):
            expected = "true or false" if switch else "a string or a number"
            raise ConfigError(f"{key}: expected {expected}, got {value!r}")
        if not switch:
            text = value if isinstance(value, str) else json.dumps(value)
            try:
                value = text if action.type is None else action.type(text)
            except ValueError:
                raise ConfigError(
                    f"{key}: invalid {action.type.__name__} value {value!r}"
                ) from None
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"{key}: {value!r} is not one of {list(action.choices)}")
        setattr(args, action.dest, value)


# The bound that every value of a parameter flag meets, whether it holds one
# value or a list; a flag that is not listed takes any finite value.
_POSITIVE = (lambda x: x > 0.0, "must be positive")
_SPEED = (lambda x: abs(x) < 1.0, "speeds must satisfy |v| < 1")
_BOUNDS = {"kA": _POSITIVE, "dr": _POSITIVE, "dz": _POSITIVE, "delta_over_m": _POSITIVE,
           "gamma": (lambda x: x >= 0.0, "must be nonnegative"), "v": _SPEED, "beta": _SPEED}


def _values(args, flag: str) -> list:
    """The values of a parameter flag, one number or a list, each checked against its bound."""
    field = flag.replace("_", "-")
    values = parse_values(str(getattr(args, flag)), field)
    holds, message = _BOUNDS.get(flag, (None, None))
    if holds is not None and not all(map(holds, values)):
        raise ConfigError(f"{field}: {message}")
    return values


def _validate(args) -> None:
    for key, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key.replace('_', '-')}: must be finite")
    if args.tolerance <= 0.0:
        raise ConfigError("tolerance: must be positive")
    least = 1 if args.command == "convergence" else 4
    if args.resolution < least:
        raise ConfigError(f"resolution: must be >= {least}")
    if args.resolution > MAX_RESOLUTION:
        raise ConfigError(f"resolution: must be <= {MAX_RESOLUTION}")


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
    nodes per axis.  Unless --no-convergence is set they are recomputed at
    2n, and `converged` holds when every value (every entry of a list)
    moved by less than --tolerance, absolute.  A ValueError propagates.
    This is the one refinement rule of every sweep row and JSON report.
    """
    n = args.resolution
    values = _normal(values_at(n))
    converged = True
    if not args.no_convergence:
        fine = values_at(2 * n)
        converged = not any(_moved(v, fine[k], args.tolerance) for k, v in values.items())
    return {**values, "grid_nodes": n**3, "converged": converged}


def _row(args, fields: dict, values_at) -> dict:
    """One sweep row: its input `fields` and _refine(args, values_at).

    A row whose evaluation raises ValueError, at either resolution, keeps
    its `fields` and the normal `values` the error carries, if any, is not
    converged and carries the reason as "error".
    """
    try:
        return {**fields, **_refine(args, values_at)}
    except ValueError as exc:
        try:
            values, error = _normal(getattr(exc, "values", {})), str(exc)
        except ValueError as underflow:
            values, error = {}, f"{exc}; {underflow}"
        return {**fields, **values, "grid_nodes": args.resolution**3,
                "converged": False, "error": error}


def _report(args, fields: dict, values_at) -> int:
    """Write one JSON report, `fields` and _refine(args, values_at); return the exit code."""
    report = {**fields, **_refine(args, values_at), "tolerance": args.tolerance}
    _write(args.out, _json(report))
    return 0 if report["converged"] else 1


_KEYS = {"dr": "delta_r", "dz": "delta_z"}  # the printed name of a flag, where it differs

_SPIN = (SPIN_HEADER, ("delta_over_m",), ("theta", "gamma"),
         lambda p, n: spin_half.sweep_values(p["theta"], p["gamma"], p["delta_over_m"], n))


def _photon_values(p: dict, n: int) -> dict:
    return photon.sweep_values(p["kA"], p["dz"], p["dr"], p["v"], n)


# Each sweep: its CSV header, its flags that hold one value and its swept flags
# (which name a failed row), each in the order they are checked, and the values
# of a row at n nodes per axis, one sweep_values call of its physics module on
# the row's parameters (by flag).
_SWEEPS = {
    "spin-entropy": _SPIN,
    "spin-distinguish": _SPIN,
    "photon-distinguish": (PHOTON_HEADER, ("kA", "dz"), ("dr",), _photon_values),
    "doppler": (PHOTON_HEADER, ("kA", "dr", "dz"), ("v",), _photon_values),
    "entangle-sweep": (ENTANGLE_HEADER, (), ("delta_over_m", "beta"),
                       lambda p, n: entangle.sweep_values(p["delta_over_m"], p["beta"], n)),
}


def _grid(args) -> dict:
    """The checked values of every flag of args.command's sweep, by flag."""
    _, fixed, swept, _ = _SWEEPS[args.command]
    return {flag: _values(args, flag) for flag in fixed + swept}


def _sweep_row(args, command: str, params: dict) -> dict:
    """The row of `command`'s sweep at `params` (flag: value), refined by _row."""
    return _row(args, {_KEYS.get(flag, flag): value for flag, value in params.items()},
                lambda n: _SWEEPS[command][3](params, n))


def _sweep(args, grid: dict) -> int:
    """Write the rows of args.command's sweep over the product of `grid`; return the exit code."""
    header, _, swept, _ = _SWEEPS[args.command]
    if math.prod(map(len, grid.values())) > MAX_ROWS:
        names = ", ".join(flag.replace("_", "-") for flag in swept)
        raise ConfigError(f"{names}: a sweep holds at most {MAX_ROWS} rows")
    rows = _map_rows(lambda combo: _sweep_row(args, args.command, dict(zip(grid, combo))),
                     itertools.product(*grid.values()))
    return _write_rows(args, header, [_KEYS.get(flag, flag) for flag in swept], rows)


def _cmd_sweep(args) -> int:
    return _sweep(args, _grid(args))


def _cmd_photon_distinguish(args) -> int:
    # the circular pair compared at rest
    return _sweep(args, {**_grid(args), "v": [0.0]})


def _cmd_doppler(args) -> int:
    grid = _grid(args)
    if (args.format or ("json" if len(grid["v"]) == 1 else "csv")) == "csv":
        return _sweep(args, grid)
    if len(grid["v"]) > 1:
        raise ConfigError("v: a JSON report takes one speed; list speeds with --format csv")
    (k_mean,), (delta_r,), (delta_z,), (v,) = (grid[flag] for flag in ("kA", "dr", "dz", "v"))
    fields = {"kA": k_mean, "delta_r": delta_r, "delta_z": delta_z, "v": v}
    return _report(args, fields, lambda n: photon.doppler_report(k_mean, delta_z, delta_r, v, n))


def _cmd_photon_density(args) -> int:
    (k_mean,), (delta_r,), (delta_z,) = (_values(args, flag) for flag in ("kA", "dr", "dz"))
    fields = {"kA": k_mean, "delta_r": delta_r, "delta_z": delta_z, "helicity": args.helicity}
    return _report(args, fields, lambda n: photon.circular_density_values(
        k_mean, delta_z, delta_r, args.helicity, n))


def _cmd_channel_audit(args) -> int:
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


def _cmd_convergence(args) -> int:
    n = args.resolution
    probes = [
        ("spin_entropy_theta_pi2_gamma_0.5", n,
         lambda res: spin_half.sweep_values(math.pi / 2, 0.5, 1.0, res)["entropy_bits"]),
        ("spin_pair_error_gamma_0.005", n,
         lambda res: spin_half.sweep_values(math.pi / 2, 0.005, 1.0, res)["p_error"]),
        ("photon_pair_error_dr_over_k_0.01", n,
         lambda res: photon.circular_pair_error(100.0, 0.1, 1.0, res)),
        ("doppler_ratio_v_0.5", n,
         lambda res: photon.doppler_report(100.0, 0.1, 1.0, 0.5, res)["ratio"]),
        ("entangle_concurrence_dm_0.5_beta_0.6", max(2, n // 2),
         lambda res: entangle.sweep_values(0.5, 0.6, res)["concurrence"]),
    ]

    def evaluate(probe):
        name, res, fn = probe
        value, refined = fn(res), fn(2 * res)
        delta = abs(refined - value) / max(abs(refined), 1e-300)
        return {"observable": name, "nodes_per_axis": res, "grid_nodes": res**3, "value": value,
                "refined_value": refined, "rel_delta": delta, "converged": delta < args.tolerance}

    rows = _map_rows(evaluate, probes)
    return _write_rows(args, CONVERGENCE_HEADER, (), rows)


_COMMANDS = {
    "spin-entropy": _cmd_sweep,
    "spin-distinguish": _cmd_sweep,
    "photon-density": _cmd_photon_density,
    "photon-distinguish": _cmd_photon_distinguish,
    "doppler": _cmd_doppler,
    "channel-audit": _cmd_channel_audit,
    "entangle-sweep": _cmd_sweep,
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
        return _COMMANDS[args.command](args)
    except wavepacket.NUMERICAL_FAILURES as exc:
        print(f"relqi: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"relqi: configuration error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
