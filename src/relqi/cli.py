"""Command-line sweeps with deterministic CSV/JSON output.

Subcommands: spin-entropy, spin-distinguish, photon-density,
photon-distinguish, doppler, channel-audit, entangle-sweep, convergence.
Parameter lists accept `a,b,c` or `min:max:step` (inclusive); angles are in
radians, speeds are fractions of c.  Lists starting with a negative number
need the `--flag=value` form.  Rows run in order in the calling thread
and floats are printed with 12 significant digits, so a fixed configuration
yields byte-identical output.
Exit codes: 0 success, 1 numerical non-convergence (output still written),
2 configuration error, 3 numerical failure outside a sweep row.  A sweep
row that fails is written as NaN, and its reason is printed on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import channel, entangle, photon, spin_half, wavepacket

SPIN_HEADER = "theta,gamma,beta,delta_over_m,entropy_bits,p_error,grid_nodes,converged"
PHOTON_HEADER = "kA,delta_r,delta_z,v,p_error,p_error_closed_form,grid_nodes,converged"
ENTANGLE_HEADER = (
    "delta_over_m,beta,concurrence,entropy_of_marginal_bits,grid_nodes,converged"
)
CONVERGENCE_HEADER = (
    "observable,nodes_per_axis,grid_nodes,value,refined_value,rel_delta,converged"
)


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


def parse_values(text: str, field: str):
    """Parse `a,b,c` or `min:max:step` into a list of floats."""
    try:
        if ":" in text:
            lo, hi, step = (float(t) for t in text.split(":"))
            if not all(map(math.isfinite, (lo, hi, step))):
                raise ConfigError(f"{field}: values must be finite")
            if step <= 0.0 or hi < lo:
                raise ValueError
            count = int(math.floor((hi - lo) / step + 1e-9)) + 1
            return [lo + i * step for i in range(count)]
        values = [float(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise ConfigError(f"{field}: cannot parse range {text!r}") from None
    if not values:
        raise ConfigError(f"{field}: empty range")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{field}: values must be finite")
    return values


def _map_rows(fn, items):
    """Evaluate the rows of a sweep in order, in the calling thread."""
    return [fn(item) for item in items]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return "nan"
    return f"{value:.12g}"


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
        if isinstance(x, (np.floating, float)):
            x = float(x)
            return None if math.isnan(x) else x
        if isinstance(x, (np.integer,)):
            return int(x)
        if isinstance(x, np.bool_):
            return bool(x)
        return x

    return json.dumps(clean(obj), indent=2, sort_keys=True) + "\n"


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _write_rows(args, header: str, keys, rows) -> int:
    """Write sweep rows as CSV and return the exit code.

    The `error` note of each row that failed goes to stderr, the row named
    by its `keys`.
    """
    for row in rows:
        if "error" in row:
            where = " ".join(f"{k}={_fmt(row[k])}" for k in keys)
            print(f"relqi: row {where}: {row['error']}", file=sys.stderr)
    _write(args.out, _csv(header, rows))
    return _exit_code(rows)


def _exit_code(rows) -> int:
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

    Each entry goes through its flag's own `type` and `choices`, so a value
    means what it would mean on the command line.
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
        if action.nargs == 0 and not isinstance(value, bool):
            raise ConfigError(f"{key}: expected true or false, got {value!r}")
        if action.type is not None:
            text = value if isinstance(value, str) else json.dumps(value)
            try:
                value = action.type(text)
            except ValueError:
                raise ConfigError(
                    f"{key}: invalid {action.type.__name__} value {value!r}"
                ) from None
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"{key}: {value!r} is not one of {list(action.choices)}")
        setattr(args, action.dest, value)


def _require_positive(value, field: str) -> float:
    value = float(value)
    if value <= 0.0:
        raise ConfigError(f"{field}: must be positive")
    return value


def _require_speed(value, field: str) -> float:
    value = float(value)
    if abs(value) >= 1.0:
        raise ConfigError(f"{field}: speeds must satisfy |v| < 1")
    return value


def _validate(args) -> None:
    for key, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key.replace('_', '-')}: must be finite")
    if args.tolerance <= 0.0:
        raise ConfigError("tolerance: must be positive")
    if args.command == "convergence":
        if args.resolution < 1:
            raise ConfigError("resolution: must be >= 1")
    elif args.resolution < 4:
        raise ConfigError("resolution: must be >= 4")
    for attr in ("kA", "dr", "dz", "delta_over_m"):
        value = getattr(args, attr, None)
        if value is not None and not isinstance(value, str):
            _require_positive(value, attr.replace("_", "-"))


def _refine(args, values_at) -> dict:
    """The values at --resolution, their node count and converged flag.

    `values_at(n)` returns the dict of grid-dependent values printed at n
    nodes per axis.  Unless --no-convergence is set they are recomputed at
    2n, and `converged` holds when every value (every entry of an array)
    moved by less than --tolerance, absolute.  A ValueError propagates.
    This is the one refinement rule of every sweep row and JSON report.
    """
    n = args.resolution
    values = values_at(n)
    converged = True
    if not args.no_convergence:
        fine = values_at(2 * n)
        converged = all(np.all(np.abs(np.subtract(fine[k], v)) < args.tolerance)
                        for k, v in values.items())
    return {**values, "grid_nodes": n**3, "converged": bool(converged)}


def _row(args, fields: dict, values_at) -> dict:
    """One sweep row: its input `fields` and _refine(args, values_at).

    A row whose evaluation raises ValueError, at either resolution, keeps
    only its `fields`, is not converged and carries the reason as "error".
    """
    try:
        return {**fields, **_refine(args, values_at)}
    except ValueError as exc:
        return {**fields, "grid_nodes": args.resolution**3, "converged": False,
                "error": str(exc)}


def _spin_row(args, theta, gamma):
    fields = {"theta": theta, "gamma": gamma, "delta_over_m": args.delta_over_m}
    return _row(args, fields,
                lambda n: spin_half.sweep_values(theta, gamma, args.delta_over_m, n))


def _cmd_spin(args) -> int:
    thetas = parse_values(str(args.theta), "theta")
    gammas = parse_values(str(args.gamma), "gamma")
    for gamma in gammas:
        if gamma < 0.0:
            raise ConfigError("gamma: must be nonnegative")
    pairs = [(t, g) for t in thetas for g in gammas]
    rows = _map_rows(lambda tg: _spin_row(args, *tg), pairs)
    return _write_rows(args, SPIN_HEADER, ("theta", "gamma"), rows)


def _cmd_photon_density(args) -> int:
    payload = _refine(args, lambda n: {
        "rho": photon.circular_density(args.kA, args.dz, args.dr, args.helicity, n)})
    rho = payload.pop("rho")
    payload.update(kA=args.kA, delta_r=args.dr, delta_z=args.dz, helicity=args.helicity,
                   rho_re=np.real(rho).tolist(), rho_im=np.imag(rho).tolist(),
                   tolerance=args.tolerance)
    _write(args.out, _json(payload))
    return _exit_code([payload])


def _photon_row(args, delta_r, v):
    fields = {
        "kA": args.kA,
        "delta_r": delta_r,
        "delta_z": args.dz,
        "v": v,
        "p_error_closed_form": (1.0 + v) / (1.0 - v) * delta_r**2 / (4.0 * args.kA**2),
    }
    return _row(args, fields, lambda n: {
        "p_error": photon.circular_pair_error(args.kA, args.dz, delta_r, n, v)})


def _cmd_photon_distinguish(args) -> int:
    drs = [_require_positive(dr, "dr") for dr in parse_values(str(args.dr), "dr")]
    rows = _map_rows(lambda dr: _photon_row(args, dr, 0.0), drs)
    return _write_rows(args, PHOTON_HEADER, ("delta_r",), rows)


def _cmd_doppler(args) -> int:
    speeds = [_require_speed(v, "v") for v in parse_values(str(args.v), "v")]
    fmt = args.format or ("json" if len(speeds) == 1 else "csv")
    if fmt == "json":
        payload = _refine(args, lambda n: photon.doppler_report(
            args.kA, args.dz, args.dr, speeds[0], n).as_dict())
        payload["tolerance"] = args.tolerance
        _write(args.out, _json(payload))
        return _exit_code([payload])
    rows = _map_rows(lambda v: _photon_row(args, args.dr, v), speeds)
    return _write_rows(args, PHOTON_HEADER, ("v",), rows)


def _cmd_channel_audit(args) -> int:
    spec = channel.BoostChannelSpec(gamma=args.gamma, theta=args.theta)
    report = channel.certify(spec).as_dict()
    if args.gamma > 0.0:
        report["trace_distance"] = channel.consistency_check(
            spec, args.resolution
        ).trace_distance
    if args.witness_v is not None:
        # is_cp keeps describing the audited channel; the verdict concerns
        # the Doppler frame-change pair map.
        witness = channel.non_cp_witness(args.witness_v, nodes_per_axis=args.resolution)
        report.update(
            pe_before=witness.pe_before,
            pe_after=witness.pe_after,
            verdict=witness.verdict,
        )
    _write(args.out, _json(report))
    return 0


def _entangle_row(args, delta_over_m, beta):
    return _row(args, {"delta_over_m": delta_over_m, "beta": beta},
                lambda n: entangle.sweep_values(delta_over_m, beta, n))


def _cmd_entangle(args) -> int:
    dms = [
        _require_positive(dm, "delta-over-m")
        for dm in parse_values(str(args.delta_over_m), "delta-over-m")
    ]
    betas = [_require_speed(b, "beta") for b in parse_values(str(args.beta), "beta")]
    pairs = [(dm, b) for dm in dms for b in betas]
    rows = _map_rows(lambda db: _entangle_row(args, *db), pairs)
    return _write_rows(args, ENTANGLE_HEADER, ("delta_over_m", "beta"), rows)


def _cmd_convergence(args) -> int:
    n = args.resolution
    probes = [
        ("spin_entropy_theta_pi2_gamma_0.5", n,
         lambda res: spin_half.sweep_values(np.pi / 2, 0.5, 1.0, res)["entropy_bits"]),
        ("spin_pair_error_gamma_0.005", n,
         lambda res: spin_half.sweep_values(np.pi / 2, 0.005, 1.0, res)["p_error"]),
        ("photon_pair_error_dr_over_k_0.01", n,
         lambda res: photon.circular_pair_error(100.0, 0.1, 1.0, res)),
        ("doppler_ratio_v_0.5", n,
         lambda res: photon.doppler_report(100.0, 0.1, 1.0, 0.5, res).ratio),
        ("entangle_concurrence_dm_0.5_beta_0.6", max(2, n // 2),
         lambda res: entangle.sweep_values(0.5, 0.6, res)["concurrence"]),
    ]

    def evaluate(probe):
        name, res, fn = probe
        value, refined = fn(res), fn(2 * res)
        delta = abs(refined - value) / max(abs(refined), 1e-300)
        return {
            "observable": name,
            "nodes_per_axis": res,
            "grid_nodes": res**3,
            "value": value,
            "refined_value": refined,
            "rel_delta": delta,
            "converged": bool(delta < args.tolerance),
        }

    rows = _map_rows(evaluate, probes)
    return _write_rows(args, CONVERGENCE_HEADER, (), rows)


_COMMANDS = {
    "spin-entropy": _cmd_spin,
    "spin-distinguish": _cmd_spin,
    "photon-density": _cmd_photon_density,
    "photon-distinguish": _cmd_photon_distinguish,
    "doppler": _cmd_doppler,
    "channel-audit": _cmd_channel_audit,
    "entangle-sweep": _cmd_entangle,
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
    except (wavepacket.NumericalError, np.linalg.LinAlgError) as exc:
        print(f"relqi: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"relqi: configuration error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
