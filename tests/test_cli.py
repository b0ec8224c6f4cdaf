import ast
import contextlib
import gc
import json
import math
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from relqi import cli, photon, spin_half, wavepacket
import helpers


def run_cli(args, capsys=None):
    code = cli.run(args)
    return code


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def test_parse_values():
    assert cli.parse_values("0,0.25,0.5", "x") == [0.0, 0.25, 0.5]
    got = cli.parse_values("0:1:0.25", "x")
    np.testing.assert_allclose(got, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(cli.ConfigError, match="x"):
        cli.parse_values("a,b", "x")
    with pytest.raises(cli.ConfigError, match="x"):
        cli.parse_values("1:0:0.1", "x")
    assert len(cli.parse_values(f"1:{cli.MAX_ROWS}:1", "x")) == cli.MAX_ROWS
    with pytest.raises(cli.ConfigError, match="x: a range holds at most"):
        cli.parse_values(f"0:{cli.MAX_ROWS}:1", "x")


def test_refine_compares_every_value_at_twice_the_nodes():
    calls = []

    def values_at(n):
        calls.append(n)
        return {"a": 1.0 / n, "b": np.array([0.0, 1.0 / n**2])}

    out = cli._refine(helpers.row_args(4, 0.2), values_at)
    assert calls == [4, 8]
    assert out["a"] == 0.25 and out["grid_nodes"] == 64 and out["converged"] is True
    np.testing.assert_array_equal(out["b"], [0.0, 1.0 / 16])
    out = cli._refine(helpers.row_args(4, 0.1), values_at)
    assert out["converged"] is False  # a moved by 0.125


def test_row_that_fails_at_the_refined_grid_is_a_nan_row():
    def values_at(n):
        if n > 4:
            raise ValueError("refined grid failed")
        return {"x": 1.0}

    fields, args = {"k": 2.0}, helpers.row_args(4, 1e-3)
    out = cli._row(args, fields, lambda: cli._refine(args, values_at))
    assert "x" not in out and out["k"] == 2.0
    assert out["grid_nodes"] == 64 and out["converged"] is False
    assert out["error"] == "refined grid failed"
    # the CSV writer prints nan for a value that a failed row lacks
    header = "k,x,grid_nodes,converged"
    assert cli._csv(header, [out]) == header + "\n2,nan,64,false\n"
    ok = cli._row(args, fields, lambda: cli._refine(args, lambda n: {"x": 1.0}))
    assert ok == {"k": 2.0, "x": 1.0, "grid_nodes": 64, "converged": True}
    # a row that did not fail must carry every value its header names
    with pytest.raises(KeyError, match="y"):
        cli._csv("k,x,y,grid_nodes,converged", [ok])


def test_spin_entropy_csv(tmp_path):
    out = tmp_path / "s.csv"
    code = cli.run([
        "spin-entropy", "--theta", "0.5,1.5707963268", "--gamma", "0,0.25",
        "--resolution", "8", "--tolerance", "1e-3", "--out", str(out),
    ])
    assert code == 0
    lines = read(out).strip().split("\n")
    assert lines[0] == "theta,gamma,beta,delta_over_m,entropy_bits,p_error,grid_nodes,converged"
    assert len(lines) == 5
    gamma0 = [l for l in lines[1:] if l.split(",")[1] == "0"]
    for line in gamma0:
        assert float(line.split(",")[4]) < 1e-9


def test_spin_distinguish_same_schema(tmp_path):
    out = tmp_path / "d.csv"
    code = cli.run([
        "spin-distinguish", "--theta", "1.5707963268", "--gamma", "0.001,0.002",
        "--resolution", "8", "--tolerance", "1e-3", "--out", str(out),
    ])
    assert code == 0
    header = read(out).split("\n")[0]
    assert header == "theta,gamma,beta,delta_over_m,entropy_bits,p_error,grid_nodes,converged"


def test_doppler_json(tmp_path):
    out = tmp_path / "d.json"
    code = cli.run([
        "doppler", "--v", "0.5", "--kA", "100", "--dr", "1", "--dz", "0.1",
        "--resolution", "10", "--tolerance", "1e-3", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(read(out))
    assert payload["ratio"] == pytest.approx(3.0, rel=0.05)
    assert payload["closed_form_ratio"] == 3.0
    assert payload["converged"] is True


def test_doppler_json_refuses_a_list_of_speeds(capsys):
    # a JSON report holds one speed; a list is not cut to its first value
    assert cli.run(["doppler", "--v", "0.1,0.5", "--format", "json", "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("relqi: configuration error: v: ")
    assert captured.out == ""


def test_doppler_csv_over_speeds(tmp_path):
    out = tmp_path / "d.csv"
    code = cli.run([
        "doppler", "--v=-0.5,0.5", "--kA", "100", "--dr", "1", "--dz", "0.1",
        "--resolution", "8", "--tolerance", "1e-3", "--out", str(out),
    ])
    assert code == 0
    lines = read(out).strip().split("\n")
    assert lines[0] == "kA,delta_r,delta_z,v,p_error,p_error_closed_form,grid_nodes,converged"
    assert len(lines) == 3


def test_photon_distinguish_csv(tmp_path):
    out = tmp_path / "p.csv"
    code = cli.run([
        "photon-distinguish", "--kA", "100", "--dr", "0.3,1", "--dz", "0.1",
        "--resolution", "8", "--tolerance", "1e-4", "--out", str(out),
    ])
    assert code == 0
    lines = read(out).strip().split("\n")
    assert lines[0] == "kA,delta_r,delta_z,v,p_error,p_error_closed_form,grid_nodes,converged"
    row = lines[1].split(",")
    assert float(row[4]) == pytest.approx(float(row[5]), rel=0.1)


def test_photon_density_json(tmp_path):
    out = tmp_path / "rho.json"
    code = cli.run([
        "photon-density", "--kA", "100", "--dr", "1", "--dz", "0.1",
        "--resolution", "8", "--tolerance", "1e-6", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(read(out))
    rho = np.array(payload["rho_re"]) + 1j * np.array(payload["rho_im"])
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)
    assert payload["rho_im"][0][1] == pytest.approx(-0.5, abs=1e-3)


def test_photon_density_symmetry_zeros_print_as_zero(tmp_path):
    out = tmp_path / "rho.json"
    assert cli.run(["photon-density", "--out", str(out)]) == 0
    payload = json.loads(read(out))
    re, im = payload["rho_re"], payload["rho_im"]
    zeros = [re[i][j] for i in range(3) for j in range(3) if i != j]
    zeros += [im[i][j] for i, j in ((0, 2), (2, 0), (1, 2), (2, 1))]
    assert len(zeros) == 10 and all(z == 0.0 for z in zeros)
    assert all(im[i][i] == 0.0 for i in range(3))
    assert "-0.0," not in read(out) and "-0.0\n" not in read(out)  # printed as 0.0
    assert re[0][0] == re[1][1]


def test_photon_density_memory_bounded(tmp_path):
    out = tmp_path / "rho.json"
    tracemalloc.start()
    try:
        code = cli.run(["photon-density", "--resolution", "93", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 10e6


def test_photon_density_rule_breakdown_exits_3(capsys):
    assert cli.run(["photon-density", "--resolution", "98", "--out", "-"]) == 3
    assert "Gauss-Laguerre rule breaks down at 196 nodes" in capsys.readouterr().err


def test_channel_audit_json(tmp_path):
    out = tmp_path / "c.json"
    code = cli.run(["channel-audit", "--gamma", "0.2", "--resolution", "8",
                    "--out", str(out)])
    assert code == 0
    payload = json.loads(read(out))
    assert payload["is_cp"] is True
    assert payload["is_tp"] is True
    assert payload["min_choi_eig"] >= -1e-12
    assert payload["trace_distance"] < 0.02
    assert payload["verdict"] is None


def test_channel_audit_echoes_its_inputs_and_prints_every_key(tmp_path):
    out = tmp_path / "c.json"
    assert cli.run(["channel-audit", "--gamma", "0.5", "--theta", "0.3", "--resolution", "6",
                    "--out", str(out)]) == 0
    payload = json.loads(read(out))
    assert payload["gamma"] == 0.5 and payload["theta"] == 0.3
    assert set(payload) == {
        "gamma", "theta", "is_cp", "is_tp", "min_choi_eig",
        "trace_distance", "pe_before", "pe_after", "verdict",
    }


def test_channel_audit_witness(tmp_path):
    out = tmp_path / "w.json"
    code = cli.run(["channel-audit", "--gamma", "0.2", "--witness-v", "0.5",
                    "--resolution", "8", "--out", str(out)])
    assert code == 0
    payload = json.loads(read(out))
    assert payload["is_cp"] is True  # the audited channel itself
    assert payload["pe_after"] > payload["pe_before"]
    assert "CP map" in payload["verdict"]


@pytest.mark.parametrize("argv, err", [
    (["--gamma=-0.1"], "gamma: must be nonnegative"),
    (["--witness-v=-1"], "witness-v: speeds must satisfy |v| < 1"),
], ids=["gamma", "witness-v"])
def test_channel_audit_checks_its_flags_before_any_audit(monkeypatch, capsys, argv, err):
    from relqi import channel

    for audit in ("certify", "consistency_check", "non_cp_witness"):
        monkeypatch.setattr(channel, audit, lambda *a, **k: pytest.fail("an audit ran"))
    assert cli.run(["channel-audit", *argv, "--out", "-"]) == 2
    assert capsys.readouterr() == ("", f"relqi: configuration error: {err}\n")


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_is_a_configuration_error(tmp_path, capsys, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "x.csv"
    assert cli.run(["channel-audit", "--resolution", "4", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("relqi: configuration error: out: ")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("out", ["missing-parent", "empty"])
def test_unwritable_out_is_refused_before_any_row(monkeypatch, tmp_path, capsys, out):
    def refuse(*args, **kwargs):
        raise AssertionError("a row ran")

    monkeypatch.setattr(spin_half, "sweep_values", refuse)
    path = str(tmp_path / "missing" / "x.csv") if out == "missing-parent" else ""
    assert cli.run(["spin-entropy", "--theta", "0", "--gamma", "0.5,2", "--resolution", "4",
                    "--out", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("relqi: configuration error: "
                            f"out: [Errno 2] No such file or directory: {path!r}\n")
    assert captured.out == ""


def test_checking_out_creates_and_truncates_no_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    out.write_text("kept\n", encoding="utf-8")
    assert cli.run(["doppler", "--v", "0.5", "--resolution", "98", "--out", str(out)]) == 3
    assert read(out) == "kept\n"
    new = tmp_path / "new.csv"
    assert cli.run(["spin-entropy", "--gamma=-0.1", "--out", str(new)]) == 2
    assert not new.exists()
    assert capsys.readouterr().err == (
        "relqi: numerical failure: the Gauss-Laguerre rule breaks down at 196 nodes\n"
        "relqi: configuration error: gamma: must be nonnegative\n")


def test_only_the_entry_point_freezes_the_heap(monkeypatch):
    # a recorder stands in for gc.freeze, so this process's heap is never frozen
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "run", lambda argv: calls.append(argv) or 3)
    monkeypatch.setattr(sys, "argv", ["relqi", "convergence", "--resolution", "1"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    # again after run(), which may have imported numpy
    assert calls == ["freeze", ["convergence", "--resolution", "1"], "freeze"]
    assert exc.value.code == 3


def test_run_and_import_leave_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert cli.run(["channel-audit", "--resolution", "4", "--out", "-"]) == 0
    assert gc.get_freeze_count() == before
    probe = "import gc, relqi.cli; print(gc.get_freeze_count())"
    out = subprocess.run([sys.executable, "-c", probe], env=helpers.fresh_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout == "0\n"


@pytest.mark.parametrize("argv", [
    ["photon-density"],
    ["doppler", "--v", "0.5"],
    ["channel-audit", "--gamma", "1e-3", "--witness-v", "0.5"],
], ids=["photon-density", "doppler", "channel-audit"])
def test_json_floats_carry_at_most_12_significant_digits(tmp_path, argv):
    # the CSV's number format: the 17-digit repr printed rounding noise
    out = tmp_path / "r.json"
    cli.run([*argv, "--out", str(out)])
    printed = []
    json.loads(read(out), parse_float=lambda text: printed.append(text) or float(text))
    assert printed
    for text in printed:
        digits = text.lower().split("e")[0].lstrip("-").replace(".", "").strip("0")
        assert len(digits) <= 12, text


def test_entangle_sweep_csv(tmp_path):
    out = tmp_path / "e.csv"
    code = cli.run([
        "entangle-sweep", "--delta-over-m", "0.5", "--beta", "0,0.6",
        "--resolution", "4", "--tolerance", "1e-2", "--out", str(out),
    ])
    assert code == 0
    lines = read(out).strip().split("\n")
    assert lines[0] == "delta_over_m,beta,concurrence,entropy_of_marginal_bits,grid_nodes,converged"
    assert float(lines[1].split(",")[2]) == pytest.approx(1.0, abs=1e-6)


def test_repeated_runs_are_byte_identical(tmp_path):
    args = ["spin-entropy", "--theta", "0.4,0.9", "--gamma", "0,0.3",
            "--resolution", "6", "--tolerance", "1e-2"]
    out1 = tmp_path / "a.csv"
    assert cli.run(args + ["--out", str(out1)]) == 0
    out2 = tmp_path / "b.csv"
    assert cli.run(args + ["--out", str(out2)]) == 0
    assert read(out1) == read(out2)
    out3 = tmp_path / "c.csv"
    assert cli.run(args + ["--out", str(out3)]) == 0
    assert read(out1) == read(out3)


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": "0,0.3", "resolution": 6, "tolerance": 1e-2}))
    out = tmp_path / "s.csv"
    code = cli.run([
        "spin-entropy", "--theta", "0.4", "--gamma", "0.9", "--resolution", "24",
        "--config", str(cfg), "--out", str(out),
    ])
    assert code == 0
    lines = read(out).strip().split("\n")
    assert len(lines) == 3  # two gammas from the config, not one from the flag
    assert lines[1].split(",")[6] == "216"  # 6^3 nodes from the config


def test_config_errors_name_the_field(tmp_path, capsys):
    assert cli.run(["spin-entropy", "--resolution", "2", "--out", "-"]) == 2
    assert "resolution" in capsys.readouterr().err
    assert cli.run(["spin-entropy", "--gamma", "oops", "--out", "-"]) == 2
    assert "gamma" in capsys.readouterr().err
    assert cli.run(["spin-entropy", "--tolerance", "-1", "--out", "-"]) == 2
    assert "tolerance" in capsys.readouterr().err
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"no_such_field": 1}')
    assert cli.run(["spin-entropy", "--config", str(cfg), "--out", "-"]) == 2
    assert "no_such_field" in capsys.readouterr().err
    cfg.write_text('{"resolution": "8.5"}')
    assert cli.run(["spin-entropy", "--config", str(cfg), "--out", "-"]) == 2
    assert "resolution" in capsys.readouterr().err
    cfg.write_text('{"helicity": 0}')
    assert cli.run(["photon-density", "--config", str(cfg), "--out", "-"]) == 2
    assert "helicity" in capsys.readouterr().err
    assert cli.run(["photon-distinguish", "--dr=-1,1", "--out", "-"]) == 2
    assert "dr: must be positive" in capsys.readouterr().err
    assert cli.run(["spin-entropy", "--theta", ",", "--out", "-"]) == 2
    assert capsys.readouterr().err == "relqi: configuration error: theta: empty range\n"
    # a missing file, a file that is not JSON, and JSON whose top level is not an object
    for path, text in ((tmp_path / "missing.json", None), (cfg, "{oops"), (cfg, "[1, 2]")):
        if text is not None:
            path.write_text(text)
        assert cli.run(["spin-entropy", "--config", str(path), "--out", "-"]) == 2
        assert capsys.readouterr().err.startswith("relqi: configuration error: config: ")


def test_config_values_read_as_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolution": "6", "kA": 100}))
    out = tmp_path / "rho.json"
    code = cli.run(["photon-density", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    flags = tmp_path / "flags.json"
    assert cli.run(["photon-density", "--resolution", "6", "--kA", "100",
                    "--out", str(flags)]) == 0
    assert read(out) == read(flags)  # "kA": 100.0 in both, as --kA parses it


def test_config_entries_without_type_are_checked(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"dr": null}')
    assert cli.run(["photon-distinguish", "--config", str(cfg), "--out", "-"]) == 2
    assert "dr" in capsys.readouterr().err
    for out in ("null", '["a"]', "true"):
        cfg.write_text('{"out": %s}' % out)
        assert cli.run(["channel-audit", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("relqi: configuration error: out: ")
    # a number is read as its command-line text: a path, not a file descriptor
    monkeypatch.chdir(tmp_path)
    cfg.write_text('{"out": 5}')
    assert cli.run(["channel-audit", "--config", str(cfg)]) == 0
    assert json.loads(read(tmp_path / "5"))["is_cp"] is True
    # no flag is a switch: a JSON boolean is refused like any other non-string, non-number
    cfg.write_text('{"resolution": false}')
    assert cli.run(["spin-distinguish", "--config", str(cfg), "--out", "-"]) == 2
    assert capsys.readouterr().err == ("relqi: configuration error: "
                                       "resolution: expected a string or a number, got False\n")


def test_config_file_cannot_name_another(tmp_path, capsys):
    # the entry was set after the only read of the file, so it was silently ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"config": str(tmp_path / "missing.json"), "gamma": 0.1}))
    assert cli.run(["spin-entropy", "--theta", "0", "--config", str(cfg), "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("relqi: configuration error: "
                            "config: a config file cannot name another config file\n")
    assert captured.out == ""


def test_cli_import_loads_no_scipy():
    probe = "import sys, relqi.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", probe], env=helpers.fresh_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("run", ["", "cli.run(['doppler', '--out', '-']); "],
                         ids=["import", "doppler"])
def test_start_up_loads_neither_dataclasses_nor_inspect(run):
    # relqi's records are plain slotted classes (wavepacket.Record), so neither importing
    # the CLI nor a doppler run pays for dataclasses or the inspect it imports
    probe = (f"import sys; from relqi import cli; {run}"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)), file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", probe], env=helpers.fresh_env(),
                         capture_output=True, text=True, check=True)
    assert out.stderr.splitlines()[-1] == "[]"


@pytest.mark.parametrize("command, loaded", [
    ([], False),
    (["spin-entropy"], False),
    (["entangle-sweep"], False),
    (["photon-distinguish"], False),
    (["convergence"], False),
    (["doppler", "--v=-0.5,0.5"], False),
    (["channel-audit"], True),  # a JSON report: shows that the probe sees json once loaded
], ids=["import", "spin-entropy", "entangle-sweep", "photon-distinguish", "convergence",
        "doppler-csv", "channel-audit"])
def test_only_json_reports_and_config_load_json(command, loaded):
    # cli imports json inside _json and _apply_config alone, so a CSV run never loads it
    run = f"cli.run({command + ['--resolution', '4', '--out', '-']!r}); " if command else ""
    probe = f"import sys; from relqi import cli; {run}print('json' in sys.modules, file=sys.stderr)"
    out = subprocess.run([sys.executable, "-c", probe], env=helpers.fresh_env(),
                         capture_output=True, text=True, check=True)
    assert out.stderr.splitlines()[-1] == str(loaded)


def test_unknown_command_exits_2(capsys):
    assert cli.run(["frobnicate"]) == 2


def test_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "s.csv"
    code = cli.run([
        "spin-entropy", "--theta", "1.5707963268", "--gamma", "0.5",
        "--resolution", "4", "--tolerance", "1e-9", "--out", str(out),
    ])
    assert code == 1
    lines = read(out).strip().split("\n")
    assert lines[1].endswith("false")  # report still written


def test_failed_rows_say_why(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = cli.run([
        "spin-entropy", "--theta", "0", "--gamma", "0.5,2", "--resolution", "4",
        "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "relqi: row theta=0 gamma=2: gamma 2 unreachable at delta/m = 1\n"
    assert read(out).strip().split("\n")[2] == "0,2,nan,1,nan,nan,64,false"
    # a speed just below 1 computes: the row takes tanh(xi/2) from beta and builds
    # no float boost matrix, which could not hold 1 - beta^2 ~ 2e-13; at 4 nodes per
    # axis it is not converged (0.8254876352 is the converged concurrence)
    out = tmp_path / "e.csv"
    code = cli.run([
        "entangle-sweep", "--delta-over-m", "0.5", "--beta", "0.3,0.9999999999999",
        "--resolution", "4", "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == ""
    assert read(out).strip().split("\n")[2] == "0.5,1,0.823373343987,1,64,false"



@pytest.mark.parametrize("argv, code, csv_row, reason", [
    # a boost at gamma ~ 1e4 computes: the row passes tanh(xi/2) n to the kernel, and no
    # float Lorentz matrix leaves the time axis (by 8.0e-9 here)
    (["spin-entropy", "--theta", "1", "--gamma", "0.9999"], 0,
     "1,0.9999,0.999999994999,1,0.402286910118,0.080030573913,1728,true", None),
    # and so does a speed just below 1, where 1 - beta^2 ~ 2e-13 (not converged at n = 4)
    (["entangle-sweep", "--delta-over-m", "0.5", "--beta", "0.9999999999999",
      "--resolution", "4"], 1,
     "0.5,1,0.823373343987,1,64,false", None),
    # the smallest Gauss-Laguerre weight underflows at the 196-node refinement
    (["photon-distinguish", "--dr", "1", "--resolution", "98"], 1,
     "100,1,0.1,0,nan,2.5e-05,941192,false",
     "relqi: row delta_r=1: the Gauss-Laguerre rule breaks down at 196 nodes"),
], ids=["spin-coarse", "entangle", "photon-laguerre"])
def test_failed_row_is_written_as_nan(tmp_path, capsys, argv, code, csv_row, reason):
    # a failed row prints nan and its reason; a row with no reason computes
    out = tmp_path / "rows.csv"
    assert cli.run(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err == "" if reason is None else err.startswith(reason)
    assert read(out).strip().split("\n")[1] == csv_row


@pytest.mark.parametrize("argv, bound", [
    (["photon-distinguish", "--kA", "0.4", "--dz", "0.1", "--dr", "0.01"], "0.601592556143"),
    # kA > 5 dz, but the outermost node of the 24-node refinement rule puts k_z below 0
    (["photon-distinguish", "--kA", "1", "--dz", "0.19", "--dr", "0.1"], "1.14302585667"),
    (["photon-density", "--kA", "1", "--dz", "0.19", "--dr", "0.1"], "1.14302585667"),
    (["doppler", "--kA", "1", "--dz", "0.19", "--dr", "0.1"], "1.14302585667"),
    (["doppler", "--kA", "1", "--dz", "0.19", "--dr", "0.1", "--v", "0,0.5"], "1.14302585667"),
], ids=["photon", "photon-backward", "photon-density", "doppler-json", "doppler-csv"])
def test_beam_beyond_the_refined_rule_is_refused_before_any_row(monkeypatch, capsys, argv,
                                                               bound):
    monkeypatch.setattr(photon, "_beam_means", lambda *a: pytest.fail("a beam was evaluated"))
    assert cli.run(argv + ["--out", "-"]) == 2
    assert capsys.readouterr() == ("", "relqi: configuration error: kA: must exceed "
                                   f"6.01592556143 * dz = {bound}, the outermost node of the "
                                   "24-node beam rule\n")


@pytest.mark.parametrize("command", ["photon-distinguish", "photon-density", "doppler"])
def test_beam_bound_is_the_outermost_node_of_the_rule_evaluated(capsys, command):
    bound = photon.beam_reach(24) * 0.1
    beam = ["--dz", "0.1", "--dr", "0.01", "--out", "-"]
    # every node of the 24-node refinement is forward just above the bound
    assert cli.run([command, "--kA", repr(math.nextafter(bound, math.inf))] + beam) == 0
    out = capsys.readouterr()
    assert out.err == "" and "nan" not in out.out and "null" not in out.out
    assert cli.run([command, "--kA", repr(bound)] + beam) == 2
    assert "the outermost node of the 24-node beam rule" in capsys.readouterr().err
    # at --resolution 6 the refinement's 12-node rule is the largest evaluated, and it is
    # forward
    assert cli.run([command, "--kA", repr(bound), "--resolution", "6"] + beam) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, field", [
    (["spin-entropy", "--tolerance", "nan"], "tolerance"),
    (["spin-entropy", "--theta", "nan"], "theta"),
    (["spin-entropy", "--theta", "0:inf:1"], "theta"),
    (["spin-entropy", "--delta-over-m", "nan"], "delta-over-m"),
    (["entangle-sweep", "--beta", "0.3,nan"], "beta"),
    (["doppler", "--kA", "inf"], "kA"),
    (["channel-audit", "--witness-v", "nan"], "witness-v"),
    # (max - min) / step overflows to inf, so the range has no value count
    (["spin-entropy", "--theta=0:1e308:1e-300"], "theta"),
])
def test_non_finite_input_is_a_configuration_error(tmp_path, capsys, argv, field):
    out = tmp_path / "out"
    assert cli.run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"relqi: configuration error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize("argv, field, limit", [
    (["spin-entropy", "--theta=0:1e12:1"], "theta", "a range holds at most"),
    (["doppler", "--v=-0.9:0.9:1e-9", "--format=csv"], "v", "a range holds at most"),
    (["spin-entropy", "--theta=0:999:1", "--gamma=0:0.999:0.001"], "theta, gamma",
     "a sweep holds at most"),
    (["entangle-sweep", "--delta-over-m=0.01:1:0.001", "--beta=0:0.9:0.001"],
     "delta-over-m, beta", "a sweep holds at most"),
])
def test_huge_range_or_sweep_is_refused_before_any_row(monkeypatch, capsys, argv, field, limit):
    monkeypatch.setattr(cli, "_map_rows", lambda fn, items: pytest.fail("a row was run"))
    assert cli.run(argv + ["--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"relqi: configuration error: {field}: {limit}")
    assert captured.out == ""


@pytest.mark.parametrize("argv, code, err", [
    (["spin-entropy", "--theta", "0", "--gamma", "0.1"], 1,
     "relqi: row theta=0 gamma=0.1: the Gauss-Hermite rule breaks down at 1000 nodes\n"),
    (["convergence"], 1, "".join(
        f"relqi: row observable={name}: the Gauss-Hermite rule breaks down at 1000 nodes\n"
        for name, *_ in cli._PROBES)),
], ids=["spin-entropy", "convergence"])
def test_resolution_is_bounded(capsys, argv, code, err):
    # the largest accepted value reaches the rules, which break down long before it
    assert cli.run(argv + ["--resolution", "1000", "--out", "-"]) == code
    assert capsys.readouterr().err == err
    assert cli.run(argv + ["--resolution", "1001", "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "relqi: configuration error: resolution: must be <= 1000\n"
    assert captured.out == ""


UNDERFLOW = "underflows: below the smallest normal float"
TOO_WIDE = "the packet of width 1e+200 is too wide for floats"
TOO_LARGE = "|k|^2 overflows: the beam's momenta are too large for floats"
TOO_SMALL = "k_z^2 underflows: the beam's momenta are too small for floats"
KERNEL = "momenta too large for floats in the Wigner kernel"


@pytest.mark.parametrize("argv, code, err, printed", [
    # delta/m = 1e-110: at theta = 0 the pair error is Gamma^2/4 to leading order
    (["spin-entropy", "--theta", "0", "--gamma", "1e-112", "--delta-over-m", "1e-110"], 0, "",
     {"p_error": f"{1e-112 ** 2 / 4:.12g}", "converged": "true"}),
    # a subnormal width: Gamma^2/4 ~ 2.4e-645 rounds to 0, and so does delta^2 at 1e-170
    (["spin-entropy", "--theta", "0", "--gamma", "1e-322", "--delta-over-m", "5e-322"], 0, "",
     {"p_error": f"{1e-322 ** 2 / 4:.12g}", "entropy_bits": "0", "converged": "true"}),
    (["spin-entropy", "--theta", "0", "--gamma", "1e-172", "--delta-over-m", "1e-170"], 0, "",
     {"p_error": f"{1e-172 ** 2 / 4:.12g}", "entropy_bits": "0", "converged": "true"}),
    # the concurrence deficit is of order Gamma^2 ~ 1e-221, and the marginals stay mixed
    (["entangle-sweep", "--delta-over-m", "1e-110", "--beta", "0.6"], 0, "",
     {"concurrence": "1", "entropy_of_marginal_bits": "1", "converged": "true"}),
    # at theta = 0 the distance is of order Gamma^4 ~ 1e-440
    (["channel-audit", "--gamma", "1e-110"], 0, "", {"trace_distance": 0.0}),
    # gamma ~ 1900: the row takes its boost as tanh(xi/2) n, not as a float Lorentz matrix
    (["spin-entropy", "--theta", "0.9", "--gamma", "0.99947"], 0, "", {"converged": "true"}),
    # gamma = 2 is the last completely positive decoherence channel
    (["channel-audit", "--gamma", "2"], 0, "", {"is_cp": True}),
    # p_error ~ Gamma^2 (sin^2 + 2 cos^2)/8 = 1.4e-321 and entropy_bits are subnormal
    (["spin-entropy", "--theta", "1.2", "--gamma", "1e-160", "--delta-over-m", "1e-150"], 1,
     f"relqi: row theta=1.2 gamma=1e-160: entropy_bits {UNDERFLOW}\n",
     {"beta": "nan", "p_error": "nan", "converged": "false"}),
    (["spin-entropy", "--theta", "0", "--gamma", "0.5", "--delta-over-m", "1e200"], 1,
     f"relqi: row theta=0 gamma=0.5: {TOO_WIDE}\n", {"p_error": "nan"}),
    (["entangle-sweep", "--delta-over-m", "1e200", "--beta", "0.6"], 1,
     f"relqi: row delta_over_m=1e+200 beta=0.6: {TOO_WIDE}\n", {"concurrence": "nan"}),
    # |q|^2 is finite, but the kernel's squares of the energy are not
    (["spin-entropy", "--theta", "1.2", "--gamma", "0.5", "--delta-over-m", "1e153"], 1,
     f"relqi: row theta=1.2 gamma=0.5: {KERNEL}\n", {"p_error": "nan"}),
    # the closed form (dr / 2 kA)^2 = 2.5e-321 is subnormal too
    (["photon-distinguish", "--kA", "1e160", "--dr", "1", "--dz", "1"], 1,
     f"relqi: row delta_r=1: {TOO_LARGE}; p_error_closed_form {UNDERFLOW}\n",
     {"p_error": "nan", "p_error_closed_form": "nan"}),
    (["doppler", "--kA", "1e160", "--format", "csv"], 1,
     f"relqi: row v=0.5: {TOO_LARGE}; p_error_closed_form {UNDERFLOW}\n", {"p_error": "nan"}),
    (["doppler", "--kA", "1e160"], 3, f"relqi: numerical failure: {TOO_LARGE}\n", None),
    (["photon-density", "--kA", "1e160"], 3, f"relqi: numerical failure: {TOO_LARGE}\n", None),
    (["photon-distinguish", "--kA", "1e-200", "--dr", "1e-201", "--dz", "1e-201"], 1,
     f"relqi: row delta_r=1e-201: {TOO_SMALL}\n",
     {"p_error": "nan", "p_error_closed_form": f"{(1e-201 / 2e-200) ** 2:.12g}"}),
    # the closed form (dr / 2 kA)^2 overflows to inf: it prints nan, and the row says so
    (["photon-distinguish", "--kA", "1", "--dr", "1e200", "--dz", "0.1"], 1,
     f"relqi: row delta_r=1e+200: {TOO_LARGE}; p_error_closed_form is not finite (inf)\n",
     {"p_error": "nan", "p_error_closed_form": "nan"}),
    # both pair errors round to 0, so their ratio is 0/0: the report fails, naming it
    (["doppler", "--kA", "100", "--dr", "1e-200", "--dz", "0.1", "--v", "0.5"], 3,
     "relqi: numerical failure: ratio is not finite (nan)\n", None),
], ids=["spin-1e-110", "spin-subnormal", "spin-1e-170", "entangle-1e-110", "channel-1e-110",
        "spin-gamma-1900", "channel-cp-boundary",
        "spin-underflow", "spin-too-wide", "entangle-too-wide", "spin-kernel-overflow",
        "photon-distinguish-huge-kA", "doppler-csv-huge-kA", "doppler-json-huge-kA",
        "photon-density-huge-kA", "photon-distinguish-tiny-kA",
        "photon-distinguish-closed-form-overflow", "doppler-json-ratio-nan"])
def test_row_at_the_edge_of_floats_computes_or_says_why(request, capsys, argv, code, err,
                                                       printed):
    # a numpy RuntimeWarning is an error here (pyproject.toml's filterwarnings); a
    # printed digit matches the oracle in its input's comment, and an input whose
    # digits have no oracle yet pins only that it computes
    warns = request.node.callspec.id == "photon-distinguish-closed-form-overflow"  # kA < 5 dr
    with (pytest.warns(UserWarning, match="far from paraxial") if warns
          else contextlib.nullcontext()):
        assert cli.run(argv + ["--out", "-"]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    if printed is None:
        assert captured.out == ""
        return
    if captured.out.startswith("{"):
        values = json.loads(captured.out)
    else:
        header, row = captured.out.strip().split("\n")
        values = dict(zip(header.split(","), row.split(",")))
    assert {key: values[key] for key in printed} == printed


def test_a_subnormal_value_fails_and_an_exact_zero_passes():
    from relqi.wavepacket import NumericalError

    values = {"rho_re": [[0.5, 0.0], [-0.0, 0.5]], "p_error": 2.5e-225, "verdict": None,
              "converged": True}
    assert cli._normal(values) is values
    with pytest.raises(NumericalError, match="^rho_im underflows"):
        cli._normal({"rho_re": [[0.5]], "rho_im": [[0.0, -5e-324]]})


def test_convergence_report(tmp_path):
    out = tmp_path / "conv.csv"
    code = cli.run(["convergence", "--resolution", "6", "--tolerance", "0.5",
                    "--out", str(out)])
    lines = read(out).strip().split("\n")
    assert lines[0] == "observable,nodes_per_axis,grid_nodes,value,refined_value,rel_delta,converged"
    assert len(lines) == 6
    assert code == 0
    out2 = tmp_path / "conv2.csv"
    cli.run(["convergence", "--resolution", "6", "--tolerance", "0.5", "--out", str(out2)])
    assert read(out) == read(out2)


def test_convergence_deltas_shrink_with_resolution(tmp_path):
    deltas = {}
    for n in (4, 8):
        out = tmp_path / f"conv{n}.csv"
        cli.run(["convergence", "--resolution", str(n), "--tolerance", "0.9",
                 "--out", str(out)])
        for line in read(out).strip().split("\n")[1:]:
            cells = line.split(",")
            deltas.setdefault(cells[0], {})[n] = float(cells[5])
    # the spin surface converges visibly over these sizes; the photon error
    # is already at the rounding floor by n = 4
    name = "spin_entropy_theta_pi2_gamma_0.5"
    assert deltas[name][8] < deltas[name][4]
    assert deltas["photon_pair_error_dr_over_k_0.01"][8] < 1e-8


@pytest.mark.parametrize("resolution", [None, "4", "6"], ids=["defaults", "n4", "n6"])
def test_convergence_rel_delta_is_the_change_between_the_printed_values(capsys, resolution):
    # rel_delta is |refined_value - value| / |refined_value| of the two columns as printed,
    # and converged is rel_delta < --tolerance (default 1e-4), so a reader recomputes both
    argv = ["convergence", "--out", "-"] + (["--resolution", resolution] if resolution else [])
    cli.run(argv)
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == cli.CONVERGENCE_HEADER
    assert len(rows) == 5
    for row in rows:
        name, _, _, value, refined, rel_delta, converged = row.split(",")
        value, refined = float(value), float(refined)
        assert rel_delta == f"{abs(refined - value) / abs(refined):.12g}", name
        assert converged == ("true" if float(rel_delta) < 1e-4 else "false"), name


# Each convergence probe: the subcommand row it is, and the column it reads
PROBE_ROWS = {
    "spin_entropy_theta_pi2_gamma_0.5": (
        ["spin-entropy", "--theta", repr(math.pi / 2), "--gamma", "0.5", "--delta-over-m", "1"],
        "entropy_bits"),
    "spin_pair_error_gamma_0.005": (
        ["spin-distinguish", "--theta", repr(math.pi / 2), "--gamma", "0.005",
         "--delta-over-m", "1"], "p_error"),
    "photon_pair_error_dr_over_k_0.01": (
        ["photon-distinguish", "--kA", "100", "--dr", "1", "--dz", "0.1"], "p_error"),
    "doppler_ratio_v_0.5": (
        ["doppler", "--kA", "100", "--dr", "1", "--dz", "0.1", "--v", "0.5"], "ratio"),
    "entangle_concurrence_dm_0.5_beta_0.6": (
        ["entangle-sweep", "--delta-over-m", "0.5", "--beta", "0.6"], "concurrence"),
}


def test_convergence_probes_are_rows_of_the_subcommands_they_name(capsys):
    # at the defaults, value is what the named subcommand prints for the probe's row at its
    # own defaults, and refined_value what it prints at twice nodes_per_axis
    cli.run(["convergence", "--out", "-"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert sorted(row.split(",")[0] for row in rows) == sorted(PROBE_ROWS)

    def printed(argv, column, n=None):
        cli.run(argv + (["--resolution", str(n)] if n else []) + ["--out", "-"])
        out = capsys.readouterr().out
        if out.startswith("{"):
            return json.loads(out)[column]
        keys, values = (line.split(",") for line in out.splitlines())
        return float(dict(zip(keys, values))[column])

    for row in rows:
        cells = dict(zip(header.split(","), row.split(",")))
        argv, column = PROBE_ROWS[cells["observable"]]
        n = int(cells["nodes_per_axis"])
        assert float(cells["value"]) == printed(argv, column), cells
        assert float(cells["refined_value"]) == printed(argv, column, 2 * n), cells


def test_convergence_has_no_switch_to_skip_its_check(tmp_path, capsys):
    # every subcommand computes both resolutions, so the switch is unknown to each
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"no_convergence": true}')
    for command in cli._build_parser()[1]:
        assert cli.run([command, "--no-convergence", "--out", "-"]) == 2
        assert "--no-convergence" in capsys.readouterr().err
        assert cli.run([command, "--config", str(cfg), "--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err == "relqi: configuration error: config: unknown field 'no_convergence'\n"


# Each subcommand's flags, but --out and --config, each with two valid values: the first
# values hold a small resolution and a tolerance every row meets, and a run sets one flag
# to its second value
FLAG_VALUES = {
    **{command: {"--theta": ("0.7", "0.8"), "--gamma": ("0.25", "0.3"),
                 "--delta-over-m": ("1", "0.5"), "--resolution": ("4", "5"),
                 "--tolerance": ("1", "1e-12")}
       for command in ("spin-entropy", "spin-distinguish")},
    "photon-density": {"--kA": ("10", "11"), "--dr": ("1", "1.5"), "--dz": ("0.5", "0.6"),
                       "--helicity": ("1", "-1"), "--resolution": ("4", "5"),
                       "--tolerance": ("1", "1e-12")},
    "photon-distinguish": {"--kA": ("10", "11"), "--dr": ("1", "1.5"), "--dz": ("0.5", "0.6"),
                           "--resolution": ("4", "5"), "--tolerance": ("1", "1e-12")},
    "doppler": {"--kA": ("10", "11"), "--dr": ("1", "1.5"), "--dz": ("0.5", "0.6"),
                "--v": ("0.5", "0.4"), "--format": ("csv", "json"),
                "--resolution": ("4", "5"), "--tolerance": ("1", "1e-12")},
    "channel-audit": {"--gamma": ("0.2", "0.3"), "--theta": ("0.5", "0.6"),
                      "--witness-v": ("0.5", "-0.5"), "--resolution": ("4", "5")},
    "entangle-sweep": {"--delta-over-m": ("0.5", "0.4"), "--beta": ("0.6", "0.5"),
                       "--resolution": ("4", "5"), "--tolerance": ("1", "1e-12")},
    "convergence": {"--resolution": ("4", "5"), "--tolerance": ("1", "1e-12")},
}


@pytest.mark.parametrize("command", list(FLAG_VALUES))
def test_every_flag_changes_what_relqi_prints(capsys, command):
    # a flag whose value reaches neither the output nor the exit code is a knob that does
    # nothing; the flags are read from the parser, so a new one must be listed here too
    actions = cli._build_parser()[1][command]._actions
    flags = [a.option_strings[-1] for a in actions if a.option_strings
             and a.dest not in ("help", "out", "config")]
    values = FLAG_VALUES[command]
    for flag in flags:
        assert flag in values, f"{command} {flag} has no second value"
    assert sorted(values) == sorted(flags)

    def run(changed=None):
        argv = [f"{f}={second if f == changed else first}"
                for f, (first, second) in values.items()]
        code = cli.run([command, *argv, "--out", "-"])
        return code, *capsys.readouterr()

    base = run()
    assert base[0] == 0 and base[2] == ""
    for flag in flags:
        assert run(flag) != base, f"{command} {flag} changes nothing"


@pytest.mark.parametrize("command", list(FLAG_VALUES))
def test_every_subcommand_has_one_resolution_contract(capsys, command):
    # one default and one range of --resolution: a convergence probe is a row of the
    # subcommand it names, so it takes the node counts that subcommand takes
    parser = cli._build_parser()[1][command]
    assert parser.get_default("resolution") == wavepacket.DEFAULT_NODES_PER_AXIS == 12
    for resolution, bound in (("1", ">= 4"), ("3", ">= 4"), ("1001", "<= 1000")):
        assert cli.run([command, "--resolution", resolution, "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"relqi: configuration error: resolution: must be {bound}\n"
        assert captured.out == ""


def test_convergence_probe_that_fails_is_a_nan_row(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise wavepacket.NumericalError("beam kernel broke down")

    monkeypatch.setattr(photon, "_beam_means", broken)
    assert cli.run(["convergence", "--resolution", "4", "--out", "-"]) == 1
    captured = capsys.readouterr()
    header, *rows = captured.out.splitlines()
    values = {row.split(",")[0]: dict(zip(header.split(","), row.split(","))) for row in rows}
    assert sorted(values) == sorted(PROBE_ROWS)
    failed = ("photon_pair_error_dr_over_k_0.01", "doppler_ratio_v_0.5")
    for name, cells in values.items():
        assert cells["nodes_per_axis"] == "4" and cells["grid_nodes"] == "64", cells
        if name in failed:
            assert [cells[k] for k in ("value", "refined_value", "rel_delta", "converged")] == [
                "nan", "nan", "nan", "false"], cells
        else:
            assert all(math.isfinite(float(cells[k]))
                       for k in ("value", "refined_value", "rel_delta")), cells
    assert captured.err == "".join(
        f"relqi: row observable={name}: beam kernel broke down\n" for name in failed)


def test_stdout_output(capsys):
    code = cli.run(["channel-audit", "--gamma", "0.1", "--resolution", "8", "--out", "-"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_cp"] is True


def test_cli_import_loads_no_thread_pool():
    env = helpers.fresh_env()
    probe = "import sys, relqi.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_loads_no_numpy_polynomial():
    # the Gauss rules are built in the standard library
    probe = "import sys, relqi.cli; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=helpers.fresh_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# the benchmark's doppler invocation, as tests/test_golden.py pins it
BENCH_DOPPLER = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cases.json").read_text(encoding="utf-8")
)["bench-doppler"]["argv"]


def _numpy_submodules(argv):
    """The numpy.* modules a fresh interpreter holds after `import relqi.cli` and, unless
    `argv` is None, cli.run(argv), with the exit code."""
    probe = ("import json, sys; from relqi import cli; argv = json.loads(sys.argv[1]); "
             "code = None if argv is None else cli.run(argv); "
             "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('numpy.'))]),"
             " file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)],
                         env=helpers.fresh_env(), capture_output=True, text=True, check=True)
    return json.loads(out.stderr.splitlines()[-1])


@pytest.mark.parametrize("argv, code", [
    (None, None),
    (["--help"], 0),
    (["doppler", "--v", "2", "--out", "-"], 2),
    (BENCH_DOPPLER, 0),
    (["photon-distinguish", "--out", "-"], 0),
    (["photon-density", "--out", "-"], 0),
], ids=["import", "help", "config-error", "bench-doppler", "photon-distinguish",
        "photon-density"])
def test_photon_paths_load_no_numpy(argv, code):
    # relqi._numpy binds numpy lazily: these paths never read a numpy attribute
    assert _numpy_submodules(argv) == [code, []]


def test_numpy_loads_on_first_use():
    code, loaded = _numpy_submodules(["spin-entropy", "--theta", "0", "--gamma", "0.25",
                                      "--out", "-"])
    assert code == 0
    assert "numpy.linalg" in loaded


def test_numerical_failure_exits_3_and_a_failed_row_exits_1():
    env = helpers.fresh_env()

    def relqi(*argv):
        return subprocess.run([sys.executable, "-m", "relqi", *argv, "--out", "-"], env=env,
                              capture_output=True, text=True)

    out = relqi("doppler", "--v", "0.5", "--resolution", "98")
    assert out.returncode == 3
    assert out.stderr == (
        "relqi: numerical failure: the Gauss-Laguerre rule breaks down at 196 nodes\n"
    )
    assert out.stdout == ""
    out = relqi("photon-distinguish", "--dr", "1", "--resolution", "98")
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stdout.split("\n")[1] == "100,1,0.1,0,nan,2.5e-05,941192,false"


def test_paraxial_warning_is_printed_for_each_beam():
    # the default filter shows a warning once per text and line; each beam has its own text,
    # and a row's n and 2n passes build the same beam
    out = subprocess.run([sys.executable, "-m", "relqi", "photon-distinguish", "--kA", "4",
                          "--dr", "1,2", "--dz", "0.1", "--out", "-"], env=helpers.fresh_env(),
                         capture_output=True, text=True, check=True)
    warned = [line.split(": ", 1)[1] for line in out.stderr.splitlines() if "paraxial" in line]
    assert warned == [f"UserWarning: k_mean 4 < 5 * delta_r {dr}: beam is far from paraxial"
                      for dr in (1, 2)]


def test_time_axis_defect_is_a_numerical_error():
    from relqi import geometry, spin_half, wavepacket

    lam = helpers.angle_boost(spin_half.beta_for_gamma(0.9999, 1.0), 1.0)[1]
    nodes = helpers.packet_rule(1.0, 12)[0]
    with pytest.raises(wavepacket.NumericalError, match="time axis"):
        geometry.wigner_rotation_batch(lam, nodes, 1.0)


def test_off_shell_node_exits_3_outside_a_row_and_is_a_nan_row_inside_one(monkeypatch, capsys):
    from relqi import geometry

    four_momentum = geometry.four_momentum
    # every node's energy off shell by a relative 1e-6, far beyond the check's 1e-10
    monkeypatch.setattr(geometry, "four_momentum",
                        lambda mass, p: four_momentum(mass, p) * (1.0 + 1e-6, 1.0, 1.0, 1.0))
    assert cli.run(["channel-audit", "--out", "-"]) == 3
    out = capsys.readouterr()
    assert out.err == "relqi: numerical failure: momentum is off shell for the given mass\n"
    assert out.out == ""
    assert cli.run(["spin-entropy", "--theta", "0", "--gamma", "0.25", "--out", "-"]) == 1
    out = capsys.readouterr()
    assert out.err == "relqi: row theta=0 gamma=0.25: momentum is off shell for the given mass\n"
    assert out.out.split("\n")[1] == "0,0.25,nan,1,nan,nan,1728,false"


def test_cli_names_no_numpy():
    # the physics modules hand the CLI Python scalars and lists
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module]
    assert [m for m in modules if m.split(".")[0] == "numpy"] == []
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert names.isdisjoint({"np", "numpy"})


def test_values_reach_the_cli_as_python_floats():
    from relqi import entangle, photon, spin_half

    def floats(value):
        if isinstance(value, list):
            return all(floats(v) for v in value)
        return type(value) is float

    for n in (2, 4):
        reports = [spin_half.sweep_values(0.7, 0.25, 1.0, n), entangle.sweep_values(0.5, 0.6, n),
                   photon.sweep_values(100.0, 0.1, 1.0, 0.5, n),
                   photon.circular_density_values(100.0, 0.1, 1.0, 1, n),
                   photon.doppler_report(100.0, 0.1, 1.0, 0.5, n)]
        for report in reports:
            assert all(floats(v) for v in report.values()), report
