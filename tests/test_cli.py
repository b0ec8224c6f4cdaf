import ast
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from relqi import cli
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
    calls.clear()
    args = helpers.row_args(4, 1e-9, no_convergence=True)
    assert cli._refine(args, values_at)["converged"] is True
    assert calls == [4]


def test_row_that_fails_at_the_refined_grid_is_a_nan_row():
    def values_at(n):
        if n > 4:
            raise ValueError("refined grid failed")
        return {"x": 1.0}

    fields = {"k": 2.0}
    out = cli._row(helpers.row_args(4, 1e-3), fields, values_at)
    assert "x" not in out and out["k"] == 2.0
    assert out["grid_nodes"] == 64 and out["converged"] is False
    assert out["error"] == "refined grid failed"
    # the CSV writer prints nan for a value that a failed row lacks
    header = "k,x,grid_nodes,converged"
    assert cli._csv(header, [out]) == header + "\n2,nan,64,false\n"
    ok = cli._row(helpers.row_args(4, 1e-3, no_convergence=True), fields, values_at)
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


def test_config_values_read_as_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolution": "6", "kA": 100}))
    out = tmp_path / "rho.json"
    code = cli.run(["photon-density", "--no-convergence", "--config", str(cfg),
                    "--out", str(out)])
    assert code == 0
    flags = tmp_path / "flags.json"
    assert cli.run(["photon-density", "--no-convergence", "--resolution", "6",
                    "--kA", "100", "--out", str(flags)]) == 0
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
    cfg.write_text('{"no_convergence": "false"}')
    assert cli.run(["spin-distinguish", "--config", str(cfg), "--out", "-"]) == 2
    assert "no_convergence" in capsys.readouterr().err


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
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, relqi.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


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
        "--no-convergence", "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "relqi: row theta=0 gamma=2: gamma 2 unreachable at delta/m = 1\n"
    assert read(out).strip().split("\n")[2] == "0,2,nan,1,nan,nan,64,false"
    # a speed just below 1 computes: the row takes tanh(xi/2) from beta and builds
    # no float boost matrix, which could not hold 1 - beta^2 ~ 2e-13
    out = tmp_path / "e.csv"
    code = cli.run([
        "entangle-sweep", "--delta-over-m", "0.5", "--beta", "0.3,0.9999999999999",
        "--resolution", "4", "--no-convergence", "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert read(out).strip().split("\n")[2] == "0.5,1,0.823373343987,1,64,true"



@pytest.mark.parametrize("argv, code, csv_row, reason", [
    # a boost at gamma ~ 1e4 computes: the row passes tanh(xi/2) n to the kernel, and no
    # float Lorentz matrix leaves the time axis (by 8.0e-9 here)
    (["spin-entropy", "--theta", "1", "--gamma", "0.9999"], 0,
     "1,0.9999,0.999999994999,1,0.402286910118,0.080030573913,1728,true", None),
    (["photon-distinguish", "--kA", "0.4", "--dz", "0.1", "--dr", "0.01"], 1,
     "0.4,0.01,0.1,0,nan,0.00015625,1728,false",
     "relqi: row delta_r=0.01: k_mean must exceed 5 * delta_z"),
    # and so does a speed just below 1, where 1 - beta^2 ~ 2e-13 (not converged at n = 4)
    (["entangle-sweep", "--delta-over-m", "0.5", "--beta", "0.9999999999999",
      "--resolution", "4"], 1,
     "0.5,1,0.823373343987,1,64,false", None),
    # the smallest Gauss-Laguerre weight underflows at the 196-node refinement
    (["photon-distinguish", "--dr", "1", "--resolution", "98"], 1,
     "100,1,0.1,0,nan,2.5e-05,941192,false",
     "relqi: row delta_r=1: the Gauss-Laguerre rule breaks down at 196 nodes"),
], ids=["spin-coarse", "photon", "entangle", "photon-laguerre"])
def test_failed_row_is_written_as_nan(tmp_path, capsys, argv, code, csv_row, reason):
    # a failed row prints nan and its reason; a row with no reason computes
    out = tmp_path / "rows.csv"
    assert cli.run(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err == "" if reason is None else err.startswith(reason)
    assert read(out).strip().split("\n")[1] == csv_row


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
    (["convergence"], 3,
     "relqi: numerical failure: the Gauss-Hermite rule breaks down at 1000 nodes\n"),
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
def test_row_at_the_edge_of_floats_computes_or_says_why(capsys, argv, code, err, printed):
    # a numpy RuntimeWarning is an error here (pyproject.toml's filterwarnings); a
    # printed digit matches the oracle in its input's comment, and an input whose
    # digits have no oracle yet pins only that it computes
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


def test_convergence_has_no_switch_to_skip_its_check(tmp_path, capsys):
    # convergence always computes both resolutions, so the switch is unknown to it
    assert cli.run(["convergence", "--no-convergence", "--out", "-"]) == 2
    assert "--no-convergence" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"no_convergence": true}')
    assert cli.run(["convergence", "--config", str(cfg), "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert err == "relqi: configuration error: config: unknown field 'no_convergence'\n"


def test_convergence_resolution_one_not_converged(tmp_path):
    out = tmp_path / "conv1.csv"
    code = cli.run(["convergence", "--resolution", "1", "--tolerance", "1e-6",
                    "--out", str(out)])
    assert code == 1
    rows = read(out).strip().split("\n")[1:]
    spin_row = [r for r in rows if r.startswith("spin_entropy")][0]
    assert spin_row.endswith("false")


def test_stdout_output(capsys):
    code = cli.run(["channel-audit", "--gamma", "0.1", "--resolution", "8", "--out", "-"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_cp"] is True


def _fresh_env():
    """Environment of a fresh interpreter that imports this checkout of relqi."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_cli_import_loads_no_thread_pool():
    env = _fresh_env()
    probe = "import sys, relqi.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_loads_no_numpy_polynomial():
    # the Gauss rules are built in the standard library
    probe = "import sys, relqi.cli; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_numerical_failure_exits_3_and_a_failed_row_exits_1():
    env = _fresh_env()

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
                          "--dr", "1,2", "--dz", "0.1", "--out", "-"], env=_fresh_env(),
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
