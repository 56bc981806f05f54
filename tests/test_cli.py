import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

from dirquant import (
    DataError,
    DirquantError,
    InversionError,
    NumericalError,
    asymptotic_quantile,
    diagonal_direction,
    flag_outliers,
    sample_t,
)
from dirquant import cli, geometry, quantile, study, tmodel
from dirquant.cli import (
    main,
    parse_alpha,
    parse_csv,
    parse_direction,
    surface_doc_to_csv,
)

MU2 = "0,0"
SIG2 = "5,0.1,0.1,1"


def surface_doc_from_csv(text: str) -> dict:
    """Read back what ``surface_doc_to_csv`` writes; no command reads it."""
    meta, rows = {}, []
    for ln in filter(None, map(str.strip, text.splitlines())):
        if ln.startswith("#"):
            key, _, val = ln[1:].partition("=")
            meta[key.strip()] = val.strip()
        else:
            rows.append(ln.split(","))
    header, rows = rows[0], rows[1:]
    d = sum(h.startswith("theta_") for h in header)
    doc = {
        "alpha": float(meta["alpha"]),
        "direction": [float(c) for c in meta["direction"].split(",")],
        "k": int(meta["k"]),
        "gamma": float(meta["gamma"]),
        "points": [],
    }
    if "source" in meta:
        doc["source"] = meta["source"]
    if "center_offset" in meta:
        doc["center_offset"] = [float(c) for c in meta["center_offset"].split(",")]
    for cells in rows:
        doc["points"].append({
            "theta": [float(c) for c in cells[0:d]],
            "x_rotated": [float(c) for c in cells[d:2 * d]],
            "x_original": [float(c) for c in cells[2 * d:3 * d]],
            "rho": float(cells[3 * d]),
            "floored": cells[3 * d + 1] == "true",
        })
    return doc


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    # exact Pareto margins: heavy tailed, entirely positive, stable fits
    path = tmp_path_factory.mktemp("data") / "sample.csv"
    rng = np.random.default_rng(99)
    sample = rng.uniform(size=(1500, 2)) ** (-0.5)
    lines = ["x1,x2"] + [f"{float(a)!r},{float(b)!r}" for a, b in sample]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestParsers:
    def test_parse_csv_basic(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2\n3,4\n")
        assert np.array_equal(parse_csv(str(p)), [[1.0, 2.0], [3.0, 4.0]])

    def test_parse_csv_header_skipped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        assert np.array_equal(parse_csv(str(p), has_header=True), [[1.0, 2.0]])

    def test_parse_csv_ragged_row_named(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(DataError, match="row 2"):
            parse_csv(str(p))

    def test_parse_csv_bad_cell_named(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(DataError, match="row 2, column 2"):
            parse_csv(str(p))

    def test_parse_csv_non_finite_cell_named(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y\n1,2\n3,inf\n")
        with pytest.raises(DataError, match="non-finite cell at row 2, column 2: 'inf'"):
            parse_csv(str(p), has_header=True)

    def test_parse_csv_one_pass_reads_benchmark_style_file(self, tmp_path, monkeypatch):
        p = tmp_path / "t.csv"
        p.write_bytes(b"# comment\r\nx1,x2\r\n\r\n 1 , +1\r\n  \r\n# 9,9\r\n"
                      b"1e5,1000\r\n-2.5e-3,.5\r\n"
                      b"0.10000000000000001,-1.2345678901234567e-05\r\n")
        # the tokenizer reads this file without the row loop
        monkeypatch.setattr(cli, "_parse_rows", None)
        got = parse_csv(str(p), has_header=True)
        assert got.dtype == np.float64
        assert got.tobytes() == np.array([[1.0, 1.0], [1e5, 1000.0], [-2.5e-3, 0.5],
                                          [0.1, -1.2345678901234567e-05]]).tobytes()

    def test_parse_csv_accepts_what_float_accepts(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes("x1,x2\r\n 1 , +1\r\n1e5,1_000\r\n-2.5e-3,.5\r\n١٢,7\r\n"
                      .encode("utf-8"))
        got = parse_csv(str(p), has_header=True)
        assert got.dtype == np.float64
        assert np.array_equal(got, [[1.0, 1.0], [1e5, 1000.0], [-2.5e-3, 0.5], [12.0, 7.0]])

    @pytest.mark.parametrize("text, message", [
        ("x1,x2\n1,2\n", "non-numeric cell at row 1, column 1: 'x1'"),
        ("1,2\n3\n4,5\n", "ragged row 2: expected 2 cells, got 1"),
        ("1,2\n3,4,5\n", "ragged row 2: expected 2 cells, got 3"),
        ("1,2\n3,1__0\n", "non-numeric cell at row 2, column 2: '1__0'"),
        ("1,2\n3,\n", "non-numeric cell at row 2, column 2: ''"),
        ("1,2\n0x10,4\n", "non-numeric cell at row 2, column 1: '0x10'"),
        ("1,2\n3, nan\n", "non-finite cell at row 2, column 2: ' nan'"),
        ("1,-inf\n3,4\n", "non-finite cell at row 1, column 2: '-inf'"),
        ("1,2\n3,1e400\n", "non-finite cell at row 2, column 2: '1e400'"),
        ("# only\n\n", "no data rows"),
    ])
    def test_parse_csv_error_messages(self, tmp_path, text, message):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(DataError) as info:
            parse_csv(str(p))
        assert str(info.value) == f"{p}: {message}"

    def test_parse_alpha_fraction(self):
        assert parse_alpha("1/1250") == pytest.approx(8e-4)
        assert parse_alpha("1/5000") == pytest.approx(2e-4)
        assert parse_alpha("0.004") == pytest.approx(0.004)

    def test_parse_alpha_invalid(self):
        for bad in ("2", "0", "-1/2", "x"):
            with pytest.raises(ValueError):
                parse_alpha(bad)

    def test_parse_direction_specs(self):
        e = parse_direction("e", 3)
        assert np.allclose(e.components, np.ones(3) / np.sqrt(3))
        me = parse_direction("-e", 2)
        assert np.allclose(me.components, -np.ones(2) / np.sqrt(2))
        v = parse_direction("0.6,0.35,0.05", 3)
        assert np.isclose(np.linalg.norm(v.components), 1.0)

    def test_parse_direction_fpc_uses_sample_covariance(self, params_2d):
        sample = sample_t(params_2d, 5000, 3)
        u = parse_direction("fpc", 2, sample=sample)
        assert abs(u.components[0]) > 0.99


class TestRoundTrip:
    def test_surface_csv_json_csv_lossless(self, data_csv, tmp_path):
        # estimate and oracle-t write through the same serializer
        out = tmp_path / "surf.json"
        for argv in (
            ["estimate", "--input", data_csv, "--has-header", "--alpha", "1/1500",
             "--k", "150", "--grid", "6"],
            ["oracle-t", "--mu", MU2, "--sigma", SIG2, "--nu", "3", "--alpha", "1/5000",
             "--n", "5000", "--k", "250", "--grid", "6", "--direction", "fpc"],
        ):
            assert main(argv + ["--output", str(out)]) == 0
            doc = json.loads(out.read_text())
            csv1 = surface_doc_to_csv(doc)
            doc2 = surface_doc_from_csv(csv1)
            csv2 = surface_doc_to_csv(doc2)
            assert csv1 == csv2
            p0 = doc["points"][0]
            p2 = doc2["points"][0]
            assert p0["x_original"] == p2["x_original"]
            assert p0["rho"] == p2["rho"]


class TestCommands:
    def test_rotate_csv(self, data_csv, tmp_path):
        out = tmp_path / "rot.csv"
        rc = main(["rotate", "--input", data_csv, "--has-header",
                   "--direction", "0.8,-0.6", "--format", "csv",
                   "--output", str(out)])
        assert rc == 0
        rotated = parse_csv(str(out), has_header=True)
        assert rotated.shape == (1500, 2)

    def test_rotate_json_carries_rotation(self, data_csv, tmp_path):
        out = tmp_path / "rot.json"
        rc = main(["rotate", "--input", data_csv, "--has-header",
                   "--direction", "0.8,-0.6", "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        r = np.asarray(doc["rotation"])
        assert np.abs(r @ r.T - np.eye(2)).max() < 1e-10
        assert len(doc["rows"]) == 1500

    def test_estimate_csv_format_parses_back(self, data_csv, tmp_path):
        out = tmp_path / "surf.csv"
        rc = main(["estimate", "--input", data_csv, "--has-header",
                   "--alpha", "1/1500", "--k", "150", "--grid", "5",
                   "--format", "csv", "--output", str(out)])
        assert rc == 0
        doc = surface_doc_from_csv(out.read_text())
        assert len(doc["points"]) == 5
        assert doc["k"] == 150

    def test_select_k_fields_and_determinism(self, data_csv, tmp_path):
        out1, out2 = tmp_path / "k1.json", tmp_path / "k2.json"
        argv = ["select-k", "--input", data_csv, "--has-header",
                "--b1", "40", "--seed", "3"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        for field in ("k_hat", "k_j_m1", "k_j_m2", "pi_j", "m1", "m2",
                      "epsilon", "b1", "seed", "fallback"):
            assert field in doc
        assert doc["b1"] == 40
        assert not doc["fallback"]

    def test_estimate_schema_and_report(self, data_csv, tmp_path):
        out = tmp_path / "surf.json"
        rc = main(["estimate", "--input", data_csv, "--has-header",
                   "--alpha", "1/1500", "--k", "auto", "--b1", "40",
                   "--seed", "5", "--grid", "5", "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) >= {"alpha", "direction", "k", "gamma", "points", "fit"}
        point = doc["points"][0]
        assert set(point) == {"theta", "x_rotated", "x_original", "rho", "floored"}
        assert set(doc["fit"]) == {"k", "gamma_marginal", "gamma", "a", "b", "n"}
        report = json.loads((tmp_path / "surf.json.report.json").read_text())
        assert report["k_selection"]["k_hat"] == doc["k"]
        assert "warnings" in report

    def test_estimate_deterministic_bytes(self, data_csv, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(["estimate", "--input", data_csv, "--has-header",
                       "--alpha", "1/1500", "--k", "auto", "--b1", "30",
                       "--seed", "11", "--grid", "5", "--output", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_estimate_centering_flow(self, tmp_path, params_2d):
        raw = tmp_path / "raw.csv"
        sample = sample_t(params_2d, 1200, 8) + np.array([-8.0, -8.0])
        raw.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in sample) + "\n")
        out = tmp_path / "c.json"
        argv = ["estimate", "--input", str(raw), "--alpha", "1/1200",
                "--k", "120", "--grid", "4", "--output", str(out)]
        assert main(argv) == 3
        assert main(argv + ["--center"]) == 0
        doc = json.loads(out.read_text())
        assert doc["center_offset"] is not None
        report = json.loads((tmp_path / "c.json.report.json").read_text())
        assert report["centered"]

    def test_flag_csv(self, data_csv, tmp_path):
        out = tmp_path / "flags.csv"
        rc = main(["flag", "--input", data_csv, "--has-header",
                   "--alpha", "0.01", "--k", "150", "--format", "csv",
                   "--output", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "row,alpha_z,flagged"
        assert len(lines) == 1501

    def test_flag_rows_match_library(self, tmp_path, params_2d):
        # a centred sample: rows far below the diagonal get alpha_z = inf
        data = tmp_path / "t.csv"
        sample = sample_t(params_2d, 1500, 8)
        data.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in sample) + "\n")
        res = flag_outliers(parse_csv(str(data)), diagonal_direction(2), 0.01, k=150)
        assert np.isinf(res.alpha_z).any() and res.flagged.any()
        base = ["flag", "--input", str(data), "--alpha", "0.01", "--k", "150"]
        assert main(base + ["--format", "csv", "--output", str(tmp_path / "f.csv")]) == 0
        assert main(base + ["--output", str(tmp_path / "f.json")]) == 0
        lines = (tmp_path / "f.csv").read_text().splitlines()[1:]
        assert lines == [
            f"{i},{format(float(az), '.17g') if np.isfinite(az) else 'inf'},"
            f"{'true' if fl else 'false'}"
            for i, (az, fl) in enumerate(zip(res.alpha_z, res.flagged))
        ]
        rows = json.loads((tmp_path / "f.json").read_text())["rows"]
        assert rows == [
            {"alpha_z": float(az) if np.isfinite(az) else None, "flagged": bool(fl)}
            for az, fl in zip(res.alpha_z, res.flagged)
        ]

    def test_simulate_then_estimate(self, tmp_path):
        sim = tmp_path / "sim.csv"
        rc = main(["simulate-t", "--mu", MU2, "--sigma", SIG2, "--nu", "3",
                   "--n", "800", "--seed", "4", "--output", str(sim)])
        assert rc == 0
        assert parse_csv(str(sim), has_header=True).shape == (800, 2)
        out = tmp_path / "s.json"
        rc = main(["estimate", "--input", str(sim), "--has-header",
                   "--alpha", "1/800", "--k", "80", "--grid", "4",
                   "--output", str(out)])
        assert rc == 0

    def test_oracle_schema(self, tmp_path):
        out = tmp_path / "oracle.json"
        rc = main(["oracle-t", "--mu", MU2, "--sigma", SIG2, "--nu", "3",
                   "--alpha", "1/5000", "--n", "5000", "--k", "250",
                   "--grid", "5", "--direction", "fpc", "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["source"] == "oracle"
        assert set(doc["points"][0]) == {"theta", "x_rotated", "x_original",
                                         "rho", "floored"}
        assert doc["gamma"] == pytest.approx(1 / 3)
        assert abs(doc["direction"][0]) > 0.99

    @pytest.mark.parametrize("command", [
        ["oracle-t", "--alpha", "1/5000", "--n", "5000", "--k", "100", "--grid", "3"],
        ["mc-study", "--n", "2000", "--replicates", "3", "--k", "100", "--grid", "3",
         "--seed", "41"],
    ])
    def test_oracle_commands_build_one_rotation(self, command, tmp_path, monkeypatch):
        real = geometry.rotation_for
        calls = []

        def counted(u):
            calls.append(u)
            return real(u)

        for module in (cli, study, tmodel, quantile):
            monkeypatch.setattr(module, "rotation_for", counted)
        model = ["--mu", MU2, "--sigma", SIG2, "--nu", "3", "--direction", "fpc"]
        assert main([*command, *model, "--output", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_oracle_points_reuse_radius_and_norm_sequences(self, tmp_path, monkeypatch):
        calls = {"theoretical_rho": 0, "theoretical_norm_sequences": 0}
        for name in calls:
            real = getattr(tmodel, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(tmodel, name, counted)
            monkeypatch.setattr(cli, name, counted)
        out = tmp_path / "oracle.json"
        m3 = ["--mu", "0,0,0", "--sigma", "1,0.5,0.2,0.5,1,0.3,0.2,0.3,1", "--nu", "4"]
        assert main(["oracle-t", *m3, "--alpha", "1/5000", "--n", "5000", "--k", "100",
                     "--grid", "3", "--direction", "fpc", "--output", str(out)]) == 0
        assert calls == {"theoretical_rho": 1, "theoretical_norm_sequences": 1}
        monkeypatch.undo()
        doc = json.loads(out.read_text())
        sigma = [[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]]
        params = tmodel.TParams(np.zeros(3), np.array(sigma), 4.0)
        u = tmodel.fpc_direction(params.sigma)
        for p in doc["points"]:
            assert p["x_rotated"] == asymptotic_quantile(
                params, u, 1 / 5000, np.array(p["theta"]), 50.0).tolist()
            assert p["rho"] == tmodel.theoretical_rho(np.array(p["theta"]), params, u)

    def test_mc_study_outputs_and_determinism(self, tmp_path):
        args = ["mc-study", "--mu", MU2, "--sigma", SIG2, "--nu", "3",
                "--n", "5000", "--replicates", "2", "--b1", "1000",
                "--grid", "4", "--seed", "40"]
        p1, p2 = tmp_path / "run1", tmp_path / "run2"
        assert main(args + ["--output", str(p1)]) == 0
        assert main(args + ["--output", str(p2)]) == 0
        for suffix in (".replicates.csv", ".rho.csv", ".bands.csv", ".summary.json"):
            b1 = (tmp_path / ("run1" + suffix)).read_bytes()
            b2 = (tmp_path / ("run2" + suffix)).read_bytes()
            assert b1 == b2
        rep = (tmp_path / "run1.replicates.csv").read_text().splitlines()
        assert rep[0] == "replicate,k_hat,gamma_ratio_1,gamma_ratio_2,re"
        summary = json.loads((tmp_path / "run1.summary.json").read_text())
        assert summary["alpha"] == pytest.approx(1 / 5000)
        assert summary["replicates"] == 2
        assert summary["valid_replicates"] + len(summary["failed_replicates"]) == 2
        assert len(rep) == 1 + summary["valid_replicates"]

    def test_mc_study_records_numerical_failure(self, tmp_path, monkeypatch):
        real = study.asymptotic_quantile
        calls = []

        def fail_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise InversionError("bisection did not converge")
            return real(*args, **kwargs)

        monkeypatch.setattr(study, "asymptotic_quantile", fail_first)
        prefix = tmp_path / "mc"
        assert main(["mc-study", "--mu", MU2, "--sigma", SIG2, "--nu", "3",
                     "--n", "2000", "--replicates", "3", "--k", "100",
                     "--grid", "4", "--seed", "41", "--output", str(prefix)]) == 0
        summary = json.loads((tmp_path / "mc.summary.json").read_text())
        assert summary["failed_replicates"] == [
            {"replicate": 0, "error": "InversionError: bisection did not converge"}
        ]
        assert summary["valid_replicates"] == 2

    def test_mc_study_all_replicates_failed(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise InversionError("bisection did not converge")

        monkeypatch.setattr(study, "asymptotic_quantile", fail)
        assert main(["mc-study", "--mu", MU2, "--sigma", SIG2, "--nu", "3",
                     "--n", "2000", "--replicates", "3", "--k", "100",
                     "--grid", "4", "--seed", "41",
                     "--output", str(tmp_path / "mc")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "DataError",
                       "message": "all 3 replicates failed; first failure: "
                                  "InversionError: bisection did not converge"}
        assert list(tmp_path.iterdir()) == []

    def test_write_study_rows_match_run_study(self, tmp_path):
        params = tmodel.TParams(np.zeros(2), np.array([[5.0, 0.1], [0.1, 1.0]]), 3.0)
        args = (diagonal_direction(2), 1 / 2000, quantile.theta_grid(2, 4, 0.01), "auto")
        result = study.run_study(params, 2000, 3, *args, b1=40, seed=42)
        with pytest.raises(ValueError, match="replicates must be at least 1, got 0"):
            study.run_study(params, 2000, 0, *args)
        cli.write_study(str(tmp_path / "mc"), result)
        rows = (tmp_path / "mc.replicates.csv").read_text().splitlines()[1:]
        cells = [row.split(",") for row in rows]
        assert [int(c[0]) for c in cells] == result.index.tolist()
        assert [int(c[1]) for c in cells] == result.k_hat.tolist()
        assert [i for i, _ in result.failures] == [1]

    def test_config_file_with_flag_override(self, data_csv, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "alpha=1/1500\nk=150\ngrid=4\nhas-header=true\n"
            f"input={data_csv}\n"
        )
        out = tmp_path / "cfg.json"
        rc = main(["estimate", "--config", str(cfgfile), "--output", str(out),
                   "--grid", "6"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["points"]) == 6
        assert doc["k"] == 150

    def test_config_key_of_command_accepted(self, data_csv, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"input={data_csv}\nhas-header=true\nb1=40\nseed=3\n")
        out = tmp_path / "k.json"
        assert main(["select-k", "--config", str(cfgfile), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["b1"], doc["seed"]) == (40, 3)

    def test_config_key_unused_by_command_rejected(self, data_csv, tmp_path, capsys):
        # select-k has no --replicates: a file value for it would be ignored
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"input={data_csv}\nhas-header=true\nreplicates=8\n")
        out = tmp_path / "k.json"
        assert main(["select-k", "--config", str(cfgfile), "--b1", "40",
                     "--output", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "'replicates' is not an option of select-k" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("word, centred", [("Yes", True), ("OFF", False)])
    def test_config_bool_words(self, word, centred, data_csv, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"input={data_csv}\nhas-header=true\ncenter={word}\n")
        out = tmp_path / "s.json"
        assert main(["estimate", "--config", str(cfgfile), "--alpha", "1/1500",
                     "--k", "150", "--grid", "4", "--output", str(out)]) == 0
        report = json.loads((tmp_path / "s.json.report.json").read_text())
        assert report["centered"] is centred

    @pytest.mark.parametrize("word", ["ture", "2", "", "y"])
    def test_config_bool_misspelling_rejected(self, word, data_csv, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"input={data_csv}\nhas-header=true\ncenter={word}\n")
        out = tmp_path / "s.json"
        assert main(["estimate", "--config", str(cfgfile), "--alpha", "1/1500",
                     "--k", "150", "--grid", "4", "--output", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{cfgfile}: line 3: center must be one of")
        assert repr(word) in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("grid=abc", "line 3: grid must be an integer, got 'abc'"),
        ("delta=", "line 3: delta must be a number, got ''"),
        ("format=xml", "line 3: format must be one of json/csv, got 'xml'"),
    ])
    def test_config_number_value_rejected(self, line, message, data_csv, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"input={data_csv}\nhas-header=true\n{line}\n")
        out = tmp_path / "s.json"
        assert main(["estimate", "--config", str(cfgfile), "--alpha", "1/1500",
                     "--k", "150", "--output", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"] == f"{cfgfile}: {message}"
        assert not out.exists()


# the options each command cannot run without, and a value for each
REQUIRED = {
    "rotate": ["input"],
    "select-k": ["input"],
    "estimate": ["input", "alpha"],
    "flag": ["input", "alpha"],
    "simulate-t": ["mu", "sigma", "nu", "n"],
    "oracle-t": ["mu", "sigma", "nu", "alpha", "n"],
    "mc-study": ["mu", "sigma", "nu", "n"],
}
REQUIRED_VALUES = {"input": "unread.csv", "alpha": "1/1500", "mu": MU2, "sigma": SIG2,
                   "nu": "3", "n": "1500"}


def required_argv(command: str) -> list[str]:
    """The command with a value for each option it cannot run without."""
    argv = [command]
    for name in REQUIRED[command]:
        argv += [cli._flag(name), REQUIRED_VALUES[name]]
    return argv


class TestExitCodes:
    def test_usage_error_bad_alpha(self, data_csv):
        assert main(["estimate", "--input", data_csv, "--has-header",
                     "--alpha", "2.0", "--k", "100"]) == 2

    def test_usage_error_missing_file(self):
        assert main(["select-k", "--input", "/nonexistent.csv"]) == 2

    def test_data_error_ragged_csv(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3\n")
        assert main(["select-k", "--input", str(p)]) == 3

    def test_data_error_positivity(self, tmp_path, params_2d):
        raw = tmp_path / "neg.csv"
        sample = sample_t(params_2d, 900, 8) - 9.0
        raw.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in sample) + "\n")
        assert main(["estimate", "--input", str(raw), "--alpha", "1/900",
                     "--k", "90", "--grid", "4"]) == 3

    @pytest.mark.parametrize("command", [
        ["select-k", "--b1", "40"],
        ["estimate", "--alpha", "1/1500", "--k", "auto", "--b1", "40", "--grid", "4"],
        ["flag", "--alpha", "0.01", "--k", "150"],
        ["rotate", "--direction", "fpc"],
    ])
    def test_data_error_non_finite_cell(self, command, data_csv, tmp_path, capsys):
        lines = open(data_csv).read().splitlines()
        lines[700] = "nan," + lines[700].split(",")[1]
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.json"
        assert main(command + ["--input", str(bad), "--has-header",
                               "--output", str(out)]) == 3
        assert "non-finite cell at row 700, column 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("direction, index, value", [
        ("nan,1", 0, "nan"), ("1,inf", 1, "inf"),
    ])
    def test_non_finite_direction_component(self, direction, index, value, data_csv,
                                            tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["estimate", "--input", data_csv, "--has-header", "--alpha",
                     "1/1500", "--k", "150", "--direction", direction,
                     "--output", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InvalidDirectionError", "message":
                       f"direction component {index + 1} is not finite (value {value})"}
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate-t", "oracle-t"])
    @pytest.mark.parametrize("model, message", [
        (["--mu", "0,nan"], "mu component 2 is not finite (value nan)"),
        (["--mu", "inf,0"], "mu component 1 is not finite (value inf)"),
        (["--sigma", "1,0,0,inf"], "sigma component 4 is not finite (value inf)"),
        (["--nu", "inf"], "nu is not finite (value inf)"),
    ])
    def test_non_finite_model_parameter(self, command, model, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(required_argv(command) + model + ["--output", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "DegenerateModelError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("model, message", [
        (["--mu", "0,x"], "cannot parse --mu component 2: 'x'"),
        (["--sigma", "1,0,,1"], "cannot parse --sigma component 3: ''"),
    ])
    def test_unparsable_model_component(self, model, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(required_argv("simulate-t") + model + ["--output", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": message}
        assert not out.exists()

    def test_unparsable_direction_component(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        argv = required_argv("oracle-t") + ["--k", "100", "--direction", "1,x",
                                            "--output", str(out)]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "cannot parse --direction component 2: 'x'"}
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_workers_option_rejected(self, command, tmp_path, capsys):
        argv = required_argv(command)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", "2"])
        assert exc.value.code == 2
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("workers=2\n")
        capsys.readouterr()
        assert main(argv + ["--config", str(cfgfile)]) == 2
        assert "unknown config key 'workers'" in capsys.readouterr().err

    @pytest.mark.parametrize("exc, code", [
        (ValueError("bad value"), 2),
        (OSError("no such file"), 2),
        (KeyError("key"), 2),
        (DataError("bad data"), 3),
        (NumericalError("no convergence"), 4),
        (DirquantError("other failure"), 4),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
    def test_exit_code_table(self, exc, code, monkeypatch, capsys):
        def fail(cfg):
            raise exc

        monkeypatch.setattr(cli, "cmd_rotate", fail)
        assert main(["rotate", "--input", "unread.csv"]) == code
        assert json.loads(capsys.readouterr().err) == {
            "error": type(exc).__name__, "message": str(exc)}

    def test_numerical_error_exit_4(self, tmp_path, capsys):
        # 1 - 1/t rounds to 1 at t = 1e17: the marginal quantile is infinite
        out = tmp_path / "oracle.json"
        assert main(["oracle-t", "--mu", MU2, "--sigma", SIG2, "--nu", "3",
                     "--alpha", "1/5000", "--n", str(10**17), "--k", "1",
                     "--output", str(out)]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "InversionError"
        assert not out.exists()

    def test_oracle_k_zero_is_usage_error(self, capsys):
        assert main(["oracle-t", "--mu", MU2, "--sigma", SIG2, "--nu", "3",
                     "--alpha", "1/5000", "--n", "5000", "--k", "0"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "oracle-t needs --k >= 1, got 0"}

    @pytest.mark.parametrize("args, message", [
        (["mc-study", "--n", "100", "--replicates", "0"],
         "mc-study needs --replicates >= 1, got 0"),
        (["mc-study", "--n", "100", "--replicates", "-2"],
         "mc-study needs --replicates >= 1, got -2"),
        (["mc-study", "--n", "0"], "mc-study needs --n >= 1, got 0"),
        (["simulate-t", "--n", "0"], "n must be at least 1, got 0"),
        (["simulate-t", "--n", "-5"], "n must be at least 1, got -5"),
    ])
    def test_nonpositive_count_is_usage_error(self, args, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(args + ["--mu", MU2, "--sigma", SIG2, "--nu", "3",
                            "--output", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                       "message": message}
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, message", [
        ("rotate", "rotate needs --input"),
        ("select-k", "select-k needs --input"),
        ("estimate", "estimate needs --input and --alpha"),
        ("flag", "flag needs --input and --alpha"),
        ("simulate-t", "simulate-t needs --mu, --sigma, --nu and --n"),
        ("oracle-t", "oracle-t needs --mu, --sigma, --nu, --alpha and --n"),
        ("mc-study", "mc-study needs --mu, --sigma, --nu and --n"),
    ])
    def test_bare_command_names_its_required_options(self, command, message, tmp_path,
                                                      capsys):
        assert main([command, "--output", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError",
                                                       "message": message}
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, missing", [
        (command, name) for command, names in REQUIRED.items() for name in names])
    def test_each_required_option_is_checked(self, command, missing, data_csv, tmp_path,
                                             capsys):
        given = {**REQUIRED_VALUES, "input": data_csv}
        argv = [command, "--output", str(tmp_path / "out")]
        for name in REQUIRED[command]:
            if name != missing:
                argv += [cli._flag(name), given[name]]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": f"{command} needs {cli._flag(missing)}"}
        assert not any(tmp_path.iterdir())

    def test_required_options_from_config_file(self, tmp_path):
        argv = ["simulate-t", "--seed", "4"]
        flags_out, file_out = tmp_path / "flags.csv", tmp_path / "file.csv"
        assert main(argv + ["--mu", MU2, "--sigma", SIG2, "--nu", "3", "--n", "50",
                            "--output", str(flags_out)]) == 0
        cfgfile = tmp_path / "model.cfg"
        cfgfile.write_text(f"mu={MU2}\nsigma={SIG2}\nnu=3\nn=50\n")
        assert main(argv + ["--config", str(cfgfile), "--output", str(file_out)]) == 0
        assert file_out.read_bytes() == flags_out.read_bytes()

    def test_argparse_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--bogus-flag"])
        assert exc.value.code == 2

    def test_console_script_help(self):
        # the child imports the same package as the tests, installed or not
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "dirquant.cli", "--help"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "estimate" in proc.stdout


# Runs each command line of argv[1], a JSON list, in one fresh process and
# prints, per command, its exit code and whether scipy was loaded by then.
_SCIPY_CHILD = """
import json, sys
from dirquant.cli import main
for argv in json.loads(sys.argv[1]):
    print(json.dumps([argv[0], main(argv), "scipy" in sys.modules]))
"""


def test_data_commands_start_without_scipy(tmp_path):
    # only the t-model oracle needs scipy.special; oracle-t runs last, since
    # a loaded module stays loaded
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    x = str(tmp_path / "x.csv")
    runs = [
        ["simulate-t", "--mu", MU2, "--sigma", SIG2, "--nu", "3", "--n", "600",
         "--seed", "5", "--output", x],
        ["rotate", "--input", x, "--has-header", "--output", str(tmp_path / "rotated.csv")],
        ["select-k", "--input", x, "--has-header", "--b1", "50",
         "--output", str(tmp_path / "k.json")],
        ["estimate", "--input", x, "--has-header", "--alpha", "0.001", "--k", "30",
         "--grid", "8", "--output", str(tmp_path / "surface.json")],
        ["flag", "--input", x, "--has-header", "--alpha", "0.001", "--k", "30",
         "--output", str(tmp_path / "flags.json")],
        ["oracle-t", "--mu", MU2, "--sigma", SIG2, "--nu", "3", "--alpha", "0.001",
         "--n", "600", "--k", "30", "--grid", "8",
         "--output", str(tmp_path / "oracle.json")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_CHILD, json.dumps(runs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert [json.loads(line) for line in proc.stdout.splitlines()] == [
        [argv[0], 0, argv[0] == "oracle-t"] for argv in runs]


# a value of each RunConfig field, as the text of its flag and config key;
# True stands for a switch given as its bare flag and as "true"
OPTION_TEXT = {
    "input": "in.csv", "output": "out.json", "format": "csv", "direction": "fpc",
    "alpha": "1/50", "k": "150", "grid": "7", "delta": "0.02", "epsilon": "0.3",
    "b1": "40", "seed": "9", "center": True, "replicates": "3", "mu": "0,0",
    "sigma": "1,0,0,1", "nu": "2.5", "n": "100", "has_header": True, "k_rho": "30",
}


class TestOptionTable:
    def test_fields_are_the_commands_options(self):
        names = [f.name for f in fields(cli.RunConfig)]
        listed = {name for _, options, _ in cli.COMMANDS.values() for name in options}
        assert listed == set(names) == set(OPTION_TEXT)
        for _, options, required in cli.COMMANDS.values():
            assert set(required) <= set(options)

    @pytest.mark.parametrize("name", sorted(OPTION_TEXT))
    def test_config_value_equals_flag_value(self, name, tmp_path):
        command = next(c for c, (_, options, _) in cli.COMMANDS.items() if name in options)
        text = OPTION_TEXT[name]
        base = [command]
        for other in REQUIRED[command]:
            if other != name:
                base += [cli._flag(other), REQUIRED_VALUES[other]]
        flag = [cli._flag(name)] if text is True else [cli._flag(name), text]
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{name}={'true' if text is True else text}\n")
        parse = cli._shared_parser().parse_args
        from_flag = cli.build_config(parse(base + flag))
        from_file = cli.build_config(parse(base + ["--config", str(cfgfile)]))
        got = getattr(from_file, name)
        assert got == getattr(from_flag, name)
        assert type(got) is type(getattr(from_flag, name))
        assert got != getattr(cli.RunConfig(), name)


def test_parser_built_once_per_process(monkeypatch):
    built, ran = [], []
    real = cli.make_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "make_parser", counted)
    cli._shared_parser.cache_clear()
    monkeypatch.setattr(cli, "cmd_rotate", lambda cfg: ran.append(("rotate", cfg.direction)) or 0)
    monkeypatch.setattr(cli, "cmd_flag", lambda cfg: ran.append(("flag", cfg.alpha)) or 0)
    assert main(["rotate", "--input", "unread.csv", "--direction", "fpc"]) == 0
    assert main(["flag", "--input", "unread.csv", "--alpha", "0.01"]) == 0
    assert built == [1]
    assert ran == [("rotate", "fpc"), ("flag", "0.01")]


# ---------------------------------------------------------------------------
# byte stability: sha256 of every output file of small fixed-seed commands

_M2 = ["--mu", MU2, "--sigma", SIG2, "--nu", "3"]
_M3 = ["--mu", "0,0,0", "--sigma", "5,2.44,-1.88,2.44,2.12,0.04,-1.88,0.04,2.36",
       "--nu", "4"]
_SIM2 = ["simulate-t", *_M2, "--n", "1500", "--seed", "4"]
_SIM3 = ["simulate-t", *_M3, "--n", "3000", "--seed", "6"]
_SIM4 = ["simulate-t", "--mu", "0,0,0,0", "--sigma",
         "2,0.5,0.3,0.1,0.5,1.5,0.2,0.4,0.3,0.2,1.8,0.6,0.1,0.4,0.6,1.2",
         "--nu", "3", "--n", "1500", "--seed", "8"]

# argv, with {s2}, {s3} and {s4} standing for the simulated inputs
BYTE_CASES = {
    "simulate-t-2d": _SIM2,
    "simulate-t-3d": _SIM3,
    "simulate-t-4d": _SIM4,
    "rotate-json-2d": ["rotate", "--input", "{s2}", "--has-header",
                        "--direction", "0.8,-0.6"],
    "rotate-csv-3d": ["rotate", "--input", "{s3}", "--has-header",
                       "--direction", "fpc", "--format", "csv"],
    "select-k-2d": ["select-k", "--input", "{s2}", "--has-header", "--b1", "40",
                     "--seed", "3"],
    "estimate-json-2d-auto": ["estimate", "--input", "{s2}", "--has-header",
                               "--alpha", "1/1500", "--k", "auto", "--b1", "40",
                               "--seed", "5", "--grid", "6", "--direction", "fpc"],
    "estimate-csv-2d-center": ["estimate", "--input", "{s2}", "--has-header",
                                "--alpha", "1/1500", "--k", "150", "--center",
                                "--grid", "6", "--direction", "0.8,-0.6",
                                "--format", "csv"],
    "estimate-json-3d-k-rho": ["estimate", "--input", "{s3}", "--has-header",
                                "--alpha", "1/3000", "--k", "150", "--k-rho", "300",
                                "--grid", "4", "--direction", "0.6,0.35,0.05"],
    "estimate-csv-3d-auto": ["estimate", "--input", "{s3}", "--has-header",
                              "--alpha", "1/3000", "--k", "auto", "--b1", "40",
                              "--seed", "1", "--grid", "4", "--format", "csv"],
    "estimate-json-4d": ["estimate", "--input", "{s4}", "--has-header",
                         "--alpha", "1/1500", "--k", "150", "--grid", "3",
                         "--direction", "0.5,0.3,0.6,0.2"],
    "flag-csv-2d-auto": ["flag", "--input", "{s2}", "--has-header", "--alpha", "0.01",
                          "--k", "auto", "--b1", "40", "--seed", "7", "--format", "csv"],
    "flag-json-2d": ["flag", "--input", "{s2}", "--has-header", "--alpha", "0.01",
                      "--k", "150"],
    "flag-csv-3d": ["flag", "--input", "{s3}", "--has-header", "--alpha", "1/1250",
                     "--k", "120", "--direction", "0.6,0.35,0.05", "--format", "csv"],
    "flag-json-3d-center": ["flag", "--input", "{s3}", "--has-header",
                             "--alpha", "1/1250", "--k", "120", "--center"],
    "oracle-json-2d": ["oracle-t", *_M2, "--alpha", "1/5000", "--n", "5000",
                        "--k", "250", "--grid", "5", "--direction", "fpc"],
    "oracle-csv-3d": ["oracle-t", *_M3, "--alpha", "1/5000", "--n", "5000",
                       "--k", "100", "--grid", "4", "--direction", "fpc",
                       "--format", "csv"],
    "oracle-json-k1": ["oracle-t", *_M2, "--alpha", "1/5000", "--n", "5000",
                        "--k", "1", "--grid", "5", "--direction", "fpc"],
    "mc-study-2d": ["mc-study", *_M2, "--n", "2000", "--replicates", "3", "--b1", "40",
                     "--grid", "4", "--seed", "42"],
    "mc-study-3d": ["mc-study", *_M3, "--n", "2000", "--replicates", "2", "--k", "150",
                     "--grid", "3", "--seed", "41", "--direction", "e"],
}


# sha256 of each file a case writes, keyed by its suffix to --output (an
# empty suffix is --output itself)
BYTE_DIGESTS = {
    "estimate-csv-2d-center": {
        "": "5119c6a909fed6bb343e8dd59087e7de36fec030cf1afe4748b7bcba256339fa",
        ".report.json": "10867d7968ce45cd8734b0a4332efb9a41f454bd17e5a6e2691e0385729b5697",
    },
    "estimate-csv-3d-auto": {
        "": "14e9737c5c72d350b6b7c08d4e430ab92c4b846935fdad34a6a9e2f0acaac2eb",
        ".report.json": "6ec73c9afb1844178977a83fa12a6de14195508106b102b80a1fb13218d91c81",
    },
    "estimate-json-2d-auto": {
        "": "c350759bbbd52abb327001d85032b3ab29a613acefd9e4cc8bec91b08f69974f",
        ".report.json": "b747bd30afaf5699feb492e9095e1d980503b7611eed777ffa61c045d91b5075",
    },
    "estimate-json-3d-k-rho": {
        "": "29db272cdafb037227fc971c16a0841c60a46ba29a9b945c4a2a8f0c1d08e685",
        ".report.json": "b25fada09205b2f3db674ae742d7b1b474e42e0e5218b84c84d5182ddb1cc4f3",
    },
    "estimate-json-4d": {
        "": "6e8ec904f3b94193fc1980fa8c111240c253c7985082ce3210d40acb89945088",
        ".report.json": "1ea1cf0485ce053ebe7ba197f2af006d30a83ed914c2b8e4330601615bc40a45",
    },
    "flag-csv-2d-auto": {
        "": "dfe5ca97a6d0471826b793f2c32931b21f6df5a01fb62149c3a8b6a33e44dab1",
    },
    "flag-csv-3d": {
        # row 791 lies on its own threshold in coordinate 3, where
        # a (theta^gamma - 1)/gamma + b reproduces it exactly: alpha_z
        # counts 2897 rows beyond it, not 2898
        "": "ef8aff2be252c1c5129678147de4ae1874ab994528eb2ed92c961d40e985142c",
    },
    "flag-json-2d": {
        "": "47e25251c6db5a76bb94ae284f8b61b3172e2c13d06832537852fc12d4e378f1",
    },
    "flag-json-3d-center": {
        "": "8ef83f81523594ab54392965409b6142a54d1b1ada034534228accc0e37196fd",
    },
    "mc-study-2d": {
        # replicate 1 fails with "HeavyTailError: marginal 1 has tail index
        # -0.1568... <= 0": marginals are numbered from 1 in messages
        ".replicates.csv": "5a221e363ed28313f5177ccba95db7d186f0dfacdef9e55ad6f916b2b92a2703",
        ".rho.csv": "623fb2186c86328e4e1314259b42c017a90642bcede0ef4fdd970d77ef656bd5",
        ".bands.csv": "0c6c6f122ecffe8427a6ad269bdacbb70e07d8896e9b8f122dd46a01b4006bcd",
        ".summary.json": "aae3e4786a5f456d1caeb96b2371c2554d73b035a03d6fce37d960adc2af1ea9",
    },
    "mc-study-3d": {
        ".replicates.csv": "b0cfd5189d338103a64683aaa91ec210f23e39069c055bc9ffd8dba39834681e",
        ".rho.csv": "f41c4c1d9683048a69a1fcd2d6f1eda2c730c211cf3d6f8137b2946ce76a4509",
        ".bands.csv": "dbb324876500b0d389556ace3e4de2a24271f3fff4e485c2f2b0448194cb0183",
        ".summary.json": "2183cd0c9a768a8eb8377571aaf6f431b480860cb85b512161ca7cc3ce31ac47",
    },
    "oracle-csv-3d": {
        "": "f12e14a256738bb92f6ca8a4fded739df29b67fcfcc7b3f0651e3d5aa397e5c9",
    },
    "oracle-json-2d": {
        "": "189dce6c05ee34401ae6018eadfa3586b17f87352e701c5c9a924cf273f2145f",
    },
    "oracle-json-k1": {
        "": "e47b8faabe39a3b348832f9a528795e88c2997fc315c9bf65becf97623e88a76",
    },
    "rotate-csv-3d": {
        "": "ad8b3623224876497667f2a67dc4faae207bdf78480c54365974b35b26c29010",
    },
    "rotate-json-2d": {
        "": "ff856e9319ea12f08d9a9d58b97da15f77cff3ab7d991f306ad7c8d258251c26",
    },
    "select-k-2d": {
        "": "ae0606db3ac96a68fd08f39ebdff298a8655c3811a2bca089b1ed2e8e0f7cc56",
    },
    "simulate-t-2d": {
        "": "9e33913f09657e99b956a553109f88bf04ad11904e4366403ac99a820cc5f68a",
    },
    "simulate-t-3d": {
        "": "f1d4f5df8c263d2b00c511cb53412b8e061a862bbb26d4bfae616c440178d744",
    },
    "simulate-t-4d": {
        "": "de99e83ef071b0b792a3a2e8c3d5ddd8ceaa3684e72f077267c786ea4ad1c24b",
    },
}


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    paths = {name: str(root / f"{name}.csv") for name in ("s2", "s3", "s4")}
    for name, argv in zip(paths, (_SIM2, _SIM3, _SIM4)):
        assert main(argv + ["--output", paths[name]]) == 0
    return paths


@pytest.mark.parametrize("name", sorted(BYTE_CASES))
def test_outputs_byte_stable(name, simulated, tmp_path):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        argv = [a.format(**simulated) for a in BYTE_CASES[name]]
        assert main(argv + ["--output", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        "out" + s for s in BYTE_DIGESTS[name])
    got = {s: hashlib.sha256((tmp_path / ("out" + s)).read_bytes()).hexdigest()
           for s in BYTE_DIGESTS[name]}
    assert got == BYTE_DIGESTS[name]
