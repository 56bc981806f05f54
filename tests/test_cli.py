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
    TailFit,
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

    @pytest.mark.parametrize("direction", ["fpc", "0.3,1"])
    def test_estimate_centering_large_median(self, tmp_path, params_2d, direction):
        raw = tmp_path / "raw.csv"
        np.savetxt(raw, sample_t(params_2d, 5000, 1) + 2e6, delimiter=",")
        out = tmp_path / "c.json"
        assert main(["estimate", "--input", str(raw), "--center", "--direction", direction,
                     "--k", "200", "--alpha", "1/5000", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert min(min(p["x_original"]) for p in doc["points"]) > 1e6

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

    @pytest.mark.parametrize("k", [1, 250])
    def test_oracle_surface_holds_a_tail_fit(self, k, tmp_path, monkeypatch):
        surfaces = []

        class Recorded(quantile.QuantileSurface):
            def __post_init__(self):
                super().__post_init__()
                surfaces.append(self)

        monkeypatch.setattr(cli, "QuantileSurface", Recorded)
        assert main(["oracle-t", "--mu", MU2, "--sigma", SIG2, "--nu", "3",
                     "--alpha", "1/5000", "--n", "5000", "--k", str(k), "--grid", "5",
                     "--output", str(tmp_path / "oracle.json")]) == 0
        (surface,) = surfaces
        assert type(surface.fit) is TailFit
        assert (surface.fit.k, surface.fit.n, surface.fit.gamma) == (k, 5000, 1 / 3)
        assert surface.fit.gamma_marginal.tolist() == [1 / 3, 1 / 3]
        assert not hasattr(tmodel, "ModelFit")

    @pytest.mark.parametrize("command", [
        ["oracle-t", "--alpha", "1/5000", "--n", "5000", "--k", "100", "--grid", "3"],
        ["mc-study", "--n", "2000", "--replicates", "3", "--k", "100", "--grid", "3",
         "--seed", "41"],
    ])
    def test_oracle_commands_build_one_rotation(self, command, tmp_path, monkeypatch):
        real = geometry.rotation_for
        calls = []

        def counted(u):
            r = real(u)
            if r is not u:  # an already built rotation passes through
                calls.append(u)
            return r

        for module in (cli, study, tmodel, quantile):
            monkeypatch.setattr(module, "rotation_for", counted)
        model = ["--mu", MU2, "--sigma", SIG2, "--nu", "3", "--direction", "fpc"]
        assert main([*command, *model, "--output", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_oracle_points_reuse_radius_and_norm_sequences(self, tmp_path, monkeypatch):
        # each command evaluates the model on its grid once, in model_oracle,
        # and takes the surface's radius and points from that one evaluation;
        # each mc-study replicate adds one single-angle evaluation
        real = tmodel.t_stdf
        grid_sizes = []

        def counted(z, corr, nu):
            if np.ndim(z) == 2:
                grid_sizes.append(len(z))
            return real(z, corr, nu)

        monkeypatch.setattr(tmodel, "t_stdf", counted)
        out = tmp_path / "oracle.json"
        m3 = ["--mu", "0,0,0", "--sigma", "1,0.5,0.2,0.5,1,0.3,0.2,0.3,1", "--nu", "4"]
        assert main(["oracle-t", *m3, "--alpha", "1/5000", "--n", "5000", "--k", "100",
                     "--grid", "3", "--direction", "fpc", "--output", str(out)]) == 0
        assert main(["mc-study", *m3, "--n", "2000", "--replicates", "2", "--k", "150",
                     "--grid", "3", "--direction", "fpc",
                     "--output", str(tmp_path / "mc")]) == 0
        monkeypatch.undo()
        doc = json.loads(out.read_text())
        assert grid_sizes == [len(doc["points"])] * 2
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

    def test_config_comments_and_blank_lines_ignored(self, data_csv, tmp_path):
        plain = tmp_path / "plain.cfg"
        plain.write_text(f"input={data_csv}\nhas-header=true\nk=150\ngrid=4\n")
        commented = tmp_path / "commented.cfg"
        commented.write_text(f"# a first comment\ninput={data_csv}\n\nhas-header=true\n"
                             "   # an indented comment\nk=150\n\t\ngrid=4\n")
        outputs = []
        for cfgfile in (plain, commented):
            out = tmp_path / f"{cfgfile.stem}.json"
            assert main(["estimate", "--config", str(cfgfile), "--alpha", "1/1500",
                         "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("line", ["grid 4", "k"])
    def test_config_line_without_equals_rejected(self, line, data_csv, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"input={data_csv}\n# has-header=true\n{line}\n")
        out = tmp_path / "s.json"
        assert main(["estimate", "--config", str(cfgfile), "--alpha", "1/1500",
                     "--k", "150", "--has-header", "--output", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": f"{cfgfile}: line 3 is not key=value: {line!r}"}
        assert not out.exists()


# the options each command cannot run without, and a value for each
REQUIRED = {
    "rotate": ["input"],
    "select-k": ["input"],
    "estimate": ["input", "alpha"],
    "flag": ["input", "alpha"],
    "simulate-t": ["mu", "sigma", "nu", "n"],
    "oracle-t": ["mu", "sigma", "nu", "alpha", "n", "k"],
    "mc-study": ["mu", "sigma", "nu", "n"],
}
REQUIRED_VALUES = {"input": "unread.csv", "alpha": "1/1500", "mu": MU2, "sigma": SIG2,
                   "nu": "3", "n": "1500", "k": "100"}


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

    def test_k_is_read_before_the_grid(self, data_csv, capsys):
        # the input step shared with flag parses k; estimate builds its grid after it
        assert main(["estimate", "--input", data_csv, "--has-header", "--alpha", "0.01",
                     "--k", "x", "--grid", "1"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "k must be an integer or 'auto', got 'x'"}

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

    def test_data_error_rotation_overflow(self, data_csv, tmp_path):
        # a fresh process, so that stderr holds whatever numpy would print
        lines = open(data_csv).read().splitlines()
        lines[6] = "1.7e308,1.7e308"
        bad = tmp_path / "huge.csv"
        bad.write_text("\n".join(lines) + "\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        message = ("rotated sample cell at row 6, column 1 overflowed to inf; "
                   "rescale the sample")
        for command in (["estimate", "--alpha", "1/1500", "--k", "150", "--grid", "4"],
                        ["flag", "--alpha", "0.01", "--k", "150"],
                        ["rotate", "--format", "csv"], ["rotate", "--format", "json"],
                        ["select-k"]):
            out = tmp_path / "out.json"
            proc = subprocess.run(
                [sys.executable, "-m", "dirquant.cli", *command, "--input", str(bad),
                 "--has-header", "--direction", "0.3,1", "--output", str(out)],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
            )
            assert proc.returncode == 3, command
            assert proc.stderr.count("\n") == 1
            assert json.loads(proc.stderr) == {"error": "DataError", "message": message}
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
        argv = required_argv("oracle-t") + ["--direction", "1,x", "--output", str(out)]
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

    def test_oracle_auto_k_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("k=auto\n")
        out = tmp_path / "oracle.json"
        argv = required_argv("oracle-t") + ["--output", str(out)]
        for extra in (["--k", "auto"], ["--k", "auto", "--config", str(cfgfile)]):
            assert main(argv + extra) == 2
            assert json.loads(capsys.readouterr().err) == {
                "error": "ValueError",
                "message": "oracle-t needs an explicit integer --k (anchor t = n/k)"}
        assert not out.exists()

    @pytest.mark.parametrize("rows", [1, 2])
    def test_select_k_on_fewer_than_three_rows(self, rows, tmp_path, capsys):
        data = tmp_path / "few.csv"
        data.write_text("1.5,2.5\n" * rows)
        out = tmp_path / "k.json"
        assert main(["select-k", "--input", str(data), "--output", str(out)]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "DataError", "message": f"need at least 50 rows, got {rows}"}
        assert not out.exists()

    @pytest.mark.parametrize("rows", [3, 49])
    def test_select_k_below_the_fit_minimum(self, rows, tmp_path, capsys):
        # no fit accepts fewer than 50 rows, so no k is selected for one
        data = tmp_path / "few.csv"
        data.write_text("1.5,2.5\n" * rows)
        out = tmp_path / "k.json"
        assert main(["select-k", "--input", str(data), "--output", str(out)]) == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "DataError", "message": f"need at least 50 rows, got {rows}"}
        assert not out.exists()

    def test_error_object_is_one_json_line(self, monkeypatch, capsys):
        def fail(cfg):
            raise ValueError('two\nlines, "quoted", γ ≤ 0')

        monkeypatch.setattr(cli, "cmd_rotate", fail)
        assert main(["rotate", "--input", "unread.csv"]) == 2
        err = capsys.readouterr().err
        assert err == json.dumps({"error": "ValueError",
                                  "message": 'two\nlines, "quoted", γ ≤ 0'}) + "\n"
        assert err.count("\n") == 1

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
        ("oracle-t", "oracle-t needs --mu, --sigma, --nu, --alpha, --n and --k"),
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
        "": "ae8d65cff870053d5d6919debc2e0bb65a787af92737feb683f9a9d3896401fa",
        ".report.json": "3014ebc13b378c8eccd8f3b5e1a647f8cb14d9a9223f33612fb33d5d29adf959",
    },
    "estimate-csv-3d-auto": {
        "": "4dbc1d8f705c9238b500fb622048a87c20c21171df4f5ea01b87cc6ed278987d",
        ".report.json": "414b6ab4b04e38374bd2b2b16301d55d8cccf661d6c9ce65d7340e6570d03638",
    },
    "estimate-json-2d-auto": {
        "": "91be93ce7c60e94af878cef0826e594727ed1e3c79573bfe91ab055dbd865cc8",
        ".report.json": "c5b6b0585ed44d5b95db5c42f28e8ecb6079678db77340fcf83c45e505933d05",
    },
    "estimate-json-3d-k-rho": {
        "": "f72dd8b0a144fcbb92ee6ee949183b53aa852d17ad169a601f4486a5a38c78e1",
        ".report.json": "d8cb4e4f890a63611cfce461b393612ed16324eff59f45d57da927e338429121",
    },
    "estimate-json-4d": {
        "": "c8299687745ea9d7891ee47e4bbda5605c96f14d2d254c0acaf830cc7317fa50",
        ".report.json": "3d9850fb5a54284d8e3b6a1882c73ebc535c1d7c7c9c9b5934fc57f6839efe8f",
    },
    "flag-csv-2d-auto": {
        "": "d65faee6116ef786caf780ad09de9f49f4a081fa2c510dbd7487973ea2023760",
    },
    "flag-csv-3d": {
        # row 791 lies on its own threshold b in coordinate 1, where its
        # weight is exactly 1 and maps back to b exactly: alpha_z counts
        # 2897 rows beyond it, not 2898
        "": "7582efcd935945f04da88429004ec817cd6c1806f2ef53e6406859d5109d536a",
    },
    "flag-json-2d": {
        "": "401ae395fa86201166ae1132e45ffc10f664776f134ccc12ea405a25c59623ec",
    },
    "flag-json-3d-center": {
        "": "7b780c82610fe03c88d3dab8728c88ffda5c1d30334f94be6626c5e450a93662",
    },
    "mc-study-2d": {
        # replicate 1 fails with "HeavyTailError: marginal 1 has tail index
        # -0.1568... <= 0": marginals are numbered from 1 in messages
        ".replicates.csv": "a71f039672973529e4a099761d2ae6bb4e37a3d9d8317fd4136bce0b5330ad82",
        ".rho.csv": "623fb2186c86328e4e1314259b42c017a90642bcede0ef4fdd970d77ef656bd5",
        ".bands.csv": "18bd7beeeeb903225f74c24072724422e3863c71a1474b549833eb15f661c0e5",
        ".summary.json": "50a30a4abf5a1cec1089e82019eadf1b19b2cad2e1ceecbe74984bb32eacf272",
    },
    "mc-study-3d": {
        ".replicates.csv": "98fcf64c52018621c9b3a011842a2400ac2339384117cf06e01b516a903e9f3c",
        ".rho.csv": "f41c4c1d9683048a69a1fcd2d6f1eda2c730c211cf3d6f8137b2946ce76a4509",
        ".bands.csv": "41f051db852f9db29bbd015b4613ca3fa1e9465312654c3bb59ac9a5f5ee1861",
        ".summary.json": "819023e74d242dd2a1d66b561f6c0dfedbce6df0b95193075fd389015704ddec",
    },
    "oracle-csv-3d": {
        "": "d6818963f8f0d99ec1c7882bc01a2ef4528366a8c356f4c690d30040037f6c3b",
    },
    "oracle-json-2d": {
        "": "50ae51f1b4672089e1eb50a32fb35e584019d8f16466b8ea13c866d82e46ec28",
    },
    "oracle-json-k1": {
        "": "1b4a6bf80fde5d85b957b5f19586b93f194fb53900e66129647844ed5c305319",
    },
    "rotate-csv-3d": {
        "": "ad8b3623224876497667f2a67dc4faae207bdf78480c54365974b35b26c29010",
    },
    "rotate-json-2d": {
        "": "f82e0d491d997ac47bbb16fbb8fcb0ceab2f495090e1e397ddcf28a064ae93cb",
    },
    "select-k-2d": {
        "": "6a419976e46332646fb89d389c94656db5ad2cb01d174c957676cf572a441ee7",
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
    # every JSON file is the one line of json.dumps and a newline: each
    # .json suffix, and --output itself unless the command writes CSV
    writes_csv = argv[0] == "simulate-t" or "csv" in argv
    for s in BYTE_DIGESTS[name]:
        if s.endswith(".json") or (s == "" and not writes_csv):
            text = (tmp_path / ("out" + s)).read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), allow_nan=False) + "\n"
