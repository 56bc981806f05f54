import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dirquant import (
    DataError,
    InversionError,
    asymptotic_quantile,
    diagonal_direction,
    flag_outliers,
    sample_t,
)
from dirquant import cli, tmodel
from dirquant.cli import (
    main,
    parse_alpha,
    parse_csv,
    parse_direction,
    surface_doc_from_csv,
    surface_doc_to_csv,
)

MU2 = "0,0"
SIG2 = "5,0.1,0.1,1"


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
        out = tmp_path / "surf.json"
        rc = main(["estimate", "--input", data_csv, "--has-header",
                   "--alpha", "1/1500", "--k", "150", "--grid", "6",
                   "--output", str(out)])
        assert rc == 0
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
        assert calls == {"theoretical_rho": 9, "theoretical_norm_sequences": 3}
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
        assert main(args + ["--output", str(p2), "--workers", "2"]) == 0
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
        real = cli.asymptotic_quantile
        calls = []

        def fail_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise InversionError("bisection did not converge")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "asymptotic_quantile", fail_first)
        prefix = tmp_path / "mc"
        assert main(["mc-study", "--mu", MU2, "--sigma", SIG2, "--nu", "3",
                     "--n", "2000", "--replicates", "3", "--k", "100",
                     "--grid", "4", "--seed", "41", "--output", str(prefix)]) == 0
        summary = json.loads((tmp_path / "mc.summary.json").read_text())
        assert summary["failed_replicates"] == [
            {"replicate": 0, "error": "InversionError: bisection did not converge"}
        ]
        assert summary["valid_replicates"] == 2

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
        # select-k has no --workers: a file value for it would be ignored
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"input={data_csv}\nhas-header=true\nworkers=8\n")
        out = tmp_path / "k.json"
        assert main(["select-k", "--config", str(cfgfile), "--b1", "40",
                     "--output", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "'workers' is not an option of select-k" in err["message"]
        assert not out.exists()


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

    @pytest.mark.parametrize("command", ["select-k", "estimate", "flag"])
    def test_workers_flag_only_on_mc_study(self, command, data_csv):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", data_csv, "--workers", "2"])
        assert exc.value.code == 2

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
