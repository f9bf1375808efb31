"""Command-line behavior: exit codes, config handling, artifacts, determinism.

Commands run in-process through main(argv), so files and exit codes can be
asserted without subprocess overhead.  The conventions under test: exit 0
when all checks pass, 2 when a check fails, 1 on usage or configuration
errors; every command echoes its effective configuration beside the outputs,
and rerunning on the echo reproduces the artifacts byte for byte.
"""

import json
import os
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from sampled import faulty_copy

from fracspde.cli import main
from fracspde.config import (
    SimulationConfig,
    from_mapping,
    initial_data,
    parse_config_text,
    serialize_mapping,
    to_picard_config,
)
import fracspde.gronwall
import fracspde.picard
import fracspde.regularity
from fracspde.picard import build_geometry
from fracspde.report import inputs_digest


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfigFormat:
    def test_default_round_trip(self):
        cfg = SimulationConfig()
        again = from_mapping(parse_config_text(serialize_mapping(asdict(cfg))))
        assert again == cfg

    def test_override_round_trip(self):
        cfg = from_mapping(
            {
                "equation": "heat",
                "hurst": 0.41,
                "T": 0.3,
                "dt": 0.003,
                "u0": "holder-sample",
                "out": "runs/heat run",
            }
        )
        again = from_mapping(parse_config_text(serialize_mapping(asdict(cfg))))
        assert again == cfg

    def test_dt_canonicalized_to_exact_divisor(self):
        cfg = from_mapping({"T": 0.5, "dt": 0.001})
        assert cfg.n_steps == 500
        assert cfg.dt * cfg.n_steps == cfg.T

    def test_scalar_typing(self):
        mapping = parse_config_text(
            'a = true\nb = -3\nc = 2.5e-1\nd = "quoted # text"\ne = bare\n'
        )
        assert mapping == {"a": True, "b": -3, "c": 0.25, "d": "quoted # text", "e": "bare"}

    def test_comments_and_blank_lines(self):
        mapping = parse_config_text("# header\n\nseed = 4  # trailing\n")
        assert mapping == {"seed": 4}

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="config line 2"):
            parse_config_text("a = 1\nnonsense\n")
        with pytest.raises(ValueError, match="duplicate key"):
            parse_config_text("a = 1\na = 2\n")
        with pytest.raises(ValueError, match="bad key"):
            parse_config_text("9lives = 1\n")
        with pytest.raises(ValueError, match="unterminated"):
            parse_config_text('a = "oops\n')
        with pytest.raises(ValueError, match="missing value"):
            parse_config_text("a =\n")

    def test_serialize_quotes_ambiguous_strings(self):
        text = serialize_mapping({"a": "1.5", "b": "two words", "c": "plain"})
        assert parse_config_text(text) == {"a": "1.5", "b": "two words", "c": "plain"}

    def test_field_validation_names_the_field(self):
        for mapping, fragment in [
            ({"hurst": 0.2}, "hurst"),
            ({"equation": "beam"}, "equation"),
            ({"dt": 0.3, "T": 0.5}, "whole number"),
            ({"xi_max": 1e6}, "unknown config key"),
            ({"u0": "ramp"}, "u0"),
            ({"ensemble": 0}, "ensemble"),
            ({"seed": -1}, "seed"),
            ({"zzz": 1}, "unknown config key"),
            ({"ensemble": 2.0}, "ensemble must be an integer"),
            ({"hurst": "big"}, "hurst must be a number"),
        ]:
            with pytest.raises(ValueError, match=fragment):
                from_mapping(mapping)

    def test_initial_data_const_with_velocity(self):
        cfg = from_mapping({"u0": "const:0.7", "v0": 0.25})
        init = initial_data(cfg)
        x = np.linspace(-1.0, 1.0, 5)
        assert np.allclose(init.u0(x), 0.7)
        assert np.allclose(init.v0(x), 0.25)

    def test_initial_data_holder_sample(self):
        cfg = from_mapping({"u0": "holder-sample", "seed": 3})
        init = initial_data(cfg)
        vals = init.u0(np.array([0.0, 0.5]))
        assert vals[0] == 0.0 and vals[1] != 0.0

    def test_to_picard_config(self):
        cfg = from_mapping({"equation": "heat", "T": 0.25, "dt": 0.015625, "sigma_a": 0.0})
        pc = to_picard_config(cfg)
        assert pc.equation == "heat"
        assert pc.n_steps == 16
        assert pc.sigma.a == 0.0 and pc.sigma.b == cfg.sigma_b
        assert pc.max_iters == cfg.max_iters


class TestExitCodes:
    def test_missing_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["picard", "--frobnicate"]) == 1
        assert "unrecognized" in capsys.readouterr().err

    def test_hurst_out_of_range_is_config_error(self, tmp_path, capsys):
        code = main(["picard", "--equation", "wave", "--hurst", "0.2", "--out", str(tmp_path)])
        assert code == 1
        assert "hurst" in capsys.readouterr().err

    def test_unknown_config_key_for_command(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g = const\n")
        assert main(["picard", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_density_spec_is_config_error(self, tmp_path, capsys):
        assert main(["gronwall", "--g", "exp:2", "--out", str(tmp_path)]) == 1
        assert "density" in capsys.readouterr().err

    def test_failing_check_exits_two(self, tmp_path):
        code = main(
            ["verify-identities", "--hurst", "0.3", "--tol", "1e-15", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_report_on_non_report_file(self, tmp_path, capsys):
        bad = tmp_path / "x.json"
        bad.write_text('{"not": "a list"}')
        code = main(["report", "--input", str(bad), "--format", "csv",
                     "--output", str(tmp_path / "y.csv")])
        assert code == 1
        assert "not a report file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("gronwall", "n_max = 40.9\n", "n_max must be an integer, got 40.9"),
            ("gronwall", "k = true\n", "k must be an integer, got True"),
            ("verify-kernels", "T = true\n", "T must be a number, got True"),
        ],
    )
    def test_mistyped_config_value_rejected(self, tmp_path, capsys, command, config, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["verify-identities", "verify-kernels", "peszat", "simulate", "holder", "gronwall"]
    )
    def test_threads_only_where_a_pool_runs(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--threads", "2", "--out", str(out)]) == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()

    def test_divergence_exits_three(self, tmp_path, capsys):
        # the overflow reaches the single sweep's residual and the second
        # Picard iterate of a partial and of a full engine batch as nan
        base = ["picard", "--T", "0.25", "--dt", "0.015625", "--dx", "0.015625",
                "--sigma-a", "1e308", "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for extra, n in (([], 1), (["--ensemble", "3"], 2), (["--ensemble", "4"], 2)):
                assert main(base + extra) == 3
                assert capsys.readouterr().err == (
                    f"FAIL picard-divergence: non-finite delta nan at iteration {n}\n"
                )

    def test_overflowing_gronwall_sequence_rejected(self, tmp_path, capsys):
        code = main(["gronwall", "--g", "power:-0.7", "--n-max", "600", "--out", str(tmp_path)])
        assert code == 1
        assert "overflows a float at n = 600" in capsys.readouterr().err
        assert not (tmp_path / "a_n.csv").exists()

    def test_moments_single_realization_rejected(self, tmp_path, capsys):
        assert main(["moments", "--ensemble", "1", "--out", str(tmp_path)]) == 1
        assert "at least 2 realizations" in capsys.readouterr().err

    def test_moment_order_below_two_rejected(self, tmp_path, capsys):
        assert main(["moments", "--p", "1", "--out", str(tmp_path)]) == 1
        assert "p must be at least 2" in capsys.readouterr().err

    def test_moments_without_noise_rejected(self, tmp_path, capsys):
        code = main(["moments", "--sigma-a", "0", "--sigma-b", "0", "--ensemble", "20",
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: moments needs a noise term; sigma_a = sigma_b = 0 leaves u = w\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["verify-kernels", "simulate"])
    def test_integer_beyond_float_range_rejected(self, tmp_path, capsys, command):
        # verify-kernels converts in the settings path, simulate in from_mapping
        cfg = tmp_path / "run.cfg"
        cfg.write_text("T = 1" + "0" * 400 + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: T is too large for a float\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["picard", "--T", "inf"], "T must be a positive finite float, got inf"),
            (["picard", "--L", "inf"], "L must be a positive finite float, got inf"),
            (
                ["picard", "--T", "1e308", "--dt", "1e-308"],
                "dt must divide T into a whole number of steps, got T/dt = inf",
            ),
            (["verify-kernels", "--T", "inf"], "T must be a finite number, got inf"),
            (["gronwall", "--T", "inf"], "T must be a finite number, got inf"),
        ],
        ids=["picard-T", "picard-L", "picard-T-over-dt", "verify-kernels-T", "gronwall-T"],
    )
    def test_non_finite_setting_rejected(self, tmp_path, capsys, argv, message):
        # SimulationConfig refuses it for picard, the settings type rule for
        # the others; neither lets a warning or a traceback through
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gronwall", "--T", "0"], "T must be positive"),
            (["gronwall", "--m0", "-1"], "M0 and M1 must be nonnegative"),
            (["gronwall", "--g", "power:-1"], "power exponent must exceed -1"),
            (["gronwall", "--k", "0"], "k must be at least 1"),
            (["holder", "--ensemble", "10"], "ensemble = 10 is below"),
            (["moments", "--p", "1"], "p must be at least 2, got 1"),
            (["peszat", "--hurst", "0.7"], "got 0.7"),
            (["verify-identities", "--hurst", "0.7"], "hurst must lie in the open interval"),
        ],
        ids=["gronwall-T", "gronwall-m0", "gronwall-g", "gronwall-k", "holder-ensemble",
             "moments-p", "peszat-hurst", "verify-identities-hurst"],
    )
    def test_refused_run_writes_nothing(self, tmp_path, capsys, argv, message):
        # settings and computation are checked before the output directory
        # is made, so not even the config echo is left behind
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestVerifySuites:
    def test_identities_rows_and_report(self, tmp_path):
        out = tmp_path / "ids"
        assert main(["verify-identities", "--hurst", "0.3", "--out", str(out)]) == 0
        rows = json.loads(read(out / "identities.json"))
        assert {row["g"] for row in rows} == {"gaussian", "tent", "indicator"}
        for row in rows:
            assert set(row) == {"g", "h", "lhs", "rhs", "rel_err", "pass"}
            assert row["pass"] is True
        gauss = next(r for r in rows if r["g"] == "gaussian")
        assert abs(gauss["lhs"] - 0.93832) < 1e-4
        report = json.loads(read(out / "report.json"))
        assert len(report) == 3 and all(r["pass"] for r in report)

    def test_identities_csv_format(self, tmp_path):
        out = tmp_path / "ids"
        code = main(
            ["verify-identities", "--hurst", "0.3", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        lines = read(out / "identities.csv").splitlines()
        assert lines[0] == "g,h,lhs,rhs,rel_err,pass"
        assert len(lines) == 4

    def test_kernels_suite_passes(self, tmp_path):
        out = tmp_path / "ker"
        assert main(["verify-kernels", "--out", str(out)]) == 0
        report = json.loads(read(out / "report.json"))
        # 13 checks per equation: 3 alphas x 3 comparisons + 4 singles
        assert len(report) == 26
        assert all(r["pass"] for r in report)

    def test_kernels_alpha_validation(self, tmp_path, capsys):
        assert main(["verify-kernels", "--alpha", "1.5", "--out", str(tmp_path)]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_peszat_probes(self, tmp_path):
        out = tmp_path / "pz"
        assert main(["peszat", "--hurst", "0.3", "--out", str(out)]) == 0
        lines = read(out / "probes.csv").splitlines()
        assert lines[0] == "h,eta,value"
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert values == sorted(values) and len(values) == 4


class TestSimulate:
    ARGS = ["simulate", "--equation", "heat", "--hurst", "0.35", "--T", "0.25",
            "--dt", "0.015625", "--dx", "0.015625", "--L", "0.5", "--seed", "9"]

    def test_container_round_trip(self, tmp_path):
        out = tmp_path / "sim"
        assert main(self.ARGS + ["--save-noise", "noise.bin", "--out", str(out)]) == 0
        z = np.load(out / "noise.bin")
        cfg = from_mapping(parse_config_text(read(out / "effective-config.txt")))
        geom = build_geometry(to_picard_config(cfg))
        assert z.dtype == np.complex128
        assert z.shape == (16, geom.n_bands)

    def test_save_noise_makes_its_directory(self, tmp_path):
        top = tmp_path / "top"
        nested = tmp_path / "nested"
        assert main(self.ARGS + ["--save-noise", "n.npy", "--out", str(top)]) == 0
        assert main(self.ARGS + ["--save-noise", "sub/n.npy", "--out", str(nested)]) == 0
        assert read_bytes(nested / "sub" / "n.npy") == read_bytes(top / "n.npy")

    def test_saved_noise_is_what_picard_draws(self, tmp_path, monkeypatch):
        first = tmp_path / "sim"
        assert main(self.ARGS + ["--save-noise", "noise.npy", "--out", str(first)]) == 0
        saved = np.load(first / "noise.npy")

        drawn = []
        draw = fracspde.picard.spectral_increments

        def record(*args, **kwargs):
            drawn.append(draw(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(fracspde.picard, "spectral_increments", record)
        echo = parse_config_text(read(first / "effective-config.txt"))
        echo["out"] = str(tmp_path / "run")
        cfg = tmp_path / "again.cfg"
        cfg.write_text(serialize_mapping(echo))
        assert main(["picard", "--config", str(cfg)]) == 0
        assert len(drawn) == 1
        assert np.array_equal(saved, drawn[0])

    def test_effective_config_resolves_cutoff(self, tmp_path):
        # the echoed settings rebuild the lattice whose cutoff the checks used
        out = tmp_path / "sim"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        echo = parse_config_text(read(out / "effective-config.txt"))
        geom = build_geometry(to_picard_config(from_mapping(echo)))
        report = json.loads(read(out / "report.json"))
        assert geom.xi_cut > 0.0
        # the check points are L/4, L/2 and L, here with L = 0.5
        assert len(report) == 3
        for row, x in zip(report, (0.125, 0.25, 0.5)):
            inputs = {"h": 0.35, "x": x, "xi_cut": geom.xi_cut, "n_bands": geom.n_bands}
            assert row["inputs_digest"] == inputs_digest(inputs)

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    def test_defaults_pass_and_echo_the_run_record(self, tmp_path, equation):
        out = tmp_path / "sim"
        assert main(["simulate", "--equation", equation, "--out", str(out)]) == 0
        echo = parse_config_text(read(out / "effective-config.txt"))
        assert from_mapping(echo) == SimulationConfig(equation=equation, out=str(out))
        report = json.loads(read(out / "report.json"))
        assert [r["check_name"] for r in report] == [
            "noise-variance-bias-x0.25", "noise-variance-bias-x0.5", "noise-variance-bias-x1",
        ]
        assert not (out / "noise.npy").exists()

    def test_small_window_checks_inside_the_window(self, tmp_path):
        # at L = 0.25 the wave lattice has period n_fft * dx = 1, where a check
        # at x = 1 would see only band 0; the points follow L instead
        out = tmp_path / "sim"
        assert main(["simulate", "--L", "0.25", "--T", "0.0625", "--out", str(out)]) == 0
        echo = parse_config_text(read(out / "effective-config.txt"))
        geom = build_geometry(to_picard_config(from_mapping(echo)))
        assert geom.n_fft * geom.dx == 1.0
        report = json.loads(read(out / "report.json"))
        assert [r["check_name"] for r in report] == [
            "noise-variance-bias-x0.0625", "noise-variance-bias-x0.125", "noise-variance-bias-x0.25",
        ]
        assert all(r["pass"] for r in report)


class TestPicardCommand:
    def run_args(self, out, extra=()):
        return [
            "picard", "--T", "0.25", "--dt", "0.015625", "--dx", "0.015625",
            "--seed", "5", "--out", str(out), *extra,
        ]

    def test_single_run_artifacts(self, tmp_path):
        out = tmp_path / "single"
        assert main(self.run_args(out)) == 0
        lines = read(out / "field.csv").splitlines()
        assert lines[0] == "t,x,value"
        t, x, v = lines[1].split(",")
        assert float(t) == 0.0 and float(x) == -1.0 and float(v) == 0.0
        diag = json.loads(read(out / "diagnostics.json"))
        assert not {"n_iters", "converged", "deltas"} & set(diag)
        assert 0.0 <= diag["fixed_point_residual"] <= diag["stopping_threshold"]
        assert diag["pathwise_x2_seminorm"] > 0.0
        report = json.loads(read(out / "report.json"))
        assert [r["check_name"] for r in report] == ["picard-fixed-point-residual"]
        assert report[0]["computed"] == diag["fixed_point_residual"]
        assert not (out / "report.svg").exists()

    @pytest.mark.parametrize("equation", ["wave", "heat"])
    @pytest.mark.parametrize("fault", ["weight", "slab"])
    def test_residual_check_catches_a_faulty_sweep(
        self, tmp_path, monkeypatch, capsys, equation, fault
    ):
        # a streamed sweep whose stochastic term is 1% high, or whose row
        # j + 1 is fed by slab j - 1, is no fixed point of picard_step
        old, new = {
            "weight": ("np.fft.irfft(add(", "1.01 * np.fft.irfft(add("),
            "slab": ("sigma(rows[i, 1]) * eta[i]", "sigma(rows[i, 1]) * eta[i - 1]"),
        }[fault]
        faulty = faulty_copy(fracspde.picard._sweep_rows, old, new)
        monkeypatch.setattr(fracspde.picard, "_sweep_rows", faulty)
        out = tmp_path / "single"
        assert main(self.run_args(out, ["--equation", equation])) == 2
        assert "FAIL picard-fixed-point-residual" in capsys.readouterr().out
        report = json.loads(read(out / "report.json"))
        assert [r["pass"] for r in report] == [False]

    def test_ensemble_thread_invariance(self, tmp_path):
        serial = tmp_path / "t1"
        pooled = tmp_path / "t3"
        extra = ["--ensemble", "7", "--max-iters", "3"]
        assert main(self.run_args(serial, extra + ["--threads", "1"])) == 0
        assert main(self.run_args(pooled, extra + ["--threads", "3"])) == 0
        for name in ("deltas.csv", "report.json"):
            assert read_bytes(serial / name) == read_bytes(pooled / name)

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nT = 0.25\ndt = 0.015625\ndx = 0.03125\nmax_iters = 6\n")
        out = tmp_path / "run"
        code = main(["picard", "--config", str(cfg), "--seed", "2", "--out", str(out)])
        assert code == 0
        echo = parse_config_text(read(out / "effective-config.txt"))
        assert echo["seed"] == 2
        assert echo["max_iters"] == 6

    def test_echo_reproduces_run(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(self.run_args(first, ["--ensemble", "5", "--max-iters", "3"])) == 0
        echo = parse_config_text(read(first / "effective-config.txt"))
        echo["out"] = str(second)
        cfg = tmp_path / "again.cfg"
        cfg.write_text(serialize_mapping(echo))
        assert main(["picard", "--config", str(cfg)]) == 0
        assert read_bytes(first / "deltas.csv") == read_bytes(second / "deltas.csv")


class TestEchoReproducesEveryCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-identities", "--hurst", "0.3", "0.4"],
            ["verify-kernels", "--equation", "heat", "--T", "0.5", "--alpha", "0.2"],
            ["peszat", "--hurst", "0.35", "--eta", "1", "10", "100"],
            ["gronwall", "--g", "power:-0.5", "--n-max", "30", "--k", "2",
             "--mc-samples", "5000", "--seed", "3"],
            ["holder", "--target", "noise", "--ensemble", "1000", "--seed", "4"],
            ["simulate", "--hurst", "0.4", "--T", "0.25", "--dt", "0.015625",
             "--seed", "2"],
            # --format and --p are settings: the echo carries them when given
            pytest.param(["verify-identities", "--hurst", "0.3", "--format", "csv"],
                         id="verify-identities-csv"),
            pytest.param(["moments", "--equation", "heat", "--T", "0.125", "--dt", "0.0078125",
                          "--dx", "0.03125", "--L", "0.5", "--u0", "const:0.7", "--sigma-a", "0",
                          "--p", "2", "--ensemble", "40", "--max-iters", "3", "--seed", "7"],
                         id="moments-p2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_echo_reproduces_run(self, tmp_path, argv):
        first = tmp_path / "first"
        second = tmp_path / "second"
        code = main(argv + ["--out", str(first)])
        echo = parse_config_text(read(first / "effective-config.txt"))
        echo["out"] = str(second)
        cfg = tmp_path / "again.cfg"
        cfg.write_text(serialize_mapping(echo))
        assert main([argv[0], "--config", str(cfg)]) == code
        assert parse_config_text(read(second / "effective-config.txt")) == echo
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(second))
        for name in names:
            if name != "effective-config.txt":
                assert read_bytes(first / name) == read_bytes(second / name), name


class TestFitCommands:
    def test_holder_noise_artifacts(self, tmp_path):
        out = tmp_path / "hold"
        code = main(
            ["holder", "--target", "noise", "--hurst", "0.3", "--ensemble", "1000",
             "--seed", "23", "--out", str(out)]
        )
        assert code == 0
        lines = read(out / "holder-noise-space.csv").splitlines()
        assert lines[0] == "lag,lattice_exact,completion,lattice_mc,mc_stderr,z"
        assert len(lines) == 6
        for line in lines[1:]:
            lag, exact, completion, mc, stderr, z = map(float, line.split(","))
            assert exact > 0.0 and completion > 0.0 and stderr > 0.0
            assert abs(z) <= 4.0
        summary = json.loads(read(out / "holder.json"))
        assert summary["space"]["status"] == "ok"
        assert abs(summary["space"]["fitted_slope"] - 0.6) < 0.1
        assert summary["space"]["sampler_max_abs_z"] <= 4.0
        assert (out / "report.svg").exists()
        names = [r["check_name"] for r in json.loads(read(out / "report.json"))]
        assert names == ["holder-noise-space-slope", "holder-noise-space-sampler"]

    def test_holder_default_ensemble_is_echoed(self, tmp_path):
        assert main(["holder", "--target", "noise", "--out", str(tmp_path)]) == 0
        echo = parse_config_text(read(tmp_path / "effective-config.txt"))
        assert echo["ensemble"] == 128

    def test_holder_sampler_fault_exits_two(self, tmp_path, monkeypatch, capsys):
        # every band variance 5% high: the slope cannot see a scale factor,
        # the sampler check does
        true_increments = fracspde.regularity.spectral_increments
        monkeypatch.setattr(
            fracspde.regularity, "spectral_increments",
            lambda masses, dt, n, rng: true_increments(1.05 * masses, dt, n, rng),
        )
        assert main(["holder", "--target", "noise", "--out", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert "PASS holder-noise-space-slope" in out
        assert "FAIL holder-noise-space-sampler" in out

    def test_holder_rejects_small_ensembles(self, tmp_path, capsys):
        code = main(
            ["holder", "--target", "noise", "--ensemble", "50", "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "realizations" in err
        assert "ensemble = 50" in err

    def test_moments_thread_invariance(self, tmp_path):
        argv = ["moments", "--equation", "heat", "--T", "0.125", "--dt", "0.0078125",
                "--dx", "0.03125", "--L", "0.5", "--u0", "const:0.7", "--ensemble", "500",
                "--max-iters", "3", "--seed", "7"]
        assert main(argv + ["--threads", "1", "--out", str(tmp_path / "t1")]) == 0
        assert main(argv + ["--threads", "2", "--out", str(tmp_path / "t2")]) == 0
        for name in ("moments.csv", "report.json"):
            assert read_bytes(tmp_path / "t1" / name) == read_bytes(tmp_path / "t2" / name)

    def test_moments_artifacts(self, tmp_path):
        out = tmp_path / "mom"
        code = main(
            ["moments", "--equation", "heat", "--T", "0.125", "--dt", "0.0078125",
             "--dx", "0.03125", "--L", "0.5", "--u0", "const:0.7", "--ensemble", "500",
             "--max-iters", "3", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        lines = read(out / "moments.csv").splitlines()
        assert lines[0] == "p,sup_moment,stderr"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [2, 4]
        report = json.loads(read(out / "report.json"))
        assert {r["check_name"] for r in report} == {
            "moment-p2-grid-sup-stability",
            "moment-p4-grid-sup-stability",
        }

    def test_moments_sup_leaves_out_the_datum(self, tmp_path):
        # u(0, x) = u0(x) carries no randomness: with a holder-sample datum
        # the sup of E|u|^p must come from a later time, with a spread
        out = tmp_path / "mom"
        code = main(
            ["moments", "--equation", "heat", "--T", "0.125", "--dt", "0.0078125",
             "--dx", "0.03125", "--L", "0.5", "--u0", "holder-sample", "--ensemble", "200",
             "--max-iters", "3", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        for line in read(out / "moments.csv").splitlines()[1:]:
            _, sup, stderr = (float(v) for v in line.split(","))
            assert stderr > 1e-3 * sup

    def test_moments_runs_its_ensemble_once(self, tmp_path, monkeypatch):
        # with sigma_a = 0 the Gaussian ratio check reads the first
        # increments off the main pass: no second pass over the realizations,
        # so each realization's noise is drawn once
        calls = []
        draw = fracspde.picard._noise_rows

        def counted(geom, seed, realizations):
            calls.extend(realizations)
            return draw(geom, seed, realizations)

        monkeypatch.setattr(fracspde.picard, "_noise_rows", counted)
        out = tmp_path / "mom"
        code = main(
            ["moments", "--equation", "heat", "--T", "0.125", "--dt", "0.0078125",
             "--dx", "0.03125", "--L", "0.5", "--u0", "const:0.7", "--sigma-a", "0",
             "--p", "2", "--ensemble", "40", "--max-iters", "3", "--seed", "7",
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads(read(out / "report.json"))
        assert "gaussian-p4-p2-ratio" in {r["check_name"] for r in report}
        assert sorted(calls) == list(range(40))


class TestGronwallCommand:
    def test_default_run_passes_and_is_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["gronwall", "--out", str(a)]) == 0
        assert main(["gronwall", "--out", str(b)]) == 0
        assert read_bytes(a / "a_n.csv") == read_bytes(b / "a_n.csv")
        assert read_bytes(a / "report.json") == read_bytes(b / "report.json")
        lines = read(a / "a_n.csv").splitlines()
        assert lines[1] == "0,1" and lines[2] == "1,1" and lines[3] == "2,2"

    def test_exact_uniform_row_present(self, tmp_path):
        out = tmp_path / "gw"
        assert main(["gronwall", "--k", "4", "--out", str(out)]) == 0
        report = json.loads(read(out / "report.json"))
        row = next(r for r in report if r["check_name"] == "gronwall-hitting-exact-uniform")
        assert abs(row["computed"] - 1.0 / 24.0) < 1e-3

    @pytest.mark.parametrize("spec", ["const", "const:3", "power:-0.7"])
    def test_closed_form_densities_carry_a_passing_certificate(self, tmp_path, spec):
        # the certificate sits beside the partial-sum verdict, which still
        # judges const:3 and power:-0.7 by their first n_max terms only
        out = tmp_path / "gw"
        code = main(["gronwall", "--g", spec, "--out", str(out)])
        verdicts = {r["check_name"]: r["pass"] for r in json.loads(read(out / "report.json"))}
        assert verdicts["gronwall-root-summability-certificate"] is True
        tail = verdicts["gronwall-root-summability-tail"]
        assert code == (0 if tail else 2)
        assert tail is (spec == "const")

    def test_certificate_catches_a_hitting_probability_of_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(fracspde.gronwall, "_log_hitting_exact", lambda e, k: 0.0)
        assert main(["gronwall", "--out", str(tmp_path / "gw")]) == 2
        assert "FAIL gronwall-root-summability-certificate" in capsys.readouterr().out

    def test_table_density_from_csv(self, tmp_path):
        dens = tmp_path / "dens.csv"
        dens.write_text("0.0,0.5\n0.5,1.0\n1.0,0.25\n")
        out = tmp_path / "gwt"
        code = main(["gronwall", "--g", f"table:{dens}", "--k", "2", "--out", str(out)])
        assert code == 0
        names = {r["check_name"] for r in json.loads(read(out / "report.json"))}
        assert "gronwall-root-summability-certificate" not in names


class TestReportCommand:
    def test_rerender_round_trip(self, tmp_path):
        out = tmp_path / "ker"
        assert main(["verify-kernels", "--equation", "wave", "--out", str(out)]) == 0
        src = out / "report.json"
        again = tmp_path / "again.json"
        code = main(["report", "--input", str(src), "--format", "json",
                     "--output", str(again)])
        assert code == 0
        assert read_bytes(src) == read_bytes(again)

    def test_rerender_to_csv(self, tmp_path):
        out = tmp_path / "pz"
        assert main(["peszat", "--hurst", "0.3", "--out", str(out)]) == 0
        dest = tmp_path / "checks.csv"
        code = main(["report", "--input", str(out / "report.json"), "--format", "csv",
                     "--output", str(dest)])
        assert code == 0
        lines = read(dest).splitlines()
        assert lines[0].startswith("check_name,")
        assert len(lines) == 2
