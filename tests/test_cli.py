"""Tests for the command-line front end and config handling."""

import dataclasses
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from psed import ConfigurationError, SingularMatrixError, SweepConfig, generate_channel, rip_constant, rng_stream
from psed import cli
from psed import harness as harness_module
from psed import pipeline as pipeline_module
from psed.cli import build_sweep_config, main, parse_config_file
from tests.conftest import orthonormal_columns

README = Path(__file__).resolve().parents[1] / "README.md"
CONFIGS = README.parent / "configs"

# A valid, non-default text value for every sweep key.
KEY_VALUES = {
    "n_r": "16",
    "n_t": "12",
    "constellation": "bpsk",
    "detectors": "mf, psed-mf",
    "snr_db_grid": "3, 9",
    "trials": "7",
    "master_seed": "5",
    "psed.K": "3",
    "psed.L": "3",
    "psed.estimator": "lmmse",
    "psed.max_paths": "16",
    "kbest.m": "9",
    "workers": "2",
    "output": "run.csv",
}


def sweep_config(argv):
    return build_sweep_config(cli.build_parser().parse_args(["sweep-ser", *argv]))


class TestKeyTable:
    def test_every_key_has_a_sample_value(self):
        assert set(KEY_VALUES) == set(cli.CONFIG_KEYS)

    @pytest.mark.parametrize("key", sorted(KEY_VALUES))
    def test_file_and_flag_agree(self, tmp_path, key):
        path = tmp_path / "one.cfg"
        path.write_text(f"{key} = {KEY_VALUES[key]}\n")
        from_file = sweep_config(["--config", str(path)])
        assert from_file == sweep_config([f"--{key}", KEY_VALUES[key]])
        assert from_file != SweepConfig()

    def test_no_flags_gives_dataclass_defaults(self):
        assert sweep_config([]) == SweepConfig()

    def test_names_are_upper_cased(self):
        config = sweep_config(["--constellation", "bpsk", "--detectors", "mf,psed-mf", "--psed.estimator", "lmmse"])
        assert config.constellation == "BPSK"
        assert config.detectors == ("MF", "PSED-MF")
        assert config.psed.estimator == "LMMSE"

    @pytest.mark.parametrize("key, bad", [("trials", "many"), ("psed.K", "2.5"), ("snr_db_grid", "6,x")])
    def test_bad_value_exits_with_config_code(self, tmp_path, key, bad):
        assert main(["sweep-ser", f"--{key}", bad]) == 2
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {bad}\n")
        assert main(["sweep-ser", "--config", str(path)]) == 2

    def test_readme_lists_exactly_the_cli_keys(self):
        text = README.read_text(encoding="utf-8")
        table = text[text.index("| key | meaning | default |") :].split("\n\n", 1)[0]
        first_cells = [line.split("|")[1] for line in table.splitlines()[2:]]
        documented = [key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)]
        assert sorted(documented) == sorted(cli.CONFIG_KEYS)

    def test_readme_commands_and_committed_configs_parse(self):
        # a stale flag in a README example, or a stale key in a committed
        # config, fails here; the configs are only built, never run
        text = README.read_text(encoding="utf-8")
        block = text[text.index("## CLI") :].split("```bash\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("psed ")]
        assert commands
        for argv in commands:
            cli.build_parser().parse_args(argv)
        configs = sorted(CONFIGS.glob("*.cfg"))
        assert configs
        for path in configs:
            assert isinstance(sweep_config(["--config", str(path)]), SweepConfig)


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            """
# sweep setup
n_r = 16
n_t = 16            # square system
constellation = QPSK
detectors = LMMSE, PSED-LMMSE
snr_db_grid = 6, 10, 14
trials = 7
master_seed = 5
psed.K = 3
psed.L = 2
psed.estimator = LS
kbest.m = 9
workers = 1
"""
        )
        values = parse_config_file(str(path))
        assert values["n_r"] == "16"
        assert values["psed.K"] == "3"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_R = 16\n")
        assert main(["sweep-ser", "--config", str(path)]) == 2

    def test_repeated_key_rejected_naming_both_lines(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text("trials = 3\nn_r = 4\n# trials = 4\ntrials = 5\n")
        with pytest.raises(ConfigurationError, match=r"twice.cfg:4: key 'trials' is given twice, at lines 1 and 4$"):
            parse_config_file(str(path))
        output = tmp_path / "out.csv"
        assert main(["sweep-ser", "--config", str(path), "--trials", "2", "--output", str(output)]) == 2
        assert "lines 1 and 4" in capsys.readouterr().err
        assert not output.exists()

    def test_missing_file_rejected(self):
        assert main(["sweep-ser", "--config", "/no/such/file.cfg"]) == 2

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        path = tmp_path / "bare.cfg"
        path.write_text("n_r = 16\ntrials 3\n")
        with pytest.raises(ConfigurationError, match=r"bare.cfg:2: expected 'key = value', got 'trials 3'$"):
            parse_config_file(str(path))
        assert main(["sweep-ser", "--config", str(path)]) == 2
        assert "expected 'key = value'" in capsys.readouterr().err

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_r = 16\nn_t = 16\ntrials = 7\n")
        args = cli.build_parser().parse_args(
            ["sweep-ser", "--config", str(path), "--trials", "3"]
        )
        config = build_sweep_config(args)
        assert config.trials == 3
        assert config.n_r == 16

    def test_flag_overrides_named_shape_file(self):
        config = sweep_config(["--config", str(CONFIGS / "square32.cfg"), "--trials", "2"])
        assert (config.n_r, config.n_t) == (32, 32)
        assert config.trials == 2
        assert config.psed.bound_sparsity(config.n_t) == 4

    def test_preset_flag_refused(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep-ser", "--preset", "square32"])
        assert info.value.code == 2
        assert "--preset" in capsys.readouterr().err


SQUARE_GRID = (6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0)
TALL_GRID = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)


@pytest.mark.parametrize(
    "name, n_r, n_t, trials, grid",
    [
        ("square32", 32, 32, 10000, SQUARE_GRID),
        ("square64", 64, 64, 4000, SQUARE_GRID),
        ("square128", 128, 128, 1000, SQUARE_GRID),
        ("square256", 256, 256, 200, SQUARE_GRID),
        ("tall48x32", 48, 32, 10000, TALL_GRID),
        ("tall64x32", 64, 32, 10000, TALL_GRID),
        ("tall128x32", 128, 32, 10000, TALL_GRID),
    ],
)
def test_named_shape_file_sets_its_shape_only(name, n_r, n_t, trials, grid):
    # a shape file sets n_r, n_t, trials and snr_db_grid; every other field keeps its default
    want = dataclasses.replace(SweepConfig(), n_r=n_r, n_t=n_t, trials=trials, snr_db_grid=grid)
    assert sweep_config(["--config", str(CONFIGS / f"{name}.cfg")]) == want


class TestSweepCommands:
    def test_sweep_ser_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "ser.csv"
        code = main(
            [
                "sweep-ser",
                "--n_r", "8", "--n_t", "8",
                "--detectors", "LMMSE",
                "--snr_db_grid", "10,14",
                "--trials", "5",
                "--master_seed", "3",
                "--psed.K", "2",
                "--output", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "detector,n_r,n_t,snr_db,trials,symbol_errors,ser,mse,seed"
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "detectors, grid, repeat",
        [("LMMSE,lmmse", "10,14", "detectors lists 'LMMSE' twice"), ("LMMSE", "10,10", "snr_db_grid lists 10.0 twice")],
    )
    def test_repeated_detector_or_snr_point_is_config_error(self, tmp_path, capsys, detectors, grid, repeat):
        out = tmp_path / "ser.csv"
        argv = ["sweep-ser", "--n_r", "4", "--n_t", "4", "--trials", "2", "--detectors", detectors]
        assert main(argv + ["--snr_db_grid", grid, "--output", str(out)]) == 2
        assert repeat in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_ser_deterministic(self, tmp_path):
        argv = [
            "sweep-ser", "--n_r", "8", "--n_t", "8", "--detectors", "PSED-LMMSE",
            "--snr_db_grid", "12", "--trials", "6", "--master_seed", "9", "--psed.K", "2",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_mse_requires_bpsk(self, tmp_path):
        code = main(
            ["sweep-mse", "--n_r", "8", "--n_t", "8", "--trials", "2",
             "--constellation", "QPSK", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_sweep_mse_emits_analytic_columns(self, tmp_path):
        out = tmp_path / "mse.csv"
        code = main(
            ["sweep-mse", "--n_r", "8", "--n_t", "8", "--constellation", "BPSK",
             "--detectors", "LMMSE,PSED-LMMSE", "--snr_db_grid", "10",
             "--trials", "3", "--psed.K", "2", "--output", str(out)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.endswith("mse_conv_asymptotic,mse_psed_closed_form")

    def test_ml_dimension_guard_maps_to_config_error(self, tmp_path):
        code = main(
            ["sweep-ser", "--n_r", "16", "--n_t", "16", "--detectors", "ML",
             "--trials", "1", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_numerical_failure_exit_code_and_log(self, tmp_path, monkeypatch):
        def boom(config):
            raise SingularMatrixError("synthetic failure")

        monkeypatch.setattr(harness_module, "run_sweep", boom)
        out = tmp_path / "z.csv"
        code = main(
            ["sweep-ser", "--n_r", "8", "--n_t", "8", "--detectors", "LMMSE",
             "--trials", "1", "--output", str(out)]
        )
        assert code == 3
        assert not out.exists()  # only a sweep that completes leaves its output
        log = tmp_path / "z.csv.flagged.log"
        assert log.exists()
        assert "synthetic failure" in log.read_text()

    def test_flagged_trial_is_logged_and_sweep_succeeds(self, tmp_path, capsys, monkeypatch):
        # a singular recovery flags its trial; the sweep still completes and writes its CSV
        calls = []
        real_mmp = pipeline_module.sparse_recovery.mmp

        def singular_on_third_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:  # trial 1 at the first SNR point: calls go trial by trial, SNR by SNR
                raise SingularMatrixError("forced")
            return real_mmp(*args, **kwargs)

        monkeypatch.setattr(pipeline_module.sparse_recovery, "mmp", singular_on_third_call)
        out = tmp_path / "f.csv"
        argv = ["sweep-ser", "--n_r", "8", "--n_t", "8", "--detectors", "PSED-LMMSE", "--snr_db_grid", "10,14"]
        assert main([*argv, "--trials", "3", "--psed.K", "2", "--output", str(out)]) == 0
        assert len(calls) == 6
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [["PSED-LMMSE", "8", "8", "10"], ["PSED-LMMSE", "8", "8", "14"]]
        assert (tmp_path / "f.csv.flagged.log").read_text() == "PSED-LMMSE,10,1\n"
        assert "1 flagged trials logged to" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["sweep-ser"], ["sweep-mse", "--constellation", "BPSK"]],
        ids=["sweep-ser", "sweep-mse"],
    )
    def test_flagged_log_follows_default_output(self, tmp_path, monkeypatch, argv):
        def boom(config):
            raise SingularMatrixError("synthetic failure")

        monkeypatch.setattr(harness_module, "run_sweep", boom)
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--n_r", "8", "--n_t", "8", "--trials", "1"]) == 3
        assert [p.name for p in tmp_path.iterdir()] == [f"{argv[0]}.csv.flagged.log"]

    def test_sweep_mse_refuses_closed_form_point_before_trials(self, tmp_path, capsys, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran before the closed forms were checked")

        monkeypatch.setattr(harness_module, "_run_trial", no_trial)
        out = tmp_path / "mse.csv"
        argv = ["sweep-mse", "--n_r", "8", "--n_t", "8", "--constellation", "BPSK", "--snr_db_grid", "10,inf"]
        assert main([*argv, "--trials", "1", "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: snr ")
        assert not out.exists()


class TestComplexityCommand:
    def test_prints_reference_totals(self, capsys):
        assert main(["complexity", "--n_r", "32", "--n_t", "32", "--K", "4", "--L", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "detector,n_r,n_t,K,L,total"
        table = {line.split(",")[0]: line for line in out[1:]}
        assert table["MF"].endswith(",1024")
        assert table["LMMSE"].endswith(",77968")
        assert table["PSED-LMMSE"].endswith(",88096")

    def test_writes_csv(self, tmp_path):
        out = tmp_path / "complexity.csv"
        assert main(
            ["complexity", "--n_r", "64", "--n_t", "64", "--K", "9", "--L", "2",
             "--detectors", "LMMSE", "--output", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "LMMSE,64,64,,,617760"

    def test_psed_without_k_is_config_error(self):
        assert main(["complexity", "--n_r", "32", "--n_t", "32"]) == 2


class TestAnalyzeCommand:
    def test_values_match_library(self, tmp_path):
        import psed

        out = tmp_path / "curves.csv"
        assert main(["analyze", "--snr_db_grid", "10,20", "--beta", "1.0",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("snr_db,beta,sinr_infty,pe_bpsk")
        first = lines[1].split(",")
        snr = 10 ** (10.0 / 10.0)
        assert abs(float(first[2]) - psed.asymptotic_sinr(snr, 1.0)) < 1e-9
        assert abs(float(first[4]) - psed.mse_conv_asymptotic(snr, 1.0)) < 1e-9

    def test_overflow_is_numerical_failure(self, capsys):
        # snr = 1e-300: the closed-form floor snr^(-5/4) overflows
        assert main(["analyze", "--snr_db_grid=-3000"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1


class TestRipCommand:
    def test_loaded_matrix_with_zero_distortion(self, tmp_path, capsys):
        H = orthonormal_columns(12, 8, seed=3)
        path = tmp_path / "H.npy"
        np.save(path, H)
        out = tmp_path / "rip.csv"
        assert main(["rip", "--matrix", str(path), "--K", "2", "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "delta=" in printed
        row = out.read_text().splitlines()[1].split(",")
        assert int(row[0]) == 2
        assert float(row[1]) < 1e-12
        assert row[3] == "True"

    def test_non_finite_matrix_is_config_error(self, tmp_path):
        path = tmp_path / "nan.npy"
        np.save(path, np.full((8, 6), np.nan))
        assert main(["rip", "--matrix", str(path), "--K", "2"]) == 2

    def test_one_dimensional_matrix_is_config_error(self, tmp_path):
        path = tmp_path / "vector.npy"
        np.save(path, np.ones(6))
        assert main(["rip", "--matrix", str(path), "--K", "2"]) == 2

    def test_archive_or_text_array_is_config_error(self, tmp_path):
        np.savez(tmp_path / "two.npz", H=np.ones((8, 6)), G=np.ones((8, 6)))
        np.save(tmp_path / "text.npy", np.array([["a", "b"], ["c", "d"]]))
        assert main(["rip", "--matrix", str(tmp_path / "two.npz"), "--K", "2"]) == 2
        assert main(["rip", "--matrix", str(tmp_path / "text.npy"), "--K", "2"]) == 2

    def test_missing_matrix_file_is_config_error(self, tmp_path):
        assert main(["rip", "--matrix", str(tmp_path / "absent.npy"), "--K", "2"]) == 2

    def test_generated_matrix_budget_guard(self):
        # C(64, 8) blows the exhaustive budget -> configuration error exit
        assert main(["rip", "--n_r", "32", "--n_t", "64", "--seed", "1", "--K", "8"]) == 2

    def test_generated_channel_line_and_csv(self, tmp_path, capsys):
        out = tmp_path / "rip.csv"
        assert main(["rip", "--n_r", "16", "--n_t", "20", "--seed", "0", "--K", "4", "--output", str(out)]) == 0
        assert capsys.readouterr().out == "K=4 delta=1.734167796 subsets_checked=4845 exhaustive=True\n"
        assert out.read_text() == "K,delta,subsets_checked,exhaustive\n4,1.734167796,4845,True\n"

    def test_method_flag_refused(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["rip", "--n_r", "16", "--n_t", "20", "--K", "2", "--method", "sampled"])
        assert info.value.code == 2
        assert "--method" in capsys.readouterr().err

    def test_generated_channel_follows_seed(self, capsys):
        argv = ["rip", "--n_r", "16", "--n_t", "20", "--K", "2"]
        assert main([*argv, "--seed", "0"]) == 0 and main([*argv, "--seed", "1"]) == 0
        first, second = capsys.readouterr().out.splitlines()
        want = rip_constant(generate_channel(16, 20, rng_stream(0, "channel")), 2).delta
        assert first == f"K=2 delta={want:.10g} subsets_checked=190 exhaustive=True"
        assert second != first and second.endswith(" subsets_checked=190 exhaustive=True")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["sweep-ser", "--n_r", "8", "--n_t", "8", "--detectors", "LMMSE", "--trials", "1"], id="sweep-ser"),
        pytest.param(["sweep-mse", "--n_r", "8", "--n_t", "8", "--constellation", "BPSK", "--trials", "1"], id="sweep-mse"),
        pytest.param(["complexity", "--n_r", "8", "--n_t", "8", "--detectors", "MF"], id="complexity"),
        pytest.param(["analyze", "--snr_db_grid", "10"], id="analyze"),
        pytest.param(["rip", "--n_r", "8", "--n_t", "6", "--K", "2"], id="rip"),
    ],
)
def test_unwritable_output_is_config_error(tmp_path, capsys, monkeypatch, argv):
    def no_trial(*args):
        raise AssertionError("a trial ran before the output was checked")

    monkeypatch.setattr(harness_module, "_run_trial", no_trial)
    out = tmp_path / "absent" / "x.csv"
    assert main([*argv, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("configuration error: cannot write") and err.count("\n") == 1



@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["sweep-ser", "--master_seed", "-1", "--n_r", "8", "--n_t", "8", "--trials", "1"], id="sweep-seed"),
        pytest.param(["rip", "--seed", "-1", "--K", "2"], id="rip-seed"),
        pytest.param(["analyze", "--beta", "nan"], id="analyze-beta"),
    ],
)
def test_bad_setting_is_one_config_error_line(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ") and captured.err.count("\n") == 1
    assert captured.out == "" and not list(tmp_path.iterdir())
