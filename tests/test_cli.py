"""Tests for the command-line front end and config handling."""

import re
from pathlib import Path

import numpy as np
import pytest

from psed import SingularMatrixError, SweepConfig
from psed import cli
from psed import harness as harness_module
from psed.cli import build_sweep_config, main, parse_config_file
from tests.conftest import orthonormal_columns

README = Path(__file__).resolve().parents[1] / "README.md"

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

    def test_missing_file_rejected(self):
        assert main(["sweep-ser", "--config", "/no/such/file.cfg"]) == 2

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_r = 16\nn_t = 16\ntrials = 7\n")
        args = cli.build_parser().parse_args(
            ["sweep-ser", "--config", str(path), "--trials", "3"]
        )
        config = build_sweep_config(args)
        assert config.trials == 3
        assert config.n_r == 16

    def test_preset_applies_and_flags_override(self):
        args = cli.build_parser().parse_args(
            ["sweep-ser", "--preset", "square32", "--trials", "2"]
        )
        config = build_sweep_config(args)
        assert (config.n_r, config.n_t) == (32, 32)
        assert config.trials == 2
        assert config.psed.bound_sparsity(config.n_t) == 4

    def test_unknown_preset_rejected(self):
        assert main(["sweep-ser", "--preset", "square1024"]) == 2


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

    def test_sampled_mode(self, capsys):
        assert main(["rip", "--n_r", "16", "--n_t", "20", "--seed", "0", "--K", "2",
                     "--method", "sampled"]) == 0
        assert "exhaustive=False" in capsys.readouterr().out


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
