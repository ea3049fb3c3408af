"""Tests for the sweep engine and CSV round-tripping."""

import dataclasses

import numpy as np
import pytest

from psed import (
    ConfigurationError,
    PsedError,
    SingularMatrixError,
    SweepConfig,
    emit_csv,
    read_csv,
    run_mse_curves,
    run_sweep,
)
from psed.harness import SweepResult, SweepRow, snr_at_ser
from psed.pipeline import PsedConfig
from psed import pipeline as pipeline_module

FIVE_DETECTORS = ("MF", "LMMSE", "PSED-MF", "PSED-LMMSE", "KBEST")


def tiny_config(**overrides) -> SweepConfig:
    base = dict(
        n_r=8,
        n_t=8,
        constellation="QPSK",
        detectors=("LMMSE", "PSED-LMMSE"),
        snr_db_grid=(8.0, 14.0),
        trials=25,
        master_seed=77,
        psed=PsedConfig(tol=0.0, sparsity=2),
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestRunSweep:
    def test_deterministic_given_master_seed(self, tmp_path):
        a = run_sweep(tiny_config())
        b = run_sweep(tiny_config())
        assert a == b
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(a, p1)
        emit_csv(b, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_invariants(self):
        result = run_sweep(tiny_config())
        assert len(result.rows) == 4  # detectors x grid
        for row in result.rows:
            assert row.ser == row.symbol_errors / (row.n_t * row.trials)
            assert 0.0 <= row.ser <= 1.0
            assert row.mse >= 0.0
            assert row.trials == 25
            assert row.seed == 77

    def test_effectively_noiseless_linear_detection_is_exact(self):
        result = run_sweep(
            tiny_config(detectors=("LMMSE",), snr_db_grid=(300.0,), trials=1)
        )
        assert result.rows[0].ser == 0.0
        assert result.rows[0].mse < 1e-12

    def test_workers_do_not_change_results(self):
        serial = run_sweep(tiny_config(trials=12))
        parallel = run_sweep(tiny_config(trials=12, workers=2))
        assert serial.rows == parallel.rows

    def test_workers_do_not_change_csv_across_uneven_trial_chunks(self, tmp_path):
        # 13 trials over 2 workers: chunks of 2 with a last chunk of 1
        cfg = tiny_config(detectors=FIVE_DETECTORS, trials=13, kbest_m=4)
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        emit_csv(run_sweep(cfg), serial)
        emit_csv(run_sweep(dataclasses.replace(cfg, workers=2)), parallel)
        assert serial.read_bytes() == parallel.read_bytes()

    def test_rows_equal_those_of_a_sweep_holding_the_detector_alone(self):
        # MF and LMMSE rows are read off PSED-MF and PSED-LMMSE's first stage.
        grid = (4.0, 8.0, 14.0)
        cfg = tiny_config(
            detectors=FIVE_DETECTORS,
            snr_db_grid=grid,
            trials=15,
            kbest_m=4,
            psed=PsedConfig(tol=0.0, sparsity=2),
        )
        rows = {(r.detector, r.snr_db): r for r in run_sweep(cfg).rows}
        for detector in ("MF", "LMMSE", "KBEST"):
            alone = run_sweep(dataclasses.replace(cfg, detectors=(detector,)))
            assert alone.rows == tuple(rows[detector, snr] for snr in grid)

    def test_ml_dimension_guard_fires_before_any_trial(self):
        with pytest.raises(ConfigurationError, match="ML"):
            run_sweep(tiny_config(n_r=16, n_t=16, detectors=("ML",))).rows

    def test_detector_name_validated(self):
        with pytest.raises(ConfigurationError):
            run_sweep(tiny_config(detectors=("SD",)))

    def test_kbest_shape_guard_fires_before_any_trial(self):
        with pytest.raises(ConfigurationError, match="K-best"):
            run_sweep(tiny_config(n_r=4, n_t=8, detectors=("KBEST",)))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(tiny_config(snr_db_grid=()))

    def test_flagged_trials_surface_in_result(self, monkeypatch):
        def boom(*args, **kwargs):
            raise SingularMatrixError("forced")

        monkeypatch.setattr(pipeline_module.sparse_recovery, "mmp", boom)
        result = run_sweep(tiny_config(detectors=("PSED-LMMSE",), trials=3, snr_db_grid=(10.0,)))
        assert len(result.flagged_trials) == 3
        assert result.flagged_trials[0][0] == "PSED-LMMSE"

    def test_all_detectors_run_at_small_scale(self):
        result = run_sweep(
            tiny_config(
                detectors=("MF", "LMMSE", "PSED-MF", "PSED-LMMSE", "KBEST", "ML"),
                trials=4,
                snr_db_grid=(12.0,),
                kbest_m=8,
            )
        )
        assert len(result.rows) == 6


class TestMseCurves:
    def test_requires_bpsk(self):
        with pytest.raises(ConfigurationError, match="BPSK"):
            run_mse_curves(tiny_config())

    def test_analytic_columns_are_seed_independent(self):
        a = run_mse_curves(tiny_config(constellation="BPSK", master_seed=1, trials=5))
        b = run_mse_curves(tiny_config(constellation="BPSK", master_seed=2, trials=5))
        for ra, rb in zip(a.rows, b.rows):
            assert ra.mse_conv_asymptotic == rb.mse_conv_asymptotic
            assert ra.mse_psed_closed_form == rb.mse_psed_closed_form
            assert np.isfinite(ra.mse_conv_asymptotic)


class TestCsvRoundTrip:
    def test_empty_result_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(SweepResult(rows=()), path)
        assert path.read_text() == (
            "detector,n_r,n_t,snr_db,trials,symbol_errors,ser,mse,seed\n"
        )

    def test_round_trip_is_stable(self, tmp_path):
        result = run_sweep(tiny_config(trials=10))
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        emit_csv(result, p1)
        emit_csv(read_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_fields(self, tmp_path):
        result = run_sweep(tiny_config(trials=10))
        path = tmp_path / "r.csv"
        emit_csv(result, path)
        back = read_csv(path)
        for a, b in zip(result.rows, back.rows):
            assert (a.detector, a.n_r, a.n_t, a.trials, a.symbol_errors, a.seed) == (
                b.detector,
                b.n_r,
                b.n_t,
                b.trials,
                b.symbol_errors,
                b.seed,
            )
            assert abs(a.ser - b.ser) <= 1e-9 * max(a.ser, 1e-300)
            assert abs(a.mse - b.mse) <= 1e-9 * max(a.mse, 1e-300)

    def test_analytic_columns_round_trip(self, tmp_path):
        result = run_mse_curves(tiny_config(constellation="BPSK", trials=5))
        path = tmp_path / "mse.csv"
        emit_csv(result, path)
        header = path.read_text().splitlines()[0]
        assert header.endswith("mse_conv_asymptotic,mse_psed_closed_form")
        back = read_csv(path)
        assert back.has_analytic_columns

    def test_undefined_closed_form_round_trips_as_none(self, tmp_path):
        # beta = 2: the post-recovery closed form is undefined and written as nan
        result = run_mse_curves(tiny_config(n_r=32, n_t=64, constellation="BPSK", trials=3))
        assert all(r.mse_psed_closed_form is None for r in result.rows)
        path = tmp_path / "wide.csv"
        emit_csv(result, path)
        floats = ("snr_db", "ser", "mse", "mse_conv_asymptotic")
        ten_digits = [
            dataclasses.replace(r, **{f: float(f"{getattr(r, f):.10g}") for f in floats}) for r in result.rows
        ]
        assert read_csv(path).rows == tuple(ten_digits)

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(PsedError, match="cannot write"):
            emit_csv(SweepResult(rows=()), tmp_path / "no" / "such" / "dir.csv")

    def test_row_count_is_grid_product(self, tmp_path):
        cfg = tiny_config(detectors=("MF", "LMMSE"), snr_db_grid=(6.0, 10.0, 14.0), trials=2)
        path = tmp_path / "grid.csv"
        emit_csv(run_sweep(cfg), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 2 * 3


class TestSnrInterpolation:
    def test_exact_log_linear_crossing(self):
        # ser falls by 10x per 4 dB: crossing 1e-2 sits exactly mid-segment
        snr = [8.0, 12.0, 16.0]
        ser = [1e-1, 1e-2, 1e-3]
        assert abs(snr_at_ser(snr, ser, 1e-2) - 12.0) < 1e-12
        assert abs(snr_at_ser(snr, ser, 10 ** -1.5) - 10.0) < 1e-12

    def test_no_crossing_returns_none(self):
        assert snr_at_ser([8.0, 12.0], [1e-1, 2e-2], 1e-3) is None

    def test_zero_cells_skipped(self):
        got = snr_at_ser([8.0, 12.0, 16.0], [1e-1, 1e-3, 0.0], 1e-2)
        assert got is not None and 8.0 < got < 12.0
