"""Sweeps at a fixed master seed against CSVs committed under tests/data.

Each file was written by `psed <argv> --output <file>` with the argv listed
below; the square32 file was written as `--preset square32 --trials 40`,
which `--config configs/square32.cfg --trials 40` builds field for field.
Integer columns must match exactly and floats to 1e-9 relative, so the
comparison survives a BLAS build that rounds differently.
"""

import dataclasses
from pathlib import Path

import pytest

from psed import read_csv
from psed.cli import main

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parents[1] / "configs"


@pytest.mark.parametrize(
    "name, argv",
    [
        pytest.param(
            "square32_seed1_40.csv",
            ["sweep-ser", "--config", str(CONFIGS / "square32.cfg"), "--trials", "40"],
            id="square32",
        ),
        pytest.param(
            "bpsk32x64_mse_seed1_40.csv",
            ["sweep-mse", "--n_r", "32", "--n_t", "64", "--constellation", "BPSK",
             "--detectors", "MF,LMMSE,PSED-MF,PSED-LMMSE", "--trials", "40"],
            id="bpsk32x64-mse",
        ),
        pytest.param(
            "square64_lmmse_seed1_20.csv",
            ["sweep-ser", "--n_r", "64", "--n_t", "64", "--psed.estimator", "LMMSE", "--trials", "20"],
            id="square64-lmmse-estimator",
        ),
        pytest.param(
            "square32_all_seed1_20.csv",
            ["sweep-ser", "--n_r", "32", "--n_t", "32",
             "--detectors", "MF,LMMSE,PSED-MF,PSED-LMMSE,KBEST", "--trials", "20"],
            id="square32-all-detectors",
        ),
    ],
)
def test_sweep_matches_committed_csv(tmp_path, name, argv):
    out = tmp_path / name
    assert main(argv + ["--output", str(out)]) == 0
    got, want = read_csv(out).rows, read_csv(DATA / name).rows
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for f in dataclasses.fields(w):
            a, b = getattr(g, f.name), getattr(w, f.name)
            if isinstance(b, float):
                assert a == pytest.approx(b, rel=1e-9, abs=0), (w.detector, w.snr_db, f.name)
            else:
                assert a == b, (w.detector, w.snr_db, f.name)
