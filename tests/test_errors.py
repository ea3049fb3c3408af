"""The input gate: every entry point that takes part of y = sqrt(P) H s + v rejects bad input alike."""

import numpy as np
import pytest

from psed import (
    ConfigurationError,
    DimensionError,
    DomainError,
    PsedConfig,
    detect,
    kbest_detect,
    lmmse_on_support,
    ls_on_support,
    make_constellation,
    ml_detect,
    mmp,
    omp,
    psed_detect,
    residual_stream_variance,
    rip_constant,
    sparse_transform,
    transmit,
    weight_matrix,
)
from psed.analysis import stream_correlation
from psed.baselines import ml_cost
from tests.conftest import complex_noise, seeded_channel

QPSK = make_constellation("QPSK")
H0 = seeded_channel(8, 6, seed=3)
VALID = {
    "H": H0,
    "y": complex_noise(8, seed=3),
    "s": QPSK.points[np.arange(6) % 4],
    "power": 1.0,
    "noise_var": 0.1,
}
WEIGHTS = weight_matrix(H0, "LMMSE", 1.0, 0.1)

# Entry point: (the arguments of the system it takes, a call from those arguments).
ENTRY_POINTS = {
    "transmit": ("H s power noise_var", lambda a: transmit(a["H"], a["s"], a["power"], a["noise_var"], 0)),
    "weight_matrix": ("H power noise_var", lambda a: weight_matrix(a["H"], "LMMSE", a["power"], a["noise_var"])),
    "detect": ("y", lambda a: detect(WEIGHTS, a["y"])),
    "residual_stream_variance": (
        "H power noise_var",
        lambda a: residual_stream_variance(a["H"], WEIGHTS, a["power"], a["noise_var"], 0),
    ),
    "sparse_transform": ("H y s power", lambda a: sparse_transform(a["y"], a["H"], a["s"], a["power"])),
    "psed_detect": (
        "H y power noise_var",
        lambda a: psed_detect(a["y"], a["H"], a["power"], a["noise_var"], QPSK, PsedConfig()),
    ),
    "mmp": (
        "H y power noise_var",
        lambda a: mmp(a["H"], a["y"], a["power"], K=2, L=2, estimator="LMMSE", error_var=1.0, noise_var=a["noise_var"]),
    ),
    "omp": ("H y power", lambda a: omp(a["H"], a["y"], a["power"], K=2)),
    "ls_on_support": ("H y power", lambda a: ls_on_support(a["H"], a["y"], a["power"], (1, 4))),
    "lmmse_on_support": (
        "H y power noise_var",
        lambda a: lmmse_on_support(a["H"], a["y"], a["power"], (1, 4), 1.0, a["noise_var"]),
    ),
    "ml_detect": ("H y power", lambda a: ml_detect(a["y"], a["H"], a["power"], QPSK)),
    "kbest_detect": ("H y power", lambda a: kbest_detect(a["y"], a["H"], a["power"], QPSK, m=4)),
    "ml_cost": ("H y s power", lambda a: ml_cost(a["y"], a["H"], a["power"], a["s"])),
    "stream_correlation": (
        "H power noise_var",
        lambda a: stream_correlation(a["H"], a["power"], a["noise_var"], 0, 1),
    ),
    "rip_constant": ("H", lambda a: rip_constant(a["H"], 2)),
}


def _with(value):
    def put(a: np.ndarray) -> np.ndarray:
        a = a.copy()
        a.flat[a.size // 2] = value
        return a

    return put


# (argument, label, bad value from the valid one, error it must raise).
BAD_INPUTS = [
    ("H", "nan", _with(np.nan), DomainError),
    ("H", "inf", _with(np.inf), DomainError),
    ("H", "1-D", lambda H: H[:, 0], DimensionError),
    ("y", "all-nan", lambda y: np.full_like(y, np.nan), DomainError),
    ("y", "short", lambda y: y[:-1], DimensionError),
    ("s", "nan", _with(np.nan), DomainError),
    ("s", "short", lambda s: s[:-1], DimensionError),
    ("power", "0", lambda p: 0.0, ConfigurationError),
    ("power", "-1", lambda p: -1.0, ConfigurationError),
    ("power", "nan", lambda p: np.nan, DomainError),
    ("power", "inf", lambda p: np.inf, DomainError),
    ("noise_var", "-0.1", lambda nv: -0.1, ConfigurationError),
    ("noise_var", "nan", lambda nv: np.nan, DomainError),
    ("noise_var", "2-D", lambda nv: np.full((2, 2), nv), DimensionError),
]


def gate_cases():
    for entry, (takes, _) in ENTRY_POINTS.items():
        for arg, label, bad, error in BAD_INPUTS:
            if arg in takes.split():
                yield pytest.param(entry, arg, bad, error, id=f"{entry}-{arg}-{label}")


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_valid_input_accepted(entry):
    ENTRY_POINTS[entry][1](VALID)


@pytest.mark.parametrize("entry, arg, bad, error", gate_cases())
def test_bad_input_raises_named_error(entry, arg, bad, error):
    args = dict(VALID, **{arg: bad(VALID[arg])})
    with pytest.raises(error, match=f"^{arg} "):
        ENTRY_POINTS[entry][1](args)
