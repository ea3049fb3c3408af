"""The input gates: every entry point rejects a bad part of y = sqrt(P) H s + v, count, index or real alike."""

import math
import warnings

import numpy as np
import pytest

from psed import (
    ConfigurationError,
    DimensionError,
    DomainError,
    PsedConfig,
    PsedError,
    SupportSet,
    SweepConfig,
    WeightMatrix,
    asymptotic_sinr,
    complexity_count,
    db_to_linear,
    detect,
    draw_symbols,
    error_count_concentration,
    generate_channel,
    kbest_detect,
    lmmse_on_support,
    ls_on_support,
    make_constellation,
    ml_detect,
    mmp,
    mmp_exact_condition,
    mmp_support_threshold,
    mse_conv_asymptotic,
    mse_psed_bound,
    mse_psed_closed_form,
    omp,
    pe_bpsk,
    psed_detect,
    residual_stream_variance,
    rip_constant,
    rng_stream,
    sparse_transform,
    support_recovery_prob,
    trace_inverse_limit,
    transmit,
    weight_matrix,
)
from psed.analysis import stream_correlation
from psed.baselines import ml_cost
from psed.errors import require_gram
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
Y0 = VALID["y"]
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
    ("H", "no rows", lambda H: H[:0], DimensionError),
    ("H", "no columns", lambda H: H[:, :0], DimensionError),
    ("y", "all-nan", lambda y: np.full_like(y, np.nan), DomainError),
    ("y", "short", lambda y: y[:-1], DimensionError),
    ("s", "nan", _with(np.nan), DomainError),
    ("s", "short", lambda s: s[:-1], DimensionError),
    ("power", "0", lambda p: 0.0, ConfigurationError),
    ("power", "-1", lambda p: -1.0, ConfigurationError),
    ("power", "nan", lambda p: np.nan, DomainError),
    ("power", "inf", lambda p: np.inf, DomainError),
    ("power", "complex", lambda p: 1.0 + 1.0j, DomainError),
    ("power", "numpy-complex", lambda p: np.complex128(1.0), DomainError),
    ("power", "text", lambda p: "1.0", DomainError),
    ("power", "bool", lambda p: True, DomainError),
    ("noise_var", "-0.1", lambda nv: -0.1, ConfigurationError),
    ("noise_var", "nan", lambda nv: np.nan, DomainError),
    ("noise_var", "2-D", lambda nv: np.full((2, 2), nv), DimensionError),
    ("noise_var", "complex", lambda nv: nv + 1.0j, DomainError),
    ("noise_var", "complex-1-D", lambda nv: np.array([nv + 1.0j]), DomainError),
    ("noise_var", "text", lambda nv: "0.1", DomainError),
    ("noise_var", "bool", lambda nv: True, DomainError),
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


# Caller-built weights `detect` must refuse: (label, weights, y, error it must raise, start of its message).
# A message about the weights names the weights, and one about y names y.
BAD_WEIGHTS = [
    ("nan", WeightMatrix(_with(np.nan)(WEIGHTS.W)), VALID["y"], DomainError, "weights must be finite"),
    ("inf", WeightMatrix(_with(np.inf)(WEIGHTS.W)), VALID["y"], DomainError, "weights must be finite"),
    ("misfit", WeightMatrix(np.ones((8, 4))), np.ones(7), DimensionError, r"y of shape \(7,\) does not fit weights "),
    ("no rows", WeightMatrix(np.ones((0, 4))), np.ones(0), DimensionError, "weights must be a non-empty 2-D"),
    ("no columns", WeightMatrix(np.ones((8, 0))), np.ones(8), DimensionError, "weights must be a non-empty 2-D"),
    ("1-D", WeightMatrix(np.ones(8)), np.ones(8), DimensionError, "weights must be a non-empty 2-D"),
]


@pytest.mark.parametrize(
    "weights, y, error, message", [pytest.param(*case[1:], id=case[0]) for case in BAD_WEIGHTS]
)
def test_detect_refuses_bad_weights_naming_them(weights, y, error, message):
    with pytest.raises(error, match=f"^{message}"):
        detect(weights, y)


def test_only_weight_matrix_builds_gram_held_weights():
    # a caller holds its own W; a Gram and rho come only with the H they were formed from
    with pytest.raises(TypeError):
        WeightMatrix(WEIGHTS.M, WEIGHTS.gram, WEIGHTS.rho)
    with pytest.raises(TypeError):
        WeightMatrix(WEIGHTS.M, gram=WEIGHTS.gram)
    assert WeightMatrix(WEIGHTS.M).gram is None and WeightMatrix(WEIGHTS.M).rho == 0.0


# A Gram matrix handed to `mmp`: (label, bad Gram from H0's own, error it must raise, start of its message).
GRAM0 = H0.conj().T @ H0
BAD_GRAMS = [
    ("nan", _with(np.nan), DomainError, "gram must be finite"),
    ("inf", _with(np.inf), DomainError, "gram must be finite"),
    ("all-nan", lambda g: np.full_like(g, np.nan), DomainError, "gram must be finite"),
    ("misfit", lambda g: g[:4, :4], DimensionError, r"gram of shape \(4, 4\) does not fit H of shape \(8, 6\)"),
    ("1-D", lambda g: g[0], DimensionError, r"gram of shape \(6,\) does not fit H"),
]


@pytest.mark.parametrize("bad, error, message", [pytest.param(*case[1:], id=case[0]) for case in BAD_GRAMS])
@pytest.mark.parametrize("estimator", ["LS", "LMMSE"])
def test_mmp_refuses_bad_gram_naming_it(bad, error, message, estimator):
    search = dict(K=2, L=2, estimator=estimator, error_var=1.0, noise_var=0.1)
    assert mmp(H0, Y0, 1.0, **search, gram=GRAM0).support == mmp(H0, Y0, 1.0, **search).support
    with pytest.raises(error, match=f"^{message}"):
        mmp(H0, Y0, 1.0, **search, gram=bad(GRAM0))


# An H whose every entry is finite but whose Gram H^H H overflows: each entry point
# that works from the Gram must refuse it naming H, before numpy warns of the overflow.
H_HUGE = 1e160 * H0
GRAM_USERS = {
    "weight_matrix": lambda H: weight_matrix(H, "LMMSE", 1.0, 0.1),
    "psed_detect": lambda H: psed_detect(Y0, H, 1.0, 0.1, QPSK, PsedConfig(base_detector="LMMSE")),
    "mmp": lambda H: mmp(H, Y0, 1.0, K=2, L=2),
    "rip_constant": lambda H: rip_constant(H, 2),
}


@pytest.mark.parametrize("entry", GRAM_USERS)
def test_overflowing_gram_refused_naming_H(entry):
    assert np.isfinite(H_HUGE).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^H is too large: its Gram matrix H\^H H overflows"):
            GRAM_USERS[entry](H_HUGE)


def _frobenius_squared_at(H, share):
    """H scaled so that ||H||_F^2, the trace of its Gram, is `share` of the largest float."""
    return H * (math.sqrt(share) * math.sqrt(np.finfo(float).max) / np.linalg.norm(H))


@pytest.mark.parametrize("share", [0.49, 0.4999999])
@pytest.mark.parametrize("H", [H0, np.ones((1, 2))], ids=["8x6", "1x2"])
def test_gram_whose_trace_fits_is_finite(H, share):
    # require_gram reads only ||H||_F^2, the trace, which bounds every entry
    H = _frobenius_squared_at(H, share)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gram = require_gram(H)
    assert np.isfinite(gram).all()
    np.testing.assert_array_equal(gram, H.conj().T @ H)


@pytest.mark.parametrize("share", [0.5000001, 1.01])
@pytest.mark.parametrize("H", [H0, np.ones((1, 2))], ids=["8x6", "1x2"])
def test_gram_whose_doubled_trace_overflows_is_refused(H, share):
    # the rule keeps a factor 2 for the rounding of the product: every entry of the
    # 1x2 H's Gram is half its trace, so each of them would fit
    H = _frobenius_squared_at(H, share)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^H is too large"):
            require_gram(H)


@pytest.mark.parametrize("power", [1e308, np.float64(1e308)], ids=["float", "numpy"])
@pytest.mark.parametrize("gram", [None, "own"])
def test_mmp_refuses_overflowing_search_gram(gram, power):
    # P H^H H overflows where H^H H does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^H is too large: the search Gram matrix P H\^H H overflows"):
            mmp(H0, Y0, power, K=2, L=2, gram=None if gram is None else GRAM0)


# Every count and index a caller sets: (entry point, parameter, low, high, call
# with the parameter set to a value). `low` itself must be accepted; 2.5, NaN,
# True, low - 1 and high + 1 must raise ConfigurationError naming the parameter.
SETTINGS = [
    ("mmp", "K", 1, 6, lambda v: mmp(H0, Y0, 1.0, K=v, L=2)),
    ("mmp", "L", 1, None, lambda v: mmp(H0, Y0, 1.0, K=2, L=v)),
    ("mmp", "max_paths", 1, None, lambda v: mmp(H0, Y0, 1.0, K=2, L=2, max_paths=v)),
    ("omp", "K", 1, 6, lambda v: omp(H0, Y0, 1.0, K=v)),
    ("PsedConfig", "sparsity", 1, None, lambda v: PsedConfig(sparsity=v)),
    ("PsedConfig", "branch", 1, None, lambda v: PsedConfig(branch=v)),
    ("PsedConfig", "max_paths", 1, None, lambda v: PsedConfig(max_paths=v)),
    ("PsedConfig.bound_sparsity", "sparsity", 1, 6, lambda v: PsedConfig(sparsity=v).bound_sparsity(6)),
    ("SupportSet", "indices", 0, None, lambda v: SupportSet([v])),
    ("ls_on_support", "support", 0, 5, lambda v: ls_on_support(H0, Y0, 1.0, [v])),
    ("lmmse_on_support", "support", 0, 5, lambda v: lmmse_on_support(H0, Y0, 1.0, [v], 1.0, 0.1)),
    ("residual_stream_variance", "i", 0, 5, lambda v: residual_stream_variance(H0, WEIGHTS, 1.0, 0.1, v)),
    ("stream_correlation", "i", 0, 5, lambda v: stream_correlation(H0, 1.0, 0.1, v, 3)),
    ("stream_correlation", "j", 0, 5, lambda v: stream_correlation(H0, 1.0, 0.1, 3, v)),
    ("rip_constant", "K", 1, 6, lambda v: rip_constant(H0, v)),
    ("complexity_count", "n_r", 1, None, lambda v: complexity_count("PSED-LMMSE", v, 8, K=1, L=1)),
    ("complexity_count", "n_t", 1, None, lambda v: complexity_count("PSED-LMMSE", 8, v, K=1, L=1)),
    ("complexity_count", "K", 1, 8, lambda v: complexity_count("PSED-LMMSE", 8, 8, K=v, L=1)),
    ("complexity_count", "L", 1, None, lambda v: complexity_count("PSED-LMMSE", 8, 8, K=1, L=v)),
    ("mmp_exact_condition", "K", 1, None, lambda v: mmp_exact_condition(0.1, K=v, L=2)),
    ("mmp_exact_condition", "L", 1, None, lambda v: mmp_exact_condition(0.1, K=2, L=v)),
    ("mmp_support_threshold", "K", 1, None, lambda v: mmp_support_threshold(0.05, 0.05, 0.1, K=v, L=2)),
    ("mmp_support_threshold", "L", 1, None, lambda v: mmp_support_threshold(0.05, 0.05, 0.1, K=1, L=v)),
    ("support_recovery_prob", "n_r", 1, None, lambda v: support_recovery_prob(v, 1.0, 0.1, 2.0)),
    ("error_count_concentration", "n_t", 1, None, lambda v: error_count_concentration(v, 0.1, 0.05)),
    ("kbest_detect", "m", 1, None, lambda v: kbest_detect(Y0, H0, 1.0, QPSK, m=v)),
    ("generate_channel", "n_r", 1, None, lambda v: generate_channel(v, 4, 0)),
    ("generate_channel", "n_t", 1, None, lambda v: generate_channel(4, v, 0)),
    ("draw_symbols", "n_t", 1, None, lambda v: draw_symbols(QPSK, v, 0)),
    ("rng_stream", "master_seed", 0, None, lambda v: rng_stream(v, "channel", 0)),
    ("rng_stream", "trial_index", 0, None, lambda v: rng_stream(0, "channel", v)),
    *(
        ("SweepConfig", name, 1, None, lambda v, name=name: SweepConfig(**{name: v}))
        for name in ("n_r", "n_t", "trials", "workers", "kbest_m")
    ),
    ("SweepConfig", "master_seed", 0, None, lambda v: SweepConfig(master_seed=v)),
]


@pytest.mark.parametrize(
    "field, values, repeat",
    [
        ("detectors", ("LMMSE", "PSED-LMMSE", "LMMSE"), "'LMMSE'"),
        ("snr_db_grid", (6.0, 10.0, 10), "10"),
        ("snr_db_grid", (np.inf, 6.0, np.inf), "inf"),
    ],
)
def test_sweep_config_refuses_a_repeat(field, values, repeat):
    # a repeat would run its cells twice and write duplicate CSV rows
    with pytest.raises(ConfigurationError, match=f"^{field} lists {repeat} twice"):
        SweepConfig(**{field: values})


def bad_settings():
    for entry, name, low, high, call in SETTINGS:
        bad = {"2.5": 2.5, "nan": np.nan, "True": True, "below": low - 1}
        if high is not None:
            bad["above"] = high + 1
        for label, value in bad.items():
            yield pytest.param(call, name, value, id=f"{entry}-{name}-{label}")


@pytest.mark.parametrize("call, low", [pytest.param(c, low, id=f"{e}-{n}") for e, n, low, _, c in SETTINGS])
def test_valid_setting_accepted(call, low):
    call(low)
    call(np.int64(low))


@pytest.mark.parametrize("call, name, value", bad_settings())
def test_bad_setting_raises_named_error(call, name, value):
    with pytest.raises(ConfigurationError, match=f"^{name} "):
        call(value)


# Each closed form with valid arguments; NaN in any float argument must raise DomainError.
CLOSED_FORMS = [
    (asymptotic_sinr, dict(snr=10.0, beta=1.0)),
    (pe_bpsk, dict(sinr=2.0)),
    (mse_conv_asymptotic, dict(snr=10.0, beta=1.0)),
    (mse_psed_bound, dict(snr=10.0, beta=1.0, p_e=0.01)),
    (mse_psed_closed_form, dict(snr=10.0, beta=0.5)),
    (support_recovery_prob, dict(n_r=8, d=1.0, noise_var=0.1, tau=2.0)),
    (error_count_concentration, dict(n_t=64, p_e=0.1, epsilon=0.05)),
    (mmp_exact_condition, dict(delta_lk=0.1, K=2, L=2)),
    (mmp_support_threshold, dict(delta_lk=0.05, delta_k=0.05, delta_2k=0.1, K=2, L=2)),
    (trace_inverse_limit, dict(beta_prime=0.5)),
]


FLOAT_ARGS = [
    pytest.param(fn, kwargs, arg, id=f"{fn.__name__}-{arg}")
    for fn, kwargs in CLOSED_FORMS
    for arg, value in kwargs.items()
    if isinstance(value, float)
]


@pytest.mark.parametrize("fn, kwargs, arg", FLOAT_ARGS)
def test_closed_form_refuses_nan(fn, kwargs, arg):
    fn(**kwargs)
    with pytest.raises(DomainError):
        fn(**dict(kwargs, **{arg: np.nan}))


# The true limits at infinity; an infinite value in any other float argument must raise DomainError.
LIMITS_AT_INFINITY = {
    ("pe_bpsk", "sinr"): 0.0,
    ("mse_psed_bound", "snr"): 0.0,
    ("mse_psed_closed_form", "snr"): 0.0,
    ("support_recovery_prob", "noise_var"): 0.0,
    ("support_recovery_prob", "tau"): 0.0,
    ("error_count_concentration", "epsilon"): 0.0,
    ("mmp_exact_condition", "delta_lk"): False,
}


@pytest.mark.parametrize("fn, kwargs, arg", FLOAT_ARGS)
def test_closed_form_limit_or_refusal_at_infinity(fn, kwargs, arg):
    inf_kwargs = dict(kwargs, **{arg: np.inf})
    if (fn.__name__, arg) in LIMITS_AT_INFINITY:
        assert fn(**inf_kwargs) == LIMITS_AT_INFINITY[fn.__name__, arg]
    else:
        with pytest.raises(DomainError):
            fn(**inf_kwargs)


# Where each closed form's value lies, given the arguments it was called with.
IN_RANGE = {
    "asymptotic_sinr": lambda v, a: 0.0 <= v <= a["snr"],
    "pe_bpsk": lambda v, a: 0.0 <= v <= 0.5,
    "mse_conv_asymptotic": lambda v, a: 0.0 <= v <= 1.0,
    "mse_psed_bound": lambda v, a: 0.0 <= v < math.inf,
    "mse_psed_closed_form": lambda v, a: 0.0 <= v < math.inf,
    "support_recovery_prob": lambda v, a: 0.0 <= v <= 1.0,
    "error_count_concentration": lambda v, a: 0.0 <= v <= 1.0,
    "mmp_exact_condition": lambda v, a: isinstance(v, bool),
    "mmp_support_threshold": lambda v, a: (
        all(0.0 < c < math.inf for c in (v.gamma, v.mu, v.lam)) and v.tau == max(v.gamma, v.mu, v.lam)
    ),
    "trace_inverse_limit": lambda v, a: 1.0 <= v < math.inf,
}


@pytest.mark.parametrize("value", [1e-300, 1e300, 1.7e308])
@pytest.mark.parametrize("fn, kwargs, arg", FLOAT_ARGS)
def test_closed_form_in_range_or_refused_at_extreme_magnitudes(fn, kwargs, arg, value):
    # never NaN, an infinity or a bare ArithmeticError from an overflow inside the formula
    call = dict(kwargs, **{arg: value})
    try:
        got = fn(**call)
    except PsedError:
        return
    assert IN_RANGE[fn.__name__](got, call), got


# A value of the wrong type for a real argument: (label, bad value from the valid one, error it must raise).
BAD_TYPES = [
    ("complex", lambda v: v + 1j, DomainError),
    ("text", str, DomainError),
    ("bool", lambda v: True, DomainError),
    ("1-element", lambda v: np.array([v]), DimensionError),
    ("2-element", lambda v: np.array([v, v]), DimensionError),
]


@pytest.mark.parametrize("fn, kwargs, arg", FLOAT_ARGS)
@pytest.mark.parametrize("bad, error", [pytest.param(bad, error, id=label) for label, bad, error in BAD_TYPES])
def test_closed_form_refuses_wrong_type(fn, kwargs, arg, bad, error):
    with pytest.raises(error, match=f"^{arg} "):
        fn(**dict(kwargs, **{arg: bad(kwargs[arg])}))


# Every real setting: (entry point, parameter, call with the parameter set to a
# value, values it must accept, finite values it must refuse with
# ConfigurationError). NaN, an infinity it does not accept and every value of
# BAD_TYPES must raise as they do for the closed forms.
REAL_SETTINGS = [
    ("PsedConfig", "tol", lambda v: PsedConfig(tol=v), (0.0, np.inf, 10**20), (-1.0,)),
    ("mmp", "tol", lambda v: mmp(H0, Y0, 1.0, K=2, L=2, tol=v), (0.0, np.inf), (-1.0,)),
    (
        "mmp",
        "error_var",
        lambda v: mmp(H0, Y0, 1.0, K=2, L=2, estimator="LMMSE", error_var=v, noise_var=0.1),
        (1.0,),
        (0.0, -1.0),
    ),
    ("lmmse_on_support", "error_var", lambda v: lmmse_on_support(H0, Y0, 1.0, (1, 4), v, 0.1), (1.0,), (0.0,)),
    ("SweepConfig", "snr_db_grid", lambda v: SweepConfig(snr_db_grid=(0.0, v)), (-30.0, 10, np.inf, 10**20), ()),
    ("db_to_linear", "snr_db", db_to_linear, (-30.0, 10, -np.inf, np.inf), ()),
]


def bad_real_settings():
    for entry, name, call, accepted, refused in REAL_SETTINGS:
        bad = [(label, bad(accepted[0]), error) for label, bad, error in BAD_TYPES]
        bad += [("nan", np.nan, DomainError)]
        bad += [(f"{inf}", inf, DomainError) for inf in (-np.inf, np.inf) if inf not in accepted]
        bad += [(f"{value}", value, ConfigurationError) for value in refused]
        for label, value, error in bad:
            yield pytest.param(call, name, value, error, id=f"{entry}-{name}-{label}")


@pytest.mark.parametrize(
    "call, accepted", [pytest.param(c, acc, id=f"{e}-{n}") for e, n, c, acc, _ in REAL_SETTINGS]
)
def test_valid_real_setting_accepted(call, accepted):
    for value in accepted:
        call(value)


@pytest.mark.parametrize("call, name, value, error", bad_real_settings())
def test_bad_real_setting_raises_named_error(call, name, value, error):
    with pytest.raises(error, match=f"^{name} "):
        call(value)
