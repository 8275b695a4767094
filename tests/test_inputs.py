"""The input rules every public entry point shares: a target goes through
measures.target_columns, a Gram matrix through measures.kernel_matrix,
a point set through measures.points, a ridge, a noise and a spectrum
through measures.nonnegative, and a count through measures.positive_int,
so a bad one raises the same ValueError wherever it enters. A config
value is typed once, by the schema walk in config, and read as it is."""

import ast
import inspect
import re

import numpy as np
import pytest

from kernelshift import cli, config
from kernelshift.closedform import (dot_product_kernel_spectrum,
                                    gaussian_linear_Eg, general_linear_Eg,
                                    mode_spectrum_Eg, ntk_sphere_Eg)
from kernelshift.empirical import (discrete_trial_error, krr_solve,
                                   run_continuous_curve, run_learning_curve)
from kernelshift.kernels import KernelSpec, gram, ntk_relu_eval
from kernelshift.measures import (SYMMETRY_RTOL, Dataset, SyntheticSpec,
                                  nonnegative, positive_int, target_columns,
                                  uniform_measure)
from kernelshift.optimizer import (OptimizerConfig, optimize_test_measure,
                                   optimize_train_measure)
from kernelshift.spectral import (DEFAULT_RANK_THRESHOLD, cached_decompose,
                                  decomposition_cache_key, mercer_decompose,
                                  project_target)
from kernelshift.theory import (pointwise_error_density, predict_Eg_curve,
                                predict_Eg_dataset, predict_Eg_train_grad,
                                solve_kappa)

M = 8
SPEC = KernelSpec("rbf", lengthscale=1.5)
X = np.random.default_rng(3).standard_normal((M, 2))
K = gram(SPEC, X)
P_MEASURE = uniform_measure(M)
DEC = mercer_decompose(K, P_MEASURE)
CONFIG = OptimizerConfig(P_budget=4, lam=0.1, steps=2)


def _bad_target(kind, rows):
    if kind == "nan":
        Y = np.ones(rows)
        Y[rows // 2] = np.nan
        return Y
    if kind == "3-D":
        return np.ones((rows, 2, 2))
    return np.ones(rows // 2)   # wrong length


ENTRY_POINTS = {
    "Dataset": lambda Y: Dataset(X, Y),
    "project_target": lambda Y: project_target(DEC, Y),
    "predict_Eg_curve": lambda Y: predict_Eg_curve(DEC, Y, P_MEASURE, [4],
                                                   0.1, 0.0),
    "pointwise_error_density": lambda Y: pointwise_error_density(
        DEC, Y, 4, 0.1, 0.0),
    "predict_Eg_dataset": lambda Y: predict_Eg_dataset(
        K, Y, P_MEASURE, P_MEASURE, 4, 0.1, 0.0),
    "predict_Eg_train_grad": lambda Y: predict_Eg_train_grad(
        K, Y, P_MEASURE, P_MEASURE, 4, 0.1, 0.0),
    "optimize_train_measure": lambda Y: optimize_train_measure(
        K, Y, P_MEASURE, CONFIG),
    "optimize_test_measure": lambda Y: optimize_test_measure(DEC, Y,
                                                             CONFIG),
    "krr_solve": lambda Y: krr_solve(K, Y, 0.1),
    "discrete_trial_error": lambda Y: discrete_trial_error(
        K, Y, P_MEASURE, P_MEASURE, 4, 0.1, 0.0, np.random.default_rng(0)),
    "run_learning_curve": lambda Y: run_learning_curve(
        K, Y, P_MEASURE, P_MEASURE, [4], 0.1, 0.0, 2, 0),
}


@pytest.mark.parametrize("kind", ["nan", "3-D", "wrong length"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_target_raises_a_value_error_naming_Y(entry, kind):
    with pytest.raises(ValueError, match=r"\bY\b"):
        ENTRY_POINTS[entry](_bad_target(kind, M))


@pytest.mark.parametrize("kind", ["nan", "3-D", "wrong length"])
def test_bad_continuous_target_raises_a_value_error_naming_Y(kind):
    def test_error(X_train, coef):
        raise AssertionError("a bad target was fitted")

    with pytest.raises(ValueError, match=r"\bY\b"):
        run_continuous_curve(SPEC, lambda rng, n: rng.standard_normal((n, 2)),
                             lambda X_train: _bad_target(kind, len(X_train)),
                             test_error, [4], 0.1, 0.0, 2, 0)


def test_target_columns_makes_a_1d_target_one_column():
    Y = target_columns([1, 2, 3], 3)
    assert Y.dtype == np.float64 and Y.shape == (3, 1)
    Y2 = np.ones((3, 2))
    assert target_columns(Y2, 3) is Y2


Y_GOOD = X[:, 0]
ETA, DEGEN = np.array([1.0, 0.1]), np.array([1.0, 3.0])


def _continuous(lam, noise):
    return run_continuous_curve(
        SPEC, lambda rng, n: rng.standard_normal((n, 2)),
        lambda X_train: X_train[:, 0], lambda X_train, coef: 0.0, [4], lam,
        noise, 2, 0)


def _optimizer(lam, noise):
    return OptimizerConfig(P_budget=4, lam=lam, noise=noise, steps=2)


# the ENTRY_POINTS that take a ridge, plus solve_kappa, the closed forms
# and the continuous Monte Carlo curve, as f(lam, noise)
RIDGE_ENTRY_POINTS = {
    "predict_Eg_curve": lambda lam, noise: predict_Eg_curve(
        DEC, Y_GOOD, P_MEASURE, [4], lam, noise),
    "pointwise_error_density": lambda lam, noise: pointwise_error_density(
        DEC, Y_GOOD, 4, lam, noise),
    "predict_Eg_dataset": lambda lam, noise: predict_Eg_dataset(
        K, Y_GOOD, P_MEASURE, P_MEASURE, 4, lam, noise),
    "predict_Eg_train_grad": lambda lam, noise: predict_Eg_train_grad(
        K, Y_GOOD, P_MEASURE, P_MEASURE, 4, lam, noise),
    "optimize_train_measure": lambda lam, noise: optimize_train_measure(
        K, Y_GOOD, P_MEASURE, _optimizer(lam, noise)),
    "optimize_test_measure": lambda lam, noise: optimize_test_measure(
        DEC, Y_GOOD, _optimizer(lam, noise)),
    "krr_solve": lambda lam, noise: krr_solve(K, Y_GOOD, lam),
    "discrete_trial_error": lambda lam, noise: discrete_trial_error(
        K, Y_GOOD, P_MEASURE, P_MEASURE, 4, lam, noise,
        np.random.default_rng(0)),
    "run_learning_curve": lambda lam, noise: run_learning_curve(
        K, Y_GOOD, P_MEASURE, P_MEASURE, [4], lam, noise, 2, 0),
    "run_continuous_curve": _continuous,
    "solve_kappa": lambda lam, noise: solve_kappa(ETA, 4, lam, DEGEN),
    "gaussian_linear_Eg": lambda lam, noise: gaussian_linear_Eg(
        np.ones(3), np.eye(3), np.eye(3), 4, lam, noise),
    "general_linear_Eg": lambda lam, noise: general_linear_Eg(
        4, 6, 6, 6, np.ones(6), 1.0, 1.0, lam, noise),
    "ntk_sphere_Eg": lambda lam, noise: ntk_sphere_Eg(
        4, 2, ETA, DEGEN, [0.5, 0.5], lam, noise),
}
NOISELESS = ("krr_solve", "solve_kappa")


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("entry, name", [
    *((entry, "ridge") for entry in sorted(RIDGE_ENTRY_POINTS)),
    *((entry, "noise") for entry in sorted(RIDGE_ENTRY_POINTS)
      if entry not in NOISELESS)])
def test_bad_ridge_or_noise_raises_a_value_error_naming_it(entry, name,
                                                           value):
    lam, noise = (value, 0.01) if name == "ridge" else (0.1, value)
    RIDGE_ENTRY_POINTS[entry](0.1, 0.01)   # the good inputs run
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        RIDGE_ENTRY_POINTS[entry](lam, noise)


@pytest.mark.parametrize("value", [2.5, np.nan, 2.0])
@pytest.mark.parametrize("name, make", [
    ("P_budget", lambda v: OptimizerConfig(P_budget=v, lam=0.1)),
    ("steps", lambda v: OptimizerConfig(P_budget=4, lam=0.1, steps=v)),
    ("depth", lambda v: KernelSpec("ntk_relu", depth=v)),
    ("n_modes", lambda v: KernelSpec("fourier_bandlimited", n_modes=v)),
    ("M", uniform_measure),
    ("P", lambda v: run_learning_curve(K, Y_GOOD, P_MEASURE, P_MEASURE,
                                       [4, v], 0.1, 0.0, 2, 0)),
])
def test_count_that_is_not_an_integer_raises(name, make, value):
    # a count is an int: 2.5 is not truncated to 2, nor 2.0 read as 2
    with pytest.raises(ValueError,
                       match=rf"^{name} must be a positive integer"):
        make(value)


@pytest.mark.parametrize("depth", [0, -3, 2.7, 2.0])
def test_ntk_depth_must_be_a_positive_integer(depth):
    # depth 0 and -3 ran as depth 1, and 2.7 as depth 2
    with pytest.raises(ValueError, match="^depth must be a positive integer"):
        ntk_relu_eval(depth, 0.3, 1.0, 1.0)
    with pytest.raises(ValueError, match="^depth must be a positive integer"):
        ntk_sphere_Eg(10, depth, ETA, DEGEN, [1.0, 0.5], 0.1)


def test_negative_k_max_raises():
    # k_max -1 returned two empty arrays
    spec = KernelSpec("ntk_relu", depth=2)
    with pytest.raises(ValueError, match="^k_max must be an integer >= 0"):
        dot_product_kernel_spectrum(spec, 10, -1)
    eta, degeneracy = dot_product_kernel_spectrum(spec, 10, 0)
    assert eta.shape == degeneracy.shape == (1,)


@pytest.mark.parametrize("k_max", [2.5, 2.0, None])
def test_k_max_must_be_an_integer(k_max):
    # these ended in a TypeError from np.empty or from a comparison
    spec = KernelSpec("ntk_relu", depth=2)
    with pytest.raises(ValueError, match="^k_max must be an integer >= 0"):
        dot_product_kernel_spectrum(spec, 10, k_max)


def test_synthetic_spread_must_be_finite_and_nonnegative():
    for kind, key in (("gaussian_diag", "variances"),
                      ("rectangular", "sigmas")):
        for bad in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match=rf"^{key} must be nonneg"):
                SyntheticSpec(kind, **{key: (1.0, bad)})
        assert getattr(SyntheticSpec(kind, **{key: [1, 0.5]}), key) \
            == (1.0, 0.5)


@pytest.mark.parametrize("key, value", [
    ("overlap_scale", np.nan), ("overlap_scale", -1.0),
    ("tail_eta", np.nan), ("tail_eta", -1.0), ("tail_eta", np.inf)])
def test_mode_spectrum_parameters_are_checked(key, value):
    with pytest.raises(ValueError, match=rf"^{key} must be nonnegative"):
        mode_spectrum_Eg(ETA, DEGEN, [1.0, 0.5], 10, 0.1, **{key: value})


@pytest.mark.parametrize("key", ["radius_train", "radius_test"])
@pytest.mark.parametrize("value", [np.nan, -1.0, 0.0])
def test_ntk_sphere_radii_are_positive_and_finite(key, value):
    with pytest.raises(ValueError, match=key):
        ntk_sphere_Eg(10, 2, ETA, DEGEN, [1.0, 0.5], 0.1, **{key: value})


def test_nonnegative_returns_floats_and_refuses_what_float_cannot_take():
    assert nonnegative(2, "x") == 2.0 and type(nonnegative(2, "x")) is float
    arr = nonnegative([0, 1.5], "x")
    assert arr.dtype == np.float64 and arr.tolist() == [0.0, 1.5]
    for bad in (10**400, None, "a", [1.0, np.nan], -0.5):
        with pytest.raises(ValueError, match="^x must be nonnegative"):
            nonnegative(bad, "x")
    assert positive_int(np.int64(3), "n") == 3
    for bad in (0, 2.0, None, "3"):
        with pytest.raises(ValueError, match="^n must be a positive integer"):
            positive_int(bad, "n")


def _bad_gram(kind):
    if kind == "non-square":
        return K[:, :-1]
    if kind == "wrong size":
        return gram(SPEC, np.vstack([X, X[:1] + 1.0]))
    if kind == "asymmetric":
        A = K.copy()
        A[1, 2] += 100 * SYMMETRY_RTOL * np.abs(K).max()
        return A
    A = K.copy()
    A[1, 2] = A[2, 1] = np.nan if kind == "nan" else np.inf
    return A


# every public function that takes a Gram matrix, as f(K)
GRAM_ENTRY_POINTS = {
    "mercer_decompose": lambda K: mercer_decompose(K, P_MEASURE),
    "predict_Eg_dataset": lambda K: predict_Eg_dataset(
        K, Y_GOOD, P_MEASURE, P_MEASURE, 4, 0.1, 0.0),
    "predict_Eg_train_grad": lambda K: predict_Eg_train_grad(
        K, Y_GOOD, P_MEASURE, P_MEASURE, 4, 0.1, 0.0),
    "optimize_train_measure": lambda K: optimize_train_measure(
        K, Y_GOOD, P_MEASURE, CONFIG),
    "krr_solve": lambda K: krr_solve(K, Y_GOOD, 0.1),
    "discrete_trial_error": lambda K: discrete_trial_error(
        K, Y_GOOD, P_MEASURE, P_MEASURE, 4, 0.1, 0.0,
        np.random.default_rng(0)),
    "run_learning_curve": lambda K: run_learning_curve(
        K, Y_GOOD, P_MEASURE, P_MEASURE, [4], 0.1, 0.0, 2, 0),
}


# a "wrong size" K is one that does not fit a measure; krr_solve has
# none, and its labels are checked against K's own size
@pytest.mark.parametrize("entry, kind", [
    (entry, kind) for entry in sorted(GRAM_ENTRY_POINTS)
    for kind in ("non-square", "wrong size", "nan", "inf", "asymmetric")
    if (entry, kind) != ("krr_solve", "wrong size")])
def test_bad_gram_raises_a_value_error_naming_K(entry, kind):
    GRAM_ENTRY_POINTS[entry](K)   # the good Gram runs
    with pytest.raises(ValueError, match=r"\bK\b"):
        GRAM_ENTRY_POINTS[entry](_bad_gram(kind))


def _draw(X_train):
    """run_continuous_curve on M draws that sample_train returns as
    X_train."""
    return run_continuous_curve(
        SPEC, lambda rng, n: X_train, lambda X_draw: np.ones(len(X_draw)),
        lambda X_draw, coef: 0.0, [M], 0.1, 0.0, 2, 0)


# every public function that takes a point set, and a sample_train draw,
# as f(X); only the entries in SIZED have a row count to meet, which a
# measure or the draw size sets
POINTS_ENTRY_POINTS = {
    "Dataset": lambda X_: Dataset(X_, np.ones(len(X_))),
    "gram": lambda X_: gram(SPEC, X_),
    "gram X2": lambda X_: gram(SPEC, X, X_),
    "cached_decompose": lambda X_: cached_decompose(
        SPEC, X_, P_MEASURE, DEFAULT_RANK_THRESHOLD, None),
    "decomposition_cache_key": lambda X_: decomposition_cache_key(
        SPEC, X_, P_MEASURE),
    "run_continuous_curve": _draw,
}
SIZED = ("cached_decompose", "decomposition_cache_key",
         "run_continuous_curve")


def _bad_points(kind):
    if kind == "1-D":
        return X[:, 0]
    if kind == "wrong row count":
        return np.vstack([X, X[:1]])
    X_ = X.copy()
    X_[2, 1] = np.nan if kind == "nan" else np.inf
    return X_


@pytest.mark.parametrize("entry, kind", [
    (entry, kind) for entry in sorted(POINTS_ENTRY_POINTS)
    for kind in ("1-D", "nan", "inf", "wrong row count")
    if kind != "wrong row count" or entry in SIZED])
def test_bad_points_raise_a_value_error_naming_X(entry, kind):
    POINTS_ENTRY_POINTS[entry](X)   # the good points run
    with pytest.raises(ValueError, match=r"\bX\b"):
        POINTS_ENTRY_POINTS[entry](_bad_points(kind))


def test_a_gram_within_the_symmetry_tolerance_is_fitted_symmetrized():
    # krr_solve's Cholesky factor reads one triangle: an asymmetric K
    # within SYMMETRY_RTOL is fitted as its symmetric part, and the
    # residual is of that part
    A = K.copy()
    A[1, 2] += 0.5 * SYMMETRY_RTOL * np.abs(K).max()
    fit = krr_solve(A, Y_GOOD, 0.1)
    want = krr_solve(0.5 * (A + A.T), Y_GOOD, 0.1)
    assert np.array_equal(fit.coef, want.coef)
    assert fit.residual == want.residual
    assert run_learning_curve(A, Y_GOOD, P_MEASURE, P_MEASURE, [4], 0.1,
                              0.0, 2, 0) \
        == run_learning_curve(0.5 * (A + A.T), Y_GOOD, P_MEASURE, P_MEASURE,
                              [4], 0.1, 0.0, 2, 0)


@pytest.mark.parametrize("value", [
    pytest.param(10**401, id="401 digits"), None, "a", np.nan, np.inf,
    -1.0])
@pytest.mark.parametrize("kind", ["rbf", "laplace", "linear"])
def test_bad_lengthscale_raises_a_value_error_naming_it(kind, value):
    with pytest.raises(ValueError, match="^lengthscale must be nonnegative"):
        KernelSpec(kind, lengthscale=value)
    with pytest.raises(ValueError, match="^lengthscale must be positive"):
        KernelSpec(kind, lengthscale=0)
    assert KernelSpec(kind, lengthscale=2).lengthscale == 2.0


# the names a config value is read from in cli and config
_CONFIG_READ = re.compile(r"(rc|self)\.doc|sec|syn|\w+_section")


def _read_from(node, loops):
    """The source of what node reads through subscripts and .get()
    calls, a loop variable standing for what it iterates over."""
    if isinstance(node, ast.Subscript):
        return _read_from(node.value, loops)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"):
        return _read_from(node.func.value, loops)
    if isinstance(node, ast.Name) and node.id in loops:
        return _read_from(loops[node.id],
                          {k: v for k, v in loops.items() if k != node.id})
    return ast.unparse(node)


@pytest.mark.parametrize("module", [cli, config], ids=lambda m: m.__name__)
def test_no_config_value_is_cast_again(module):
    # the schema walk makes every integer key an int and every number key
    # a float, so int() or float() of a config value is a second rule
    tree = ast.parse(inspect.getsource(module))
    loops = {node.target.id: node.iter for node in ast.walk(tree)
             if isinstance(node, (ast.For, ast.comprehension))
             and isinstance(node.target, ast.Name)}
    casts = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("int", "float") and node.args
             and _CONFIG_READ.fullmatch(_read_from(node.args[0], loops))]
    assert casts == []
