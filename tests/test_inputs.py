"""The input rules every public entry point shares: a target goes through
measures.target_columns, so a bad one raises the same ValueError
wherever it enters."""

import numpy as np
import pytest

from kernelshift.empirical import (discrete_trial_error, krr_solve,
                                   run_continuous_curve, run_learning_curve)
from kernelshift.kernels import KernelSpec, gram
from kernelshift.measures import Dataset, target_columns, uniform_measure
from kernelshift.optimizer import (OptimizerConfig, optimize_test_measure,
                                   optimize_train_measure)
from kernelshift.spectral import mercer_decompose, project_target
from kernelshift.theory import (pointwise_error_density, predict_Eg_curve,
                                predict_Eg_dataset, predict_Eg_train_grad)

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
