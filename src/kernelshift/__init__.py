"""kernelshift: learning-curve theory for kernel regression under
train/test distribution shift, plus measure optimization against the
predicted error and a Monte Carlo ridge-regression harness to validate it.
"""

from .measures import (
    Dataset,
    DiscreteMeasure,
    SyntheticSpec,
    from_logits,
    load_dataset,
    synth_sample,
    uniform_measure,
)
from .kernels import KernelSpec, gram, ntk_relu_eval
from .spectral import (
    SpectralDecomposition,
    mercer_decompose,
    project_target,
)
from .theory import (
    DivergenceError,
    TheoryPrediction,
    pointwise_error_density,
    predict_Eg_curve,
    predict_Eg_dataset,
    predict_Eg_train_grad,
    solve_kappa,
)
from .closedform import (
    dot_product_kernel_spectrum,
    gaussian_linear_Eg,
    general_linear_Eg,
    hyperspherical_degeneracy,
    mode_spectrum_Eg,
    ntk_sphere_Eg,
    optimal_ridge,
)
from .empirical import (
    EmpiricalPoint,
    compare_report,
    discrete_trial_error,
    krr_solve,
    run_continuous_curve,
    run_learning_curve,
)
from .optimizer import (
    OptimizationTrace,
    OptimizerConfig,
    fd_gradient,
    optimize_test_measure,
    optimize_train_measure,
    participation_ratio,
    richardson_check,
)
from .config import RunConfig, parse_config

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DiscreteMeasure",
    "SyntheticSpec",
    "from_logits",
    "load_dataset",
    "synth_sample",
    "uniform_measure",
    "KernelSpec",
    "gram",
    "ntk_relu_eval",
    "SpectralDecomposition",
    "mercer_decompose",
    "project_target",
    "DivergenceError",
    "TheoryPrediction",
    "pointwise_error_density",
    "predict_Eg_curve",
    "predict_Eg_dataset",
    "predict_Eg_train_grad",
    "solve_kappa",
    "dot_product_kernel_spectrum",
    "gaussian_linear_Eg",
    "general_linear_Eg",
    "hyperspherical_degeneracy",
    "mode_spectrum_Eg",
    "ntk_sphere_Eg",
    "optimal_ridge",
    "EmpiricalPoint",
    "compare_report",
    "discrete_trial_error",
    "krr_solve",
    "run_continuous_curve",
    "run_learning_curve",
    "OptimizationTrace",
    "OptimizerConfig",
    "fd_gradient",
    "optimize_test_measure",
    "optimize_train_measure",
    "participation_ratio",
    "richardson_check",
    "RunConfig",
    "parse_config",
    "__version__",
]
