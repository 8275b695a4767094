"""Gradient descent on the training measure under a sampling budget.

Two Gaussian clusters with a 9:1 size imbalance are labeled +-1. With a
budget of P = 30 samples the uniform sampling rule wastes draws on the
majority cluster. Descending the predicted error with respect to the
sampling weights reallocates mass and lowers both the predicted and the
simulated error at the same budget.
"""

import argparse

import numpy as np

from kernelshift.empirical import run_learning_curve
from kernelshift.kernels import KernelSpec, gram
from kernelshift.measures import uniform_measure
from kernelshift.optimizer import OptimizerConfig, optimize_train_measure
from kernelshift.theory import predict_Eg_dataset

N_MAJOR, N_MINOR, DIM = 180, 20, 4
P_BUDGET = 30
LAM = 1e-3
STEPS = 12
TRIALS = 20


def build_instance(seed):
    rng = np.random.default_rng(seed)
    XA = rng.standard_normal((N_MAJOR, DIM))
    XA[:, 0] += 2.0
    XB = rng.standard_normal((N_MINOR, DIM))
    XB[:, 0] -= 2.0
    X = np.vstack([XA, XB])
    Y = np.concatenate([np.ones(N_MAJOR), -np.ones(N_MINOR)])[:, None]
    return X, Y


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=212)
    args = ap.parse_args()

    X, Y = build_instance(args.seed)
    K = gram(KernelSpec("rbf", lengthscale=2.0), X)
    M = len(X)
    uniform = uniform_measure(M)

    base = predict_Eg_dataset(K, Y, uniform, uniform, P_BUDGET, LAM, 0.0).Eg
    print(f"uniform sampling, predicted error at P={P_BUDGET}: {base:.4f}")

    cfg = OptimizerConfig(P_budget=P_BUDGET, lam=LAM, steps=STEPS,
                          learning_rate=3.0)
    trace = optimize_train_measure(K, Y, uniform, cfg)
    print(f"\n{'step':>5} {'predicted Eg':>13} {'participation':>14}")
    for i, (eg, pr) in enumerate(zip(trace.Eg, trace.participation)):
        print(f"{i:>5} {eg:>13.4f} {pr:>14.1f}")
    gain = 1.0 - trace.Eg[-1] / base
    print(f"predicted improvement over uniform: {gain:.1%}")

    masses = trace.final_measure.masses
    minor_mass = float(masses[N_MAJOR:].sum())
    print(f"mass on the minority cluster: {minor_mass:.3f} "
          f"(uniform would give {N_MINOR / M:.3f})")

    unif_mc = run_learning_curve(K, Y, uniform, uniform, [P_BUDGET], LAM,
                                 0.0, trials=TRIALS, seed=77)[0]
    opt_mc = run_learning_curve(K, Y, trace.final_measure, uniform,
                                [P_BUDGET], LAM, 0.0, trials=TRIALS,
                                seed=77)[0]
    print(f"\nsimulated error, uniform sampling:   "
          f"{unif_mc.Eg_mean:.4f} +- {unif_mc.Eg_stderr:.4f}")
    print(f"simulated error, optimized sampling: "
          f"{opt_mc.Eg_mean:.4f} +- {opt_mc.Eg_stderr:.4f}")


if __name__ == "__main__":
    main()
