"""Learning curves when the test distribution is tilted away from training.

Builds a small discrete dataset, predicts the generalization error of
kernel ridge regression for a shifted test measure and for the matched
baseline, then checks the prediction against direct simulation.
"""

import argparse
import os

import numpy as np

from kernelshift.empirical import run_learning_curve
from kernelshift.kernels import KernelSpec, gram
from kernelshift.measures import from_logits, uniform_measure
from kernelshift.spectral import mercer_decompose
from kernelshift.theory import predict_Eg_curve

# moderate input dimension keeps the mode statistics close to the
# Gaussian universality the prediction relies on
P_GRID = [2, 5, 10, 20, 40, 80]
LAM = 1e-2
NOISE = 0.0025
TRIALS = 100


def build_instance(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((1200, 15))
    Y = np.tanh(X[:, :1])
    K = gram(KernelSpec("rbf", lengthscale=3.0), X)
    p = uniform_measure(len(X))
    # tilt the test measure toward large first coordinate
    pt = from_logits(0.8 * X[:, 0])
    return K, Y, p, pt


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None,
                    help="directory for an optional PNG of the curves")
    args = ap.parse_args()

    K, Y, p, pt = build_instance(args.seed)
    preds = predict_Eg_curve(mercer_decompose(K, p), Y, pt, P_GRID, LAM,
                             NOISE)
    theory = [pred.Eg for pred in preds]
    matched = [pred.Eg_matched for pred in preds]
    mc = run_learning_curve(K, Y, p, pt, P_GRID, LAM, NOISE,
                            trials=TRIALS, seed=args.seed + 1)

    print(f"{'P':>5} {'shifted theory':>15} {'matched theory':>15} "
          f"{'simulated':>12} {'stderr':>9} {'z':>6}")
    for P, th, ma, pt_ in zip(P_GRID, theory, matched, mc):
        z = (pt_.Eg_mean - th) / pt_.Eg_stderr
        print(f"{P:>5} {th:>15.6f} {ma:>15.6f} "
              f"{pt_.Eg_mean:>12.6f} {pt_.Eg_stderr:>9.6f} {z:>6.2f}")

    if args.out is not None:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not available, skipping plot")
            return
        os.makedirs(args.out, exist_ok=True)
        fig, ax = plt.subplots(figsize=(5, 3.5))
        ax.loglog(P_GRID, theory, "-", label="shifted test, theory")
        ax.loglog(P_GRID, matched, "--", label="matched test, theory")
        ax.errorbar(P_GRID, [q.Eg_mean for q in mc],
                    yerr=[q.Eg_stderr for q in mc], fmt="o", ms=4,
                    label="shifted test, simulation")
        ax.set_xlabel("training set size P")
        ax.set_ylabel("generalization error")
        ax.legend(fontsize=8)
        fig.tight_layout()
        path = os.path.join(args.out, "shifted_learning_curve.png")
        fig.savefig(path, dpi=150)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
