"""The benchmark's workloads: config generation, work units and checks.

Every workload is one kernelshift CLI command on a config generated here
from the workload seed; the program sees only that config.  All three use
an rbf kernel (lengthscale 1.5) on a 5-D diagonal Gaussian dataset with
lambda = 1e-3 and noise variance 0.01, and a test measure that is a
softmax tilt of the training one.  Sizes do not depend on the seed, so
every seed does the same amount of work.

- theory_sweep: `theory-curve`, many P per decomposition.  Training mass
  sits uniformly on 70% of the atoms; the rest are off the training
  support, and the rank threshold collapses the smallest modes, so the
  prediction takes the Nystrom and residual-moment routes.
- train_opt: `optimize-train`, one P per decomposition: the central
  finite-difference gradient makes about 800 small decompositions.
- mc_curve: `empirical-curve`, Monte Carlo KRR trials; it never touches
  the spectral, theory or optimizer layers.
"""

import csv
import json
import math
import os

import numpy as np

VARIANCES = [1.0, 0.7, 0.5, 0.3, 0.2]
LAMBDA = 1e-3
NOISE = 0.01
TILT = 0.5
REL_TOL = 1e-6
THEORY_COLUMNS = ("P", "Eg", "bias", "variance", "kappa", "irreducible")
Z_BAND = 3.0

SIZES = {
    "full": {
        "theory_sweep": {"M": 1200, "n_P": 55, "P_max": 2400,
                         "rank_threshold": 1e-8},
        "train_opt": {"M": 100, "steps": 4, "P_budget": 30},
        "mc_curve": {"M": 2000, "P_grid": [25, 50, 100, 200, 400, 800],
                     "trials": 50},
    },
    "tiny": {
        "theory_sweep": {"M": 120, "n_P": 8, "P_max": 200,
                         "rank_threshold": 1e-4},
        "train_opt": {"M": 12, "steps": 2, "P_budget": 6},
        "mc_curve": {"M": 100, "P_grid": [5, 10, 20], "trials": 6},
    },
}

NAMES = ("theory_sweep", "train_opt", "mc_curve")


def _base(rng, seed, M, command):
    return {
        "command": command,
        "seed": int(seed),
        "dataset": {"synthetic": {"kind": "gaussian_diag", "n": M,
                                  "variances": VARIANCES,
                                  "beta": rng.standard_normal(
                                      len(VARIANCES)).tolist()}},
        "kernel": {"kind": "rbf", "lengthscale": 1.5},
    }


def _tilt(rng, M):
    return {"kind": "logits", "values": (TILT * rng.standard_normal(M))
            .tolist()}


def make_config(name, seed, size="full"):
    """The run config of one workload, generated from the seed alone."""
    s = SIZES[size][name]
    rng = np.random.default_rng([int(seed), NAMES.index(name)])
    M = s["M"]
    if name == "theory_sweep":
        doc = _base(rng, seed, M, "theory-curve")
        masses = np.zeros(M)
        masses[rng.permutation(M)[:int(0.7 * M)]] = 1.0
        grid = np.unique(np.round(np.geomspace(2, s["P_max"], s["n_P"])))
        doc["measures"] = {"train": {"kind": "masses",
                                     "values": masses.tolist()},
                           "test": _tilt(rng, M)}
        doc["theory"] = {"P_grid": [int(P) for P in grid],
                         "lambda": LAMBDA, "noise": NOISE,
                         "rank_threshold": s["rank_threshold"]}
    elif name == "train_opt":
        doc = _base(rng, seed, M, "optimize-train")
        doc["measures"] = {"test": _tilt(rng, M)}
        doc["optimizer"] = {"P_budget": s["P_budget"], "lambda": LAMBDA,
                            "noise": NOISE, "steps": s["steps"]}
    elif name == "mc_curve":
        doc = _base(rng, seed, M, "empirical-curve")
        doc["measures"] = {"test": _tilt(rng, M)}
        doc["empirical"] = {"P_grid": list(s["P_grid"]),
                            "trials": s["trials"], "lambda": LAMBDA,
                            "noise": NOISE}
    else:
        raise ValueError(f"unknown workload {name!r}")
    return doc


def theory_config(doc):
    """The theory-curve run matching an mc_curve config (same problem)."""
    theory = dict(doc, command="theory-curve")
    emp = theory.pop("empirical")
    theory["theory"] = {"P_grid": emp["P_grid"], "lambda": emp["lambda"],
                        "noise": emp["noise"]}
    return theory


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: [float(r[k]) for r in rows] for k in (rows[0] if rows else {})}


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def work_units(name, out_dir):
    """Units of work a finished run completed (see BENCHMARK.json)."""
    if name == "theory_sweep":
        return len(read_csv(os.path.join(out_dir, "theory_curve.csv"))["P"])
    if name == "train_opt":
        return _read_json(os.path.join(out_dir,
                                       "optimize.json"))["steps_accepted"]
    return int(sum(read_csv(os.path.join(out_dir,
                                         "empirical_curve.csv"))["trials"]))


def reference_values(name, out_dir):
    """What reference.json stores for one workload run."""
    if name == "theory_sweep":
        cols = read_csv(os.path.join(out_dir, "theory_curve.csv"))
        return {k: cols[k] for k in THEORY_COLUMNS}
    if name == "train_opt":
        return {"Eg_final": _read_json(os.path.join(
            out_dir, "optimize.json"))["Eg_final"]}
    cols = read_csv(os.path.join(out_dir, "empirical_curve.csv"))
    return {k: cols[k] for k in ("P", "Eg_mean", "Eg_stderr")}


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _finite(values):
    return all(math.isfinite(v) for v in values)


def check(name, doc, out_dir, ref=None):
    """Errors found in a run's artifacts; empty when the run is correct.

    With `ref` (stored values for this seed) the artifacts must match it;
    otherwise only seed-independent invariants are checked.
    """
    errors = []
    try:
        if name == "theory_sweep":
            cols = read_csv(os.path.join(out_dir, "theory_curve.csv"))
            if cols["P"] != [float(P) for P in doc["theory"]["P_grid"]]:
                errors.append("theory_curve.csv rows differ from the P grid")
            for k in THEORY_COLUMNS:
                if not _finite(cols[k]):
                    errors.append(f"non-finite {k}")
            for i, (eg, b, v) in enumerate(zip(cols["Eg"], cols["bias"],
                                               cols["variance"])):
                if not _close(eg, b + v):
                    errors.append(f"row {i}: Eg != bias + variance")
            if ref is not None:
                for k in THEORY_COLUMNS:
                    bad = [i for i, (a, b) in enumerate(zip(cols[k], ref[k]))
                           if not _close(a, b)]
                    if bad or len(cols[k]) != len(ref[k]):
                        errors.append(f"{k} differs from reference at rows "
                                      f"{bad[:5]}")
        elif name == "train_opt":
            eg = read_csv(os.path.join(out_dir, "trace.csv"))["Eg"]
            if not _finite(eg):
                errors.append("non-finite Eg in trace.csv")
            if len(eg) < 2:
                errors.append("no optimizer step was accepted")
            if any(b >= a for a, b in zip(eg, eg[1:])):
                errors.append("trace Eg is not strictly decreasing")
            if ref is not None and \
                    eg[-1] > ref["Eg_final"] * (1.0 + REL_TOL):
                errors.append(f"final Eg {eg[-1]!r} above reference "
                              f"{ref['Eg_final']!r}")
        elif name == "mc_curve":
            cols = read_csv(os.path.join(out_dir, "empirical_curve.csv"))
            trials = doc["empirical"]["trials"]
            if cols["P"] != [float(P) for P in doc["empirical"]["P_grid"]]:
                errors.append("empirical_curve.csv rows differ from P grid")
            if any(t != trials for t in cols["trials"]):
                errors.append(f"trial counts differ from {trials}")
            if not _finite(cols["Eg_mean"] + cols["Eg_stderr"]):
                errors.append("non-finite Eg_mean or Eg_stderr")
            if ref is not None:
                for P, m, rm, rse in zip(cols["P"], cols["Eg_mean"],
                                         ref["Eg_mean"], ref["Eg_stderr"]):
                    if abs(m - rm) > Z_BAND * rse:
                        errors.append(f"P={P:g}: Eg_mean {m!r} more than "
                                      f"{Z_BAND} stderr from {rm!r}")
    except (OSError, KeyError, ValueError, IndexError) as exc:
        errors.append(f"unreadable artifacts: {exc!r}")
    return errors
