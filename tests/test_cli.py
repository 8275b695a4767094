"""Command line front end: artifact contracts, exit codes, and
bit-for-bit reproducibility of every run."""

import functools
import json
import math
import operator
from dataclasses import astuple, fields
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import kernelshift
from kernelshift import cli, config
from kernelshift.cli import main
from kernelshift.closedform import dot_product_kernel_spectrum
from kernelshift.config import build_dataset, load_schema
from kernelshift.figures import FIGURES, reproduce_fig3a, reproduce_figSI4
from kernelshift.io import ArtifactDir, fmt17, read_csv_columns
from kernelshift.kernels import KernelSpec, gram
from kernelshift.measures import uniform_measure
from kernelshift.spectral import mercer_decompose
from kernelshift.theory import (CURVE_COLUMNS, SupportError, TheoryPrediction,
                                pointwise_error_density, predict_Eg_curve,
                                predict_Eg_train_grad)

from archive_forgery import claim_rows, flip_first_sign


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _loaded(tmp_path, run, setup="pass", packages=("scipy", "jsonschema")):
    # the modules of the given packages (of any package when packages is
    # None) that a fresh interpreter loads while it runs the code in run,
    # after the code in setup
    src = os.path.dirname(os.path.dirname(kernelshift.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (f"import json, sys\n{setup}\nbefore = set(sys.modules)\n{run}\n"
            f"packages = {packages!r}\n"
            "print(json.dumps(sorted(m for m in set(sys.modules) - before "
            "if packages is None or m.split('.')[0] in packages)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120,
                         cwd=tmp_path)
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def test_cli_import_leaves_out_scipy_optimize_and_integrate(tmp_path):
    # every command pays for what importing the CLI and parsing its config
    # load. The kappa solver, the config checker, the Gram distances and
    # the sphere degeneracies are in-repo, and the eigensolve and the
    # Cholesky solves call LAPACK through scipy.linalg.cython_lapack,
    # which is loaded without the scipy.linalg package; so of scipy only
    # the top-level package and what that extension pulls in may load
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_base_doc(), command="decompose")))
    startup = ("import kernelshift.cli\n"
               f"kernelshift.cli.parse_config({str(cfg)!r})")
    loaded = _loaded(tmp_path, startup)
    forbidden = ("scipy.optimize", "scipy.integrate", "scipy.spatial",
                 "scipy.special", "scipy.sparse", "jsonschema")
    assert sorted(m for m in forbidden if m in loaded) == []
    assert sorted(m for m in loaded if m.startswith("scipy.linalg")) == []
    assert loaded - _loaded(tmp_path, "import scipy.linalg") == set()


def test_theory_curve_run_loads_no_scipy_module(tmp_path):
    # a lazy import would move start-up cost from setup_s into run_s; the
    # three commands cover the eigensolve, the Monte Carlo ridge fits and
    # the measure optimizer
    for command, section in (
            ("theory-curve", {"theory": {"P_grid": [2, 4, 8],
                                         "lambda": 0.1, "noise": 0.01}}),
            ("empirical-curve", {"empirical": {"P_grid": [2, 4],
                                               "trials": 4,
                                               "lambda": 0.1}}),
            ("optimize-train", {"optimizer": {"P_budget": 3,
                                              "lambda": 0.1,
                                              "steps": 3}})):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(dict(_base_doc(), command=command,
                                       **section)))
        startup = ("import kernelshift.cli as cli\n"
                   f"cli.parse_config({str(cfg)!r})")
        run = (f"assert cli.main(['--config', {str(cfg)!r}, '--out', "
               f"'{command}', '--threads', '2']) == 0")
        assert _loaded(tmp_path, run, setup=startup, packages=None) \
            == set(), command


def _base_doc():
    return {
        "dataset": {"synthetic": {"kind": "gaussian_diag", "n": 10,
                                  "variances": [1.0, 1.0, 0.5],
                                  "beta": [1.0, -0.5, 0.25]}},
        "kernel": {"kind": "rbf", "lengthscale": 1.5},
    }


def _run(tmp_path, doc, out="out", extra=(), name="cfg.json"):
    cfg = tmp_path / name
    cfg.write_text(json.dumps(doc))
    out_dir = tmp_path / out
    code = main(["--config", str(cfg), "--out", str(out_dir), *extra])
    return code, out_dir


def _read_dir(out_dir):
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def test_decompose_artifacts(tmp_path):
    doc = dict(_base_doc(), command="decompose")
    code, out = _run(tmp_path, doc)
    assert code == 0
    cols = read_csv_columns(out / "eigenvalues.csv")
    assert list(cols) == ["index", "eta", "target_power",
                          "cumulative_fraction"]
    assert np.all(np.diff(cols["eta"]) <= 0)
    assert cols["cumulative_fraction"][-1] == pytest.approx(1.0, abs=1e-12)
    info = _load_json(out / "decomposition.json")
    assert info["points"] == 10
    assert info["kernel"] == "rbf"
    assert set(info) >= {"points", "support_size", "rank", "collapsed",
                         "rank_threshold", "collapsed_target_power"}
    assert info["collapsed_target_power"] == 0.0  # full rank
    manifest = _load_json(out / "manifest.json")
    assert manifest["artifacts"] == sorted(manifest["artifacts"])
    assert "config.echo.json" in manifest["artifacts"]

    # a rank threshold that collapses two modes: one row per in-RKHS
    # mode, and the modes plus the collapsed power make up the target power
    code, out = _run(tmp_path, dict(doc, theory={"rank_threshold": 0.02}),
                     out="collapsed", name="collapsed.json")
    cols = read_csv_columns(out / "eigenvalues.csv")
    info = _load_json(out / "decomposition.json")
    assert code == 0 and info["rank"] == len(cols["eta"]) == 8
    Y = build_dataset(doc["dataset"], 0).Y
    total = float(np.mean(Y**2))  # uniform training measure
    assert info["collapsed_target_power"] > 1e-3 * total
    assert sum(cols["target_power"]) + info["collapsed_target_power"] \
        == pytest.approx(total, rel=1e-12)
    assert cols["cumulative_fraction"][-1] == pytest.approx(
        1.0 - info["collapsed_target_power"] / total, rel=1e-12)


def test_theory_curve_columns_and_17g_cells(tmp_path):
    doc = dict(_base_doc(), command="theory-curve",
               theory={"P_grid": [2, 4, 8], "lambda": 0.1, "noise": 0.01})
    code, out = _run(tmp_path, doc)
    assert code == 0
    cols = read_csv_columns(out / "theory_curve.csv")
    assert tuple(cols) == CURVE_COLUMNS
    assert np.all(np.isfinite(cols["Eg"]))
    assert np.all(cols["diverged"] == 0.0)
    # float cells must carry the full 17-significant-digit form
    lines = (out / "theory_curve.csv").read_text().strip().split("\n")
    kappa_idx = CURVE_COLUMNS.index("kappa")
    for line in lines[1:]:
        cell = line.split(",")[kappa_idx]
        assert format(float(cell), ".17g") == cell


def test_curve_columns_are_the_prediction_fields():
    assert CURVE_COLUMNS == tuple(f.name for f in fields(TheoryPrediction))
    assert CURVE_COLUMNS == ("P", "kappa", "gamma", "gamma_prime", "Eg",
                             "bias", "variance", "Eg_matched", "delta",
                             "irreducible", "diverged")


def test_theory_curve_rows_are_the_predictions(tmp_path):
    # each row is the 17g cells of astuple(pred), the diverged one too:
    # the ridgeless linear kernel has rank 3 here, so P = 3 diverges
    grid, lam, noise = [1, 3, 8], 0.0, 0.01
    doc = dict(_base_doc(), command="theory-curve", kernel={"kind": "linear"},
               theory={"P_grid": grid, "lambda": lam, "noise": noise})
    code, out = _run(tmp_path, doc)
    assert code == 0
    ds = build_dataset(doc["dataset"], 0)
    u = uniform_measure(ds.M)
    preds = predict_Eg_curve(
        mercer_decompose(gram(KernelSpec("linear"), ds.X), u), ds.Y, u,
        grid, lam, noise)
    assert [pred.diverged for pred in preds] == [False, True, False]
    lines = (out / "theory_curve.csv").read_text().split("\n")
    assert lines[0] == ",".join(CURVE_COLUMNS)
    assert lines[1:] == [",".join(map(fmt17, astuple(pred)))
                         for pred in preds] + [""]
    assert lines[2].split(",")[4:] == ["inf"] * 6 + ["1"]


def test_empirical_curve_columns(tmp_path):
    doc = dict(_base_doc(), command="empirical-curve",
               theory={"lambda": 0.1, "noise": 0.01},
               empirical={"P_grid": [2, 4], "trials": 8})
    code, out = _run(tmp_path, doc)
    assert code == 0
    cols = read_csv_columns(out / "empirical_curve.csv")
    assert list(cols) == ["P", "Eg_mean", "Eg_std", "Eg_stderr", "trials"]
    assert np.all(cols["trials"] == 8.0)


def test_optimize_train_artifacts(tmp_path):
    doc = dict(_base_doc(), command="optimize-train",
               optimizer={"P_budget": 3, "lambda": 0.1, "steps": 5})
    code, out = _run(tmp_path, doc)
    assert code == 0
    trace = read_csv_columns(out / "trace.csv")
    assert list(trace) == ["step", "Eg", "participation_ratio"]
    assert np.all(np.diff(trace["Eg"]) < 0)
    final = _load_json(out / "final_measure.json")
    assert len(final) == 10
    assert sum(final.values()) == pytest.approx(1.0, abs=1e-12)
    ranked = read_csv_columns(out / "sorted_measure.csv")
    assert np.all(np.diff(ranked["mass"]) <= 0)
    report = _load_json(out / "optimize.json")
    assert report["Eg_final"] <= report["Eg_initial"]
    assert report["steps_accepted"] == len(trace["Eg"]) - 1
    assert set(report) == {"converged", "message", "steps_accepted",
                           "Eg_initial", "Eg_final", "participation_final"}


def test_optimize_test_artifacts(tmp_path):
    doc = dict(_base_doc(), command="optimize-test",
               optimizer={"P_budget": 3, "lambda": 0.1, "steps": 40})
    code, out = _run(tmp_path, doc)
    assert code == 0
    report = _load_json(out / "optimize.json")
    ds = build_dataset(doc["dataset"], 0)
    K = gram(KernelSpec("rbf", lengthscale=1.5), ds.X)
    c = pointwise_error_density(mercer_decompose(K, uniform_measure(10)),
                                ds.Y, 3, 0.1, 0.0)
    # the exact optimum is the Dirac on the cheapest atom
    assert report["Eg_final"] == float(np.min(c))
    assert report["Eg_initial"] > report["Eg_final"]
    assert report["participation_final"] == 1.0
    assert report["steps_accepted"] == 1
    assert report["converged"]


def test_optimize_test_ignores_step_settings(tmp_path):
    # only the echoed config and its hash in the manifest record the step
    # settings; every result file is the same bytes
    runs = []
    for idx, steps in enumerate(({"steps": 1, "learning_rate": 1e-3,
                                  "convergence_tol": 1.0},
                                 {"steps": 5000, "learning_rate": 20.0,
                                  "convergence_tol": 1e-9})):
        doc = dict(_base_doc(), command="optimize-test",
                   optimizer={"P_budget": 3, "lambda": 0.1, "noise": 0.01,
                              "mode": "ascent", **steps})
        code, out = _run(tmp_path, doc, out=f"o{idx}", name=f"o{idx}.json")
        assert code == 0
        files = _read_dir(out)
        assert files.pop("config.echo.json") and files.pop("manifest.json")
        runs.append(files)
    assert set(runs[0]) == {"trace.csv", "final_measure.json",
                            "sorted_measure.csv", "optimize.json"}
    assert runs[0] == runs[1]


def test_closed_form_curve(tmp_path):
    doc = {"command": "closed-form",
           "closed_form": {"model": "general_linear", "M": 10, "M_r": 4,
                           "M_s": 10, "beta": [1.0] * 10, "lambda": 0.05,
                           "noise": 0.1, "P_grid": [2, 5, 20]}}
    code, out = _run(tmp_path, doc)
    assert code == 0
    cols = read_csv_columns(out / "closed_form_curve.csv")
    # closed forms and dataset curves share one row format
    assert tuple(cols) == CURVE_COLUMNS
    assert np.all(np.isfinite(cols["Eg"]))
    assert np.all(np.diff(cols["Eg"]) < 0)


def test_spectrum_golden(tmp_path):
    doc = {"command": "spectrum",
           "kernel": {"kind": "ntk_relu", "depth": 2},
           "spectrum": {"D": 10, "k_max": 5}}
    code, out = _run(tmp_path, doc)
    assert code == 0
    cols = read_csv_columns(out / "spectrum.csv")
    assert list(cols["k"]) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert cols["degeneracy"][1] == 10.0
    eta, _ = dot_product_kernel_spectrum(KernelSpec("ntk_relu", depth=2),
                                         10, 5)
    np.testing.assert_allclose(cols["eta"], eta, rtol=1e-12)


def test_compare_pipeline(tmp_path):
    theory_doc = dict(_base_doc(), command="theory-curve",
                      theory={"P_grid": [2, 4], "lambda": 0.1,
                              "noise": 0.01})
    _, theory_out = _run(tmp_path, theory_doc, out="t", name="t.json")
    emp_doc = dict(_base_doc(), command="empirical-curve",
                   theory={"lambda": 0.1, "noise": 0.01},
                   empirical={"P_grid": [2, 4], "trials": 60})
    _, emp_out = _run(tmp_path, emp_doc, out="e", name="e.json")
    cmp_doc = {"command": "compare",
               "compare": {"theory_csv": str(theory_out /
                                             "theory_curve.csv"),
                           "empirical_csv": str(emp_out /
                                                "empirical_curve.csv")}}
    code, out = _run(tmp_path, cmp_doc, out="c", name="c.json")
    assert code == 0
    report = _load_json(out / "compare.json")
    assert report["band"] == 3.0
    assert len(report["rows"]) == 2
    assert {"P", "Eg_theory", "Eg_mean", "z", "within"} <= \
        set(report["rows"][0])


def _strict_json(path):
    # json.loads takes NaN and Infinity by default; JSON does not
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_compare_of_diverged_theory_is_strict_json(tmp_path):
    # the ridgeless linear kernel diverges at P = 2 = its rank, so the
    # theory is inf, every z is infinite and no fraction is defined
    data = {"dataset": {"synthetic": {"kind": "gaussian_diag", "n": 20,
                                      "variances": [1.0, 0.5],
                                      "beta": [1.0, -0.5]}},
            "kernel": {"kind": "linear"}}
    code, theory_out = _run(tmp_path, dict(
        data, command="theory-curve",
        theory={"P_grid": [2, 2], "lambda": 0.0, "noise": 0.1}),
        out="t", name="t.json")
    assert code == 3
    code, emp_out = _run(tmp_path, dict(
        data, command="empirical-curve",
        empirical={"P_grid": [2, 2], "trials": 4, "lambda": 0.0,
                   "noise": 0.1}), out="e", name="e.json")
    assert code == 0
    code, out = _run(tmp_path, {"command": "compare", "compare": {
        "theory_csv": str(theory_out / "theory_curve.csv"),
        "empirical_csv": str(emp_out / "empirical_curve.csv")}},
        out="c", name="c.json")
    assert code == 0
    report = _strict_json(out / "compare.json")
    assert report["fraction_within"] is None
    assert report["max_abs_z"] is None
    assert not report["all_within"]
    for row in report["rows"]:
        assert row["Eg_theory"] is None and row["z"] is None
        assert math.isfinite(row["Eg_mean"]) and not row["within"]


def test_compare_grid_mismatch_exits_2(tmp_path, capsys):
    theory_doc = dict(_base_doc(), command="theory-curve",
                      theory={"P_grid": [2, 4], "lambda": 0.1})
    _, theory_out = _run(tmp_path, theory_doc, out="t", name="t.json")
    emp_doc = dict(_base_doc(), command="empirical-curve",
                   theory={"lambda": 0.1},
                   empirical={"P_grid": [2, 5], "trials": 4})
    _, emp_out = _run(tmp_path, emp_doc, out="e", name="e.json")
    cmp_doc = {"command": "compare",
               "compare": {"theory_csv": str(theory_out /
                                             "theory_curve.csv"),
                           "empirical_csv": str(emp_out /
                                                "empirical_curve.csv")}}
    code, _ = _run(tmp_path, cmp_doc, out="c", name="c.json")
    assert code == 2
    assert "grids differ" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["no_Eg_std", "missing", "ragged"])
def test_unreadable_compare_input_exits_2(tmp_path, capsys, damage):
    theory = tmp_path / "theory.csv"
    theory.write_text("P,Eg\n2,0.5\n4,0.25\n")
    empirical = tmp_path / "empirical.csv"
    empirical.write_text("P,Eg_mean,Eg_std,Eg_stderr,trials\n"
                         "2,0.5,0.1,0.01,100\n4,0.25,0.1,0.01,100\n")
    doc = {"command": "compare",
           "compare": {"theory_csv": str(theory),
                       "empirical_csv": str(empirical)}}
    code, out = _run(tmp_path, doc)
    assert code == 0 and (out / "compare.json").exists()
    if damage == "no_Eg_std":
        empirical.write_text("P,Eg_mean,Eg_stderr,trials\n"
                             "2,0.5,0.01,100\n4,0.25,0.01,100\n")
    elif damage == "missing":
        empirical.unlink()
    else:
        empirical.write_text("P,Eg_mean,Eg_std,Eg_stderr,trials\n"
                             "2,0.5,0.1,0.01,100\n4,0.25\n")
    code, _ = _run(tmp_path, doc, out="damaged")
    assert code == 2
    err = capsys.readouterr().err
    assert "/compare/empirical_csv" in err and str(empirical) in err
    assert {"no_Eg_std": "['Eg_std']", "missing": "No such file",
            "ragged": "does not fit"}[damage] in err


def test_compare_input_with_a_repeated_column_exits_2(tmp_path, capsys):
    theory = tmp_path / "theory.csv"
    theory.write_text("P,Eg,Eg\n2,0.5,9.0\n4,0.25,9.0\n")
    empirical = tmp_path / "empirical.csv"
    empirical.write_text("P,Eg_mean,Eg_std,Eg_stderr,trials\n"
                         "2,0.5,0.1,0.01,100\n4,0.25,0.1,0.01,100\n")
    code, _ = _run(tmp_path, {"command": "compare", "compare": {
        "theory_csv": str(theory), "empirical_csv": str(empirical)}})
    assert code == 2
    err = capsys.readouterr().err
    assert "/compare/theory_csv" in err and "repeated column name" in err


_COMPARE_INPUTS = {
    "theory": ("P", "Eg"), "empirical": ("P", "Eg_mean", "Eg_std",
                                         "Eg_stderr", "trials")}


@pytest.mark.parametrize("name, column, value", [
    ("theory", "P", "inf"), ("theory", "P", "nan"), ("theory", "P", "2.5"),
    ("theory", "P", "0"), ("empirical", "P", "inf"),
    ("empirical", "P", "nan"), ("empirical", "Eg_mean", "nan"),
    ("empirical", "Eg_stderr", "inf"), ("empirical", "trials", "-inf"),
    ("theory", "Eg", "nan"), ("theory", "Eg", "-inf"),
])
def test_compare_input_outside_its_column_rule_exits_2(tmp_path, capsys,
                                                       name, column, value):
    # P = inf ended in an OverflowError traceback, P = nan named neither
    # file nor column, and a NaN Eg_mean gave "z": null with exit 0
    rows = {"theory": [["2", "0.5"], ["4", "inf"]],   # a diverged row
            "empirical": [["2", "0.5", "0.1", "0.01", "100"],
                          ["4", "0.25", "0.1", "0.01", "100"]]}
    paths = {}
    for side, header in _COMPARE_INPUTS.items():
        paths[side] = tmp_path / f"{side}.csv"
        paths[side].write_text("\n".join(
            ",".join(row) for row in [header, *rows[side]]) + "\n")
    doc = {"command": "compare",
           "compare": {f"{side}_csv": str(path)
                       for side, path in paths.items()}}
    code, out = _run(tmp_path, doc)
    assert code == 0 and (out / "compare.json").exists()
    rows[name][0][_COMPARE_INPUTS[name].index(column)] = value
    paths[name].write_text("\n".join(
        ",".join(row) for row in [_COMPARE_INPUTS[name], *rows[name]]))
    code, out = _run(tmp_path, doc, out="bad")
    assert code == 2
    err = capsys.readouterr().err
    assert f"/compare/{name}_csv: {paths[name]} column {column} must " in err
    assert not (out / "compare.json").exists()


def test_gradcheck_report(tmp_path):
    doc = dict(_base_doc(), command="gradcheck",
               optimizer={"P_budget": 3, "lambda": 0.1, "noise": 0.01})
    code, out = _run(tmp_path, doc)
    assert code == 0
    report = _load_json(out / "gradcheck.json")
    assert report["train_fd_richardson"]["ok"]
    assert report["train_fd_richardson"]["rel_err"] < 1e-4
    assert report["train_analytic"]["ok"]
    assert report["train_analytic"]["tolerance"] == 1e-6
    assert report["train_analytic"]["rel_err"] < 1e-6


def test_optimize_train_and_gradcheck_honour_rank_threshold(tmp_path):
    opt = {"P_budget": 3, "lambda": 0.1, "noise": 0.01, "steps": 2}
    doc = dict(_base_doc(), command="optimize-train", optimizer=opt)
    thr_doc = dict(doc, theory={"rank_threshold": 0.02})
    _, out = _run(tmp_path, doc, out="default", name="d.json")
    _, out_thr = _run(tmp_path, thr_doc, out="thr", name="t.json")
    eg = _load_json(out / "optimize.json")["Eg_initial"]
    eg_thr = _load_json(out_thr / "optimize.json")["Eg_initial"]
    ds = build_dataset(doc["dataset"], 0)
    K = gram(KernelSpec("rbf", lengthscale=1.5), ds.X)
    assert mercer_decompose(K, uniform_measure(10), 0.02).rank == 8
    assert eg_thr == predict_Eg_train_grad(K, ds.Y, uniform_measure(10),
                                           uniform_measure(10), 3, 0.1, 0.01,
                                           rank_threshold=0.02)[0]
    assert eg_thr != eg

    code, out = _run(tmp_path, dict(thr_doc, command="gradcheck"),
                     out="grad", name="g.json")
    assert code == 0
    report = _load_json(out / "gradcheck.json")
    assert report["train_analytic"]["ok"]
    assert report["train_fd_richardson"]["ok"]


def test_unknown_command_exits_2(tmp_path, capsys):
    code, _ = _run(tmp_path, {"command": "solve-everything"})
    assert code == 2
    assert "/command" in capsys.readouterr().err


def test_missing_section_exits_2(tmp_path, capsys):
    doc = dict(_base_doc(), command="theory-curve")
    code, _ = _run(tmp_path, doc)
    assert code == 2
    assert "/theory" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, pointer", [
    ("theory-curve", {"theory": {"lambda": 0.1}}, "/theory/P_grid"),
    ("empirical-curve", {"empirical": {"trials": 2}}, "/empirical/P_grid"),
    ("theory-curve", {"theory": {"P_grid": [2]},
                      "measures": {"test": {"kind": "logits"}}}, "/measures"),
    ("empirical-curve", {"empirical": {"P_grid": [2]},
                         "measures": {"train": {"kind": "masses",
                                                "values": [0.0, 0.0]}}},
     "/measures"),
    ("decompose", {"dataset": {"synthetic": {"kind": "sphere", "n": 5,
                                             "beta": [1.0], "dim": 2}}},
     "/dataset/synthetic"),
    ("decompose", {"dataset": {"synthetic": {"kind": "gaussian_diag", "n": 5,
                                             "variances": [1.0, 0.5],
                                             "beta": [1.0]}}},
     "/dataset/synthetic/beta"),
    ("spectrum", {"spectrum": {"D": 5, "k_max": 3}}, "/kernel/kind"),
])
def test_document_errors_exit_2_before_any_data_is_built(
        tmp_path, capsys, monkeypatch, command, section, pointer):
    def unreachable(*args, **kwargs):
        raise AssertionError("built data for an invalid config")

    monkeypatch.setattr(cli, "build_dataset", unreachable)
    monkeypatch.setattr(cli, "gram", unreachable)
    code, out = _run(tmp_path, dict(_base_doc(), command=command, **section))
    assert code == 2
    assert f"{pointer}:" in capsys.readouterr().err
    assert not out.exists()


def _forbid_gram(monkeypatch, why):
    # every kernelshift module's binding of kernels.gram, so no kernel
    # block is built by any route
    def unreachable(*args, **kwargs):
        raise AssertionError(why)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kernelshift" \
                and getattr(module, "gram", None) is gram:
            monkeypatch.setattr(module, "gram", unreachable)


def test_measure_length_is_checked_before_the_gram(tmp_path, capsys,
                                                  monkeypatch):
    _forbid_gram(monkeypatch, "built the Gram for a measure that does not fit")
    doc = dict(_base_doc(), command="theory-curve", theory={"P_grid": [2]},
               measures={"train": {"kind": "masses", "values": [1.0] * 9}})
    code, _ = _run(tmp_path, doc)
    assert code == 2
    assert "/measures:" in capsys.readouterr().err


def test_threads_key_exits_2(tmp_path, capsys):
    # --threads is the only thread setting
    doc = dict(_base_doc(), command="decompose", threads=2)
    code, _ = _run(tmp_path, doc)
    assert code == 2
    assert "/threads" in capsys.readouterr().err


@pytest.mark.parametrize("constant", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("command, section, key", [
    ("theory-curve", "theory", "lambda"),
    ("theory-curve", "theory", "noise"),
    ("empirical-curve", "empirical", "lambda"),
    ("theory-curve", "dataset", "variances"),
])
def test_non_json_number_exits_2_before_any_data_is_built(
        tmp_path, capsys, monkeypatch, command, section, key, constant):
    # json.dumps writes NaN, Infinity and -Infinity; strict JSON has none
    def unreachable(*args, **kwargs):
        raise AssertionError("built data for a config that is not JSON")

    monkeypatch.setattr(cli, "build_dataset", unreachable)
    doc = dict(_base_doc(), command=command,
               theory={"P_grid": [2, 4], "lambda": 0.1, "noise": 0.01},
               empirical={"P_grid": [2, 4], "trials": 4})
    if section == "dataset":
        doc["dataset"]["synthetic"]["variances"][0] = constant
    else:
        doc[section][key] = constant
    code, out = _run(tmp_path, doc)
    assert code == 2
    assert "is not a JSON number" in capsys.readouterr().err
    assert not (out / f"{command.split('-')[0]}_curve.csv").exists()


@pytest.mark.parametrize("command, pointer", [
    ("compare", "compare/band"),
    ("theory-curve", "kernel/lengthscale"),
    ("theory-curve", "theory/lambda"),
    ("theory-curve", "dataset/synthetic/variances"),
])
def test_json_number_beyond_float_range_exits_2_before_any_data_is_built(
        tmp_path, capsys, monkeypatch, command, pointer):
    # json.load reads 1e400 as inf unless parse_float refuses it
    def unreachable(*args, **kwargs):
        raise AssertionError("built data for a config that is not JSON")

    monkeypatch.setattr(cli, "build_dataset", unreachable)
    if command == "compare":
        doc = {"command": command, "compare": {
            "theory_csv": "theory.csv", "empirical_csv": "empirical.csv"}}
    else:
        doc = dict(_base_doc(), command=command,
                   theory={"P_grid": [2, 4], "lambda": 0.1})
    *path, key = pointer.split("/")
    section = functools.reduce(dict.__getitem__, path, doc)
    section[key] = [0.123456789] if key == "variances" else 0.123456789
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc).replace("0.123456789", "1e400"))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert "1e400 is beyond the float range" in capsys.readouterr().err
    assert not out.exists()


def test_lengthscale_beyond_float_range_exits_2(tmp_path, capsys):
    # a JSON integer of 401 digits parses, and no float holds it
    doc = dict(_base_doc(), command="decompose")
    doc["kernel"]["lengthscale"] = 10**400
    code, out = _run(tmp_path, doc)
    assert code == 2
    assert re.search(r"/kernel/lengthscale: 1000+\.\.\.0+ is beyond the "
                     "float range", capsys.readouterr().err)
    assert not (out / "eigenvalues.csv").exists()


@pytest.mark.parametrize("command, pointer", [
    ("closed-form", "closed_form/lambda"),
    ("optimize-train", "optimizer/learning_rate"),
    ("theory-curve", "dataset/synthetic/beta/0"),
    ("theory-curve", "measures/train/values/0"),
    ("compare", "compare/band"),
])
def test_json_integer_beyond_float_range_exits_2_before_any_data_is_built(
        tmp_path, capsys, monkeypatch, command, pointer):
    # parse_float never sees an integer literal; the schema walk refuses
    # one that no float holds at its own pointer
    def unreachable(*args, **kwargs):
        raise AssertionError("built data for a config beyond float range")

    monkeypatch.setattr(cli, "build_dataset", unreachable)
    doc = dict(_base_doc(), command=command,
               measures={"train": {"kind": "masses", "values": [1.0] * 10}},
               theory={"P_grid": [2, 4]},
               optimizer={"P_budget": 4, "steps": 2},
               closed_form=dict(_CLOSED_FORM_MODELS["general_linear"],
                                model="general_linear", P_grid=[4]),
               compare={"theory_csv": "t.csv", "empirical_csv": "e.csv"})
    *path, key = [int(part) if part.isdigit() else part
                  for part in pointer.split("/")]
    functools.reduce(operator.getitem, path, doc)[key] = 10**400
    code, out = _run(tmp_path, doc)
    assert code == 2
    assert re.search(rf"config error: /{pointer}: 1000+\.\.\.0+ is beyond "
                     "the float range", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "1-D"])
def test_malformed_dataset_points_exit_2_naming_X(tmp_path, capsys, bad):
    # a config carries points only through a dataset file, which goes
    # through measures.points
    if bad == "1-D":
        path = tmp_path / "points.npz"
        np.savez(path, X=np.arange(4.0), Y=np.arange(4.0))
    else:
        path = tmp_path / "points.csv"
        path.write_text(f"f0,f1,y0\n0,1,2\n{bad},1,2\n1,0,1\n")
    doc = dict(_base_doc(), command="decompose",
               dataset={"path": str(path)})
    code, out = _run(tmp_path, doc)
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and re.search(r"\bX\b", err)
    assert not (out / "eigenvalues.csv").exists()


def test_theory_p_beyond_float_range_exits_2(tmp_path, capsys):
    # 10**400 is a schema-valid JSON integer that no float holds
    doc = dict(_base_doc(), command="theory-curve",
               theory={"P_grid": [2, 10**400], "lambda": 0.1})
    code, out = _run(tmp_path, doc)
    assert code == 2
    assert "P must be nonnegative" in capsys.readouterr().err
    assert not (out / "theory_curve.csv").exists()


def test_integral_float_monte_carlo_p_runs(tmp_path):
    # the schema takes 2.0 as an integer, so the run reads it as 2
    doc = dict(_base_doc(), command="empirical-curve",
               empirical={"P_grid": [2.0, 4], "trials": 4, "lambda": 0.1})
    code, out = _run(tmp_path, doc)
    assert code == 0
    assert list(read_csv_columns(out / "empirical_curve.csv")["P"]) \
        == [2.0, 4.0]


@pytest.mark.parametrize("P", [10**400, 2**40])
def test_monte_carlo_p_beyond_the_draw_budget_exits_2(tmp_path, capsys, P):
    # 10**400 overflowed the draw and 2**40 would need 8 TB of draws
    doc = dict(_base_doc(), command="empirical-curve",
               empirical={"P_grid": [2, P], "trials": 2, "lambda": 0.1})
    code, out = _run(tmp_path, doc)
    assert code == 2
    assert "P = " in capsys.readouterr().err
    assert not (out / "empirical_curve.csv").exists()


def test_integral_float_sphere_dim_runs_as_the_integer(tmp_path):
    # the schema takes 3.0 as an integer; only the config's own bytes,
    # echoed and hashed, may differ
    runs = []
    for dim in (3, 3.0):
        doc = dict(_base_doc(), command="theory-curve",
                   theory={"P_grid": [2, 4], "lambda": 0.1})
        doc["dataset"] = {"synthetic": {"kind": "sphere", "n": 8,
                                        "radius": 1.0, "dim": dim,
                                        "beta": [1.0, 0.5, -0.2]}}
        code, out = _run(tmp_path, doc, out=f"dim{dim}")
        assert code == 0
        files = _read_dir(out)
        del files["config.echo.json"]
        manifest = json.loads(files.pop("manifest.json"))
        del manifest["config_sha256"]
        runs.append((files, manifest))
    assert runs[0] == runs[1]


def test_unreadable_dataset_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(3)
    X, Y = rng.standard_normal((10, 3)), rng.standard_normal(10)
    np.savez(tmp_path / "data.npz", X=X, Y=Y)
    doc = {"dataset": {"path": str(tmp_path / "data.npz")},
           "kernel": {"kind": "rbf"}, "command": "decompose"}
    code, out = _run(tmp_path, doc)
    assert code == 0
    assert _load_json(out / "decomposition.json")["points"] == 10
    (tmp_path / "junk.npz").write_bytes(b"PK\x03\x04" + bytes(60))
    doc["dataset"]["path"] = str(tmp_path / "junk.npz")
    code, _ = _run(tmp_path, doc, out="junk")
    assert code == 2
    err = capsys.readouterr().err
    assert "junk.npz" in err and "Accepted formats" in err
    # a header claiming 2^40 rows fails its CRC before numpy allocates
    forged = tmp_path / "forged.npz"
    forged.write_bytes(claim_rows((tmp_path / "data.npz").read_bytes(),
                                  "X.npy", 2**40))
    doc["dataset"]["path"] = str(forged)
    code, _ = _run(tmp_path, doc, out="forged")
    assert code == 2
    assert "corrupt member 'X.npy'" in capsys.readouterr().err


def test_three_dimensional_targets_exit_2(tmp_path, capsys):
    rng = np.random.default_rng(4)
    np.savez(tmp_path / "data.npz", X=rng.standard_normal((3, 2)),
             Y=rng.standard_normal((3, 2, 2)))
    doc = {"dataset": {"path": str(tmp_path / "data.npz")},
           "kernel": {"kind": "rbf"}, "command": "decompose"}
    code, _ = _run(tmp_path, doc)
    assert code == 2
    err = capsys.readouterr().err
    assert "Y must be 2-D (M, C) or 1-D (M,), got shape (3, 2, 2)" in err


@pytest.mark.parametrize("flag", ["--out", "--cache"])
def test_flag_naming_a_file_exits_2(tmp_path, capsys, flag):
    taken = tmp_path / "taken"
    taken.write_text("")
    doc = dict(_base_doc(), command="decompose")
    if flag == "--out":
        code, _ = _run(tmp_path, doc, out="taken")
    else:
        code, _ = _run(tmp_path, doc, extra=("--cache", str(taken)))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("kernelshift: error:") and "taken" in err
    assert err.count("\n") == 1


def test_all_diverged_closed_form_exits_3(tmp_path, capsys):
    doc = {"command": "closed-form",
           "closed_form": {"model": "general_linear", "M": 10, "M_r": 10,
                           "M_s": 10, "beta": [1.0] * 10, "lambda": 0.0,
                           "noise": 0.1, "P_grid": [10]}}
    code, out = _run(tmp_path, doc)
    assert code == 3
    assert "diverged" in capsys.readouterr().err
    cols = read_csv_columns(out / "closed_form_curve.csv")
    assert cols["diverged"][0] == 1.0
    assert os.path.exists(out / "manifest.json")  # run is still recorded


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k_max", [3, 6])
def test_ntk_sphere_zero_eigenvalue_stage_is_finite(tmp_path, k_max):
    # degree 3 of the depth-2 ReLU NTK on the 5-sphere has eigenvalue 0,
    # and the kernel trace above degree 3 is its ridge whatever k_max is
    eta, _ = dot_product_kernel_spectrum(KernelSpec("ntk_relu", depth=2), 5,
                                         k_max)
    assert eta[3] == 0.0
    doc = {"command": "closed-form",
           "closed_form": {"model": "ntk_sphere", "D": 5, "depth": 2,
                           "k_max": k_max, "k_stage": 3,
                           "abar_sq": [0.0, 1.0, 0.5, 0.2], "lambda": 0.0,
                           "P_grid": [5, 20, 80]}}
    code, out = _run(tmp_path, doc)
    assert code == 0
    cols = read_csv_columns(out / "closed_form_curve.csv")
    assert np.all(np.isfinite(cols["Eg"]))
    assert np.all(np.isfinite(cols["kappa"]))
    # a degree the kernel cannot learn keeps its whole target power
    np.testing.assert_allclose(cols["Eg"], 0.2, rtol=1e-12)


# a minimal config of each closed-form model
_CLOSED_FORM_MODELS = {
    "gaussian_linear": {"beta": [1.0, 0.5], "covariance": [[1.0, 0.0],
                                                           [0.0, 0.5]],
                        "covariance_tilde": [[1.0, 0.0], [0.0, 1.0]]},
    "general_linear": {"M": 3, "M_r": 2, "M_s": 3, "beta": [1.0, 0.5, 0.2]},
    "ntk_sphere": {"D": 5, "depth": 2, "k_max": 3, "abar_sq": [0.0, 1.0]},
}


@pytest.mark.parametrize(
    "model", load_schema()["properties"]["closed_form"]["properties"]
    ["model"]["enum"])
def test_every_closed_form_model_runs(tmp_path, model):
    doc = {"command": "closed-form",
           "closed_form": dict(_CLOSED_FORM_MODELS[model], model=model,
                               P_grid=[1, 4], **{"lambda": 0.01})}
    code, out = _run(tmp_path, doc)
    assert code == 0
    assert np.all(np.isfinite(
        read_csv_columns(out / "closed_form_curve.csv")["Eg"]))


@pytest.mark.parametrize("key, value", [("abar_sq", [0.0, 1.0, 0.5, 0.2]),
                                        ("k_stage", 3)])
def test_ntk_sphere_key_beyond_k_max_exits_2(tmp_path, capsys, key, value):
    sec = dict(_CLOSED_FORM_MODELS["ntk_sphere"], model="ntk_sphere",
               k_max=2, P_grid=[4])
    code, _ = _run(tmp_path, {"command": "closed-form",
                              "closed_form": dict(sec, **{key: value})})
    assert code == 2
    assert f"/closed_form/{key}" in capsys.readouterr().err


@pytest.mark.parametrize("D", [1, 2])
def test_ntk_sphere_below_three_dimensions_exits_2(tmp_path, capsys, D):
    sec = dict(_CLOSED_FORM_MODELS["ntk_sphere"], model="ntk_sphere", D=D,
               P_grid=[4])
    code, _ = _run(tmp_path, {"command": "closed-form", "closed_form": sec})
    assert code == 2
    assert "/closed_form/D" in capsys.readouterr().err


def test_ntk_sphere_closed_form_matches_figSI4_theory(tmp_path):
    # the same parameters give the same bits through the CLI as through
    # the figure; the theory curve does not depend on the trial count
    reproduce_figSI4(ArtifactDir(str(tmp_path / "fig")), 0, trials=2)
    with open(tmp_path / "fig" / "theory_figSI4.csv") as fh:
        fig_rows = fh.read().splitlines()[1:]
    for radius in (1.0, 0.5):
        doc = {"command": "closed-form",
               "closed_form": {"model": "ntk_sphere", "D": 10, "depth": 2,
                               "k_max": 30, "abar_sq": [0.0, 1.0],
                               "lambda": 0.01, "noise": 0.05,
                               "radius_test": radius,
                               "P_grid": [5, 10, 20, 40, 80, 160, 320]}}
        code, out = _run(tmp_path, doc, out=f"r{radius}")
        assert code == 0
        with open(out / "closed_form_curve.csv") as fh:
            rows = fh.read().splitlines()[1:]
        assert [r.split(",", 1)[1] for r in fig_rows
                if float(r.split(",", 1)[0]) == radius] == rows


def test_echo_records_only_the_settings_a_command_reads(tmp_path,
                                                        monkeypatch):
    reads = {"optimize-train": {"learning_rate", "steps", "mode",
                                "convergence_tol"},
             "optimize-test": {"mode"},
             "gradcheck": {"fd_step"}}
    for command, keys in reads.items():
        doc = dict(_base_doc(), command=command,
                   optimizer={"P_budget": 3, "lambda": 0.1, "steps": 2})
        code, out = _run(tmp_path, doc, out=command, name=f"{command}.json")
        assert code == 0
        echo = _load_json(out / "config.echo.json")
        assert set(echo["optimizer"]) == keys | {"P_budget", "lambda",
                                                 "noise", "steps"}
        assert echo["theory"] == {"rank_threshold": 1e-12}
        # optimize-test starts from the uniform test measure; the other two
        # optimize the training measure
        assert set(echo["measures"]) == (
            {"train"} if command == "optimize-test" else {"test"})
        assert "threads" not in echo
    # a section the command does not read is echoed exactly as written
    empirical = {"P_grid": [2], "trials": 3}
    doc = dict(_base_doc(), command="theory-curve", empirical=empirical,
               theory={"P_grid": [2, 4]})
    code, out = _run(tmp_path, doc, out="unread", name="unread.json")
    assert code == 0
    assert _load_json(out / "config.echo.json")["empirical"] == empirical
    # the decomposition runs at the threshold the echo records
    monkeypatch.setitem(config._COMMANDS["decompose"]["theory"],
                        "rank_threshold", 0.02)
    code, out = _run(tmp_path, dict(_base_doc(), command="decompose"),
                     out="thr", name="thr.json")
    assert code == 0
    assert _load_json(out / "config.echo.json")["theory"] == {
        "rank_threshold": 0.02}
    assert _load_json(out / "decomposition.json")["rank"] == 8


def test_optimizer_target_key_exits_2(tmp_path, capsys):
    doc = dict(_base_doc(), command="optimize-test",
               optimizer={"P_budget": 3, "lambda": 0.1, "steps": 3})
    code, out = _run(tmp_path, doc)
    assert code == 0
    echo = _load_json(out / "config.echo.json")
    assert "target" not in echo["optimizer"]
    doc["optimizer"]["target"] = "test_measure"
    code, _ = _run(tmp_path, doc, out="with_target")
    assert code == 2
    assert "/optimizer/target" in capsys.readouterr().err


def test_fd_step_below_floor_exits_2(tmp_path, capsys):
    # a step below 1e-5 is rejected, not run at 1e-5 under an echo that
    # shows the smaller value
    doc = dict(_base_doc(), command="gradcheck",
               optimizer={"P_budget": 3, "lambda": 0.1, "fd_step": 1e-6})
    code, out = _run(tmp_path, doc)
    assert code == 2
    assert "/optimizer/fd_step" in capsys.readouterr().err
    assert not out.exists()


def test_config_out_is_the_default_artifact_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(_base_doc(), command="decompose",
                                   out="from_config")))
    assert main(["--config", str(cfg)]) == 0
    assert (tmp_path / "from_config" / "decomposition.json").exists()
    assert not (tmp_path / "out").exists()
    # --out still wins over the config
    assert main(["--config", str(cfg), "--out", "flag"]) == 0
    assert (tmp_path / "flag" / "decomposition.json").exists()


def test_optimizer_divergent_start_exits_3(tmp_path, capsys):
    doc = {"command": "optimize-train",
           "dataset": {"synthetic": {"kind": "gaussian_diag", "n": 8,
                                     "variances": [1.0] * 8,
                                     "beta": [1.0] * 8}},
           "kernel": {"kind": "linear"},
           "optimizer": {"P_budget": 8, "lambda": 0.0, "steps": 3}}
    code, out = _run(tmp_path, doc)
    assert code == 3
    assert "diverge" in capsys.readouterr().err
    assert os.path.exists(out / "manifest.json")


def test_support_error_exits_2(tmp_path, capsys, monkeypatch):
    # the CLI only evaluates the gradient at uniform masses, so stand in
    # for an underflowed training mass
    def underflowed(*args, **kwargs):
        raise SupportError("the training-mass gradient needs full support")

    monkeypatch.setattr(cli, "predict_Eg_train_grad", underflowed)
    doc = dict(_base_doc(), command="gradcheck",
               optimizer={"P_budget": 3, "lambda": 0.1, "noise": 0.01})
    code, _ = _run(tmp_path, doc)
    assert code == 2
    assert "full support" in capsys.readouterr().err


def test_reruns_are_byte_identical(tmp_path):
    for idx, doc in enumerate((
            dict(_base_doc(), command="decompose"),
            dict(_base_doc(), command="theory-curve",
                 theory={"P_grid": [2, 4], "lambda": 0.1, "noise": 0.01}),
            dict(_base_doc(), command="empirical-curve",
                 theory={"lambda": 0.1},
                 empirical={"P_grid": [2, 4], "trials": 8}),
            dict(_base_doc(), command="optimize-test",
                 optimizer={"P_budget": 3, "lambda": 0.1, "steps": 10}))):
        code_a, out_a = _run(tmp_path, doc, out=f"a{idx}",
                             name=f"a{idx}.json")
        code_b, out_b = _run(tmp_path, doc, out=f"b{idx}",
                             name=f"b{idx}.json")
        assert code_a == code_b == 0
        assert _read_dir(out_a) == _read_dir(out_b)


def test_threads_flag_does_not_change_bytes(tmp_path):
    doc = dict(_base_doc(), command="empirical-curve",
               theory={"lambda": 0.1},
               empirical={"P_grid": [2, 4], "trials": 12})
    _, out1 = _run(tmp_path, doc, out="one", name="one.json")
    _, out4 = _run(tmp_path, doc, out="four", name="four.json",
                   extra=("--threads", "4"))
    assert _read_dir(out1) == _read_dir(out4)


@pytest.mark.parametrize("value", ["0", "-2"])
def test_threads_below_one_exits_2(tmp_path, capsys, value):
    # the flag is checked before the config is read, so a command that
    # runs no trials rejects it too
    for command, section in (("empirical-curve",
                              {"empirical": {"P_grid": [2], "trials": 2}}),
                             ("decompose", {})):
        doc = dict(_base_doc(), command=command, **section)
        with pytest.raises(SystemExit) as exc:
            _run(tmp_path, doc, extra=("--threads", value))
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_seed_override_is_echoed_and_rehashed(tmp_path):
    doc = dict(_base_doc(), command="decompose")
    _, out0 = _run(tmp_path, doc, out="s0", name="s0.json")
    _, out9 = _run(tmp_path, doc, out="s9", name="s9.json",
                   extra=("--seed", "9"))
    echo = _load_json(out9 / "config.echo.json")
    assert echo["seed"] == 9
    m0 = _load_json(out0 / "manifest.json")
    m9 = _load_json(out9 / "manifest.json")
    assert m9["seed"] == 9
    assert m0["config_sha256"] != m9["config_sha256"]


def test_decomposition_cache_roundtrip(tmp_path):
    doc = dict(_base_doc(), command="theory-curve",
               theory={"P_grid": [2, 4], "lambda": 0.1})
    cache = tmp_path / "cache"
    _, plain = _run(tmp_path, doc, out="plain", name="p.json")
    _, warm = _run(tmp_path, doc, out="warm", name="w.json",
                   extra=("--cache", str(cache)))
    assert len(os.listdir(cache)) == 1
    _, hot = _run(tmp_path, doc, out="hot", name="h.json",
                  extra=("--cache", str(cache)))
    assert _read_dir(plain) == _read_dir(warm) == _read_dir(hot)


def test_warm_cache_builds_no_kernel_block(tmp_path, monkeypatch):
    doc = dict(_base_doc(), command="theory-curve",
               theory={"P_grid": [2, 4], "lambda": 0.1},
               measures={"train": {"kind": "masses",
                                   "values": [0.25] * 4 + [0.0] * 6}})
    cache = tmp_path / "cache"
    code, cold = _run(tmp_path, doc, out="cold", name="c.json",
                      extra=("--cache", str(cache)))
    assert code == 0
    _forbid_gram(monkeypatch, "built a kernel block on a cache hit")
    code, hot = _run(tmp_path, doc, out="hot", name="h.json",
                     extra=("--cache", str(cache)))
    assert code == 0
    assert _read_dir(cold) == _read_dir(hot)


@pytest.mark.parametrize("damage", ["truncated", "corrupted", "bitflip",
                                    "huge"])
def test_unreadable_cache_entry_is_recomputed(tmp_path, damage):
    doc = dict(_base_doc(), command="theory-curve",
               theory={"P_grid": [2, 4], "lambda": 0.1})
    cache = tmp_path / "cache"
    _, plain = _run(tmp_path, doc, out="plain", name="p.json")
    _run(tmp_path, doc, out="warm", name="w.json",
         extra=("--cache", str(cache)))
    (entry,) = cache.iterdir()
    good = entry.read_bytes()
    if damage == "truncated":
        entry.write_bytes(good[:len(good) // 2])
    elif damage == "corrupted":
        entry.write_bytes(b"NOPE" + good[4:])
    elif damage == "bitflip":
        entry.write_bytes(flip_first_sign(good, "Phi.npy"))
    else:
        entry.write_bytes(claim_rows(good, "Phi.npy", 2**40))
    code, out = _run(tmp_path, doc, out="again", name="a.json",
                     extra=("--cache", str(cache)))
    assert code == 0
    assert _read_dir(out) == _read_dir(plain)
    assert [e.name for e in cache.iterdir()] == [entry.name]
    assert entry.read_bytes() == good


def test_reproduce_fig3a_reruns_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setitem(FIGURES, "fig3a",
                        functools.partial(reproduce_fig3a, trials=2))
    cfg = os.path.join(os.path.dirname(kernelshift.__file__), "configs",
                       "fig3a.json")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["--config", cfg, "--out", str(out)]) == 0
    a, b = (_read_dir(out) for out in outs)
    assert "summary.json" in a and "empirical_fig3a.csv" in a
    assert a == b


def test_reproduce_bundled_config(tmp_path):
    cfg = os.path.join(os.path.dirname(kernelshift.__file__), "configs",
                       "figSI5.json")
    out = tmp_path / "si5"
    code = main(["--config", cfg, "--out", str(out)])
    assert code == 0
    summary = _load_json(out / "summary.json")
    assert summary["rect"]["collapsed_within_kernel"]
    assert not summary["gauss"]["collapsed_within_kernel"]
    manifest = _load_json(out / "manifest.json")
    assert manifest["figure"] == "figSI5"
