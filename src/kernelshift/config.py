"""Run configuration loading, validation and default materialization.

Configs are JSON documents validated against the published schema in
schemas/runconfig.schema.json. Validation failures name the offending
location as a JSON pointer. Defaults are filled in before execution and
the materialized document is echoed next to the outputs so every
artifact directory states exactly what produced it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import re
from dataclasses import dataclass
from importlib import resources

import jsonschema
import numpy as np

from .kernels import KernelSpec
from .measures import (Dataset, DiscreteMeasure, SyntheticSpec, from_logits,
                       load_dataset, synth_sample, uniform_measure)

__all__ = ["ConfigError", "RunConfig", "parse_config", "materialize",
           "validate_document", "config_hash", "load_schema",
           "build_measure", "build_kernel", "build_dataset"]

_DEFAULTS = {
    "seed": 0,
    "threads": 1,
    "dataset": {"standardize": False},
    "kernel": {"lengthscale": 1.0, "depth": 1, "n_modes": 8},
    "theory": {"lambda": 0.0, "noise": 0.0, "rank_threshold": 1e-12},
    "empirical": {"trials": 100},
    "optimizer": {"lambda": 0.0, "noise": 0.0, "learning_rate": 1.0,
                  "steps": 2000, "mode": "descent", "fd_step": 1e-5,
                  "convergence_tol": 1e-6, "backtracking": True},
    "closed_form": {"lambda": 0.0, "noise": 0.0, "sigma2": 1.0,
                    "sigma2_tilde": 1.0, "radius_train": 1.0,
                    "radius_test": 1.0},
    "spectrum": {"n_quad": 400},
    "compare": {"band": 3.0},
    "measures": {"train": {"kind": "uniform"}, "test": {"kind": "uniform"}},
}

_REQUIRED_SECTIONS = {
    "decompose": ("dataset", "kernel"),
    "theory-curve": ("dataset", "kernel", "theory"),
    "empirical-curve": ("dataset", "kernel", "empirical"),
    "optimize-train": ("dataset", "kernel", "optimizer"),
    "optimize-test": ("dataset", "kernel", "optimizer"),
    "closed-form": ("closed_form",),
    "spectrum": ("kernel", "spectrum"),
    "compare": ("compare",),
    "gradcheck": ("dataset", "kernel", "optimizer"),
    "reproduce": ("figure",),
}


class ConfigError(ValueError):
    """Invalid configuration; pointer names the offending JSON location."""

    def __init__(self, message, pointer=""):
        super().__init__(f"{pointer or '/'}: {message}" if pointer is not None
                         else message)
        self.pointer = pointer


def load_schema():
    text = resources.files("kernelshift.schemas") \
        .joinpath("runconfig.schema.json").read_text()
    return json.loads(text)


def _pointer(error):
    path = "/" + "/".join(str(p) for p in error.absolute_path)
    if error.validator == "additionalProperties":
        extras = re.findall(r"'([^']+)' (?:was|were) unexpected",
                            error.message)
        if not extras:
            extras = re.findall(r"'([^']+)'", error.message)
        if extras:
            base = path.rstrip("/")
            return f"{base}/{extras[0]}"
    return path


def validate_document(doc):
    """Raise ConfigError naming the JSON pointer of the first violation."""
    validator = jsonschema.Draft202012Validator(load_schema())
    errors = sorted(validator.iter_errors(doc),
                    key=lambda e: (len(list(e.absolute_path)), e.message))
    if errors:
        err = errors[-1]
        raise ConfigError(err.message, _pointer(err))
    command = doc["command"]
    for section in _REQUIRED_SECTIONS[command]:
        if section not in doc:
            raise ConfigError(
                f"command '{command}' requires the '{section}' section",
                f"/{section}")
    if command == "reproduce" and "figure" not in doc:
        raise ConfigError("command 'reproduce' requires a figure id",
                          "/figure")
    if "dataset" in doc:
        has_path = "path" in doc["dataset"]
        has_synth = "synthetic" in doc["dataset"]
        if has_path == has_synth:
            raise ConfigError(
                "dataset needs exactly one of 'path' or 'synthetic'",
                "/dataset")


def materialize(doc):
    """Return a copy of doc with documented defaults filled in."""
    out = copy.deepcopy(doc)
    for key in ("seed", "threads"):
        out.setdefault(key, _DEFAULTS[key])
    for section, defaults in _DEFAULTS.items():
        if not isinstance(defaults, dict):
            continue
        if section in out:
            for k, v in defaults.items():
                out[section].setdefault(k, v)
    # the empirical section borrows ridge and noise from theory when absent
    if "empirical" in out:
        theory = out.get("theory", {})
        out["empirical"].setdefault("lambda",
                                    theory.get("lambda",
                                               _DEFAULTS["theory"]["lambda"]))
        out["empirical"].setdefault("noise",
                                    theory.get("noise",
                                               _DEFAULTS["theory"]["noise"]))
    # commands that read a dataset always have both measures defined
    needs = _REQUIRED_SECTIONS.get(out.get("command"), ())
    if "dataset" in needs:
        out.setdefault("measures", {})
        for side in ("train", "test"):
            out["measures"].setdefault(
                side, copy.deepcopy(_DEFAULTS["measures"][side]))
    return out


def config_hash(doc):
    """Hash of the canonical JSON encoding of a materialized config."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass(frozen=True)
class RunConfig:
    """A validated configuration with defaults materialized."""

    doc: dict

    @property
    def command(self):
        return self.doc["command"]

    @property
    def seed(self):
        return int(self.doc["seed"])

    @property
    def threads(self):
        return int(self.doc["threads"])

    @property
    def figure(self):
        return self.doc.get("figure")

    def section(self, name):
        try:
            return self.doc[name]
        except KeyError:
            raise ConfigError(f"missing '{name}' section", f"/{name}")

    def hash(self):
        return config_hash(self.doc)


def parse_config(path):
    """Load, validate and materialize a JSON run configuration."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", None)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", None)
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object", "/")
    validate_document(doc)
    doc = materialize(doc)
    validate_document(doc)   # materialized form must itself be valid
    return RunConfig(doc)


def build_kernel(kernel_section):
    """KernelSpec from the kernel config section."""
    kind = kernel_section["kind"]
    kwargs = {}
    if kind in ("rbf", "laplace"):
        kwargs["lengthscale"] = float(kernel_section.get("lengthscale", 1.0))
    if kind == "fourier_bandlimited":
        kwargs["n_modes"] = int(kernel_section.get("n_modes", 8))
    if kind == "ntk_relu":
        kwargs["depth"] = int(kernel_section.get("depth", 1))
    return KernelSpec(kind, **kwargs)


def build_dataset(dataset_section, seed):
    """Dataset from disk or generated from the synthetic recipe."""
    if "path" in dataset_section:
        return load_dataset(dataset_section["path"],
                            standardize=dataset_section.get("standardize",
                                                            False))
    syn = dataset_section["synthetic"]
    kwargs = {}
    for key in ("variances", "sigmas"):
        if key in syn:
            kwargs[key] = tuple(syn[key])
    for key in ("radius", "dim"):
        if key in syn:
            kwargs[key] = syn[key]
    try:
        spec = SyntheticSpec(syn["kind"], **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), "/dataset/synthetic")
    X = synth_sample(spec, int(syn["n"]), seed, label="dataset")
    beta = np.asarray(syn["beta"], dtype=float)
    if beta.shape[0] != X.shape[1]:
        raise ConfigError(
            f"beta has {beta.shape[0]} entries for {X.shape[1]} features",
            "/dataset/synthetic/beta")
    Y = (X @ beta)[:, None]
    return Dataset(X, Y)


def build_measure(measure_section, M):
    """DiscreteMeasure over M atoms from a measure config entry."""
    kind = measure_section["kind"]
    if kind == "uniform":
        return uniform_measure(M)
    values = measure_section.get("values")
    if values is None:
        raise ConfigError(f"measure kind '{kind}' needs 'values'",
                          "/measures")
    values = np.asarray(values, dtype=float)
    if values.shape[0] != M:
        raise ConfigError(
            f"measure has {values.shape[0]} entries for {M} atoms",
            "/measures")
    if kind == "masses":
        total = values.sum()
        if total <= 0:
            raise ConfigError("masses must have positive total", "/measures")
        return DiscreteMeasure(values / total)
    return from_logits(values)
