"""Run configuration loading, validation and default materialization.

Configs are JSON documents validated against the published schema in
schemas/runconfig.schema.json. Validation failures name the offending
location as a JSON pointer. Defaults are filled in before execution and
the materialized document is echoed next to the outputs so every
artifact directory states exactly what produced it.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import operator
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .kernels import KernelSpec
from .measures import (Dataset, DiscreteMeasure, SyntheticSpec, from_logits,
                       load_dataset, synth_sample, uniform_measure)
from .spectral import DEFAULT_RANK_THRESHOLD

__all__ = ["ConfigError", "RunConfig", "parse_config", "materialize",
           "validate_document", "config_hash", "load_schema",
           "build_measure", "build_kernel", "build_dataset"]

_DEFAULTS = {
    "seed": 0,
    "threads": 1,
    "dataset": {"standardize": False},
    "kernel": {"lengthscale": 1.0, "depth": 1, "n_modes": 8},
    "theory": {"lambda": 0.0, "noise": 0.0,
               "rank_threshold": DEFAULT_RANK_THRESHOLD},
    "empirical": {"trials": 100},
    "optimizer": {"lambda": 0.0, "noise": 0.0, "learning_rate": 1.0,
                  "steps": 2000, "mode": "descent", "fd_step": 1e-5,
                  "convergence_tol": 1e-6},
    "closed_form": {"lambda": 0.0, "noise": 0.0, "sigma2": 1.0,
                    "sigma2_tilde": 1.0, "radius_train": 1.0,
                    "radius_test": 1.0},
    "spectrum": {"n_quad": 400},
    "compare": {"band": 3.0},
    "measures": {"train": {"kind": "uniform"}, "test": {"kind": "uniform"}},
}

# The keys of the theory and optimizer sections that each command reads;
# of these two sections only they get defaults, so the echo records what
# a run used. Every command that decomposes records its rank threshold.
_READS = {
    "decompose": {"theory": ("rank_threshold",)},
    "theory-curve": {"theory": ("lambda", "noise", "rank_threshold")},
    "optimize-train": {"theory": ("rank_threshold",),
                       "optimizer": ("lambda", "noise", "mode",
                                     "learning_rate", "steps",
                                     "convergence_tol")},
    "optimize-test": {"theory": ("rank_threshold",),
                      "optimizer": ("lambda", "noise", "mode")},
    "gradcheck": {"theory": ("rank_threshold",),
                  "optimizer": ("lambda", "noise", "fd_step")},
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


_schema = functools.cache(load_schema)   # read once per process


# The Draft 2020-12 keywords the run-config schema uses, checked with the
# messages jsonschema gives them.  A bool is not a number, an integral
# float is an integer, and each keyword skips values of other types.
def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int)
                                            or v.is_integer()),
}


def _bound(fails, text):
    def check(v, bound, schema, path, errors):
        if _is_number(v) and fails(v, bound):
            errors.append((len(path), f"{v!r} is {text} {bound!r}", path))
    return check


def _type(v, name, schema, path, errors):
    if not _TYPES[name](v):
        errors.append((len(path), f"{v!r} is not of type {name!r}", path))


def _enum(v, options, schema, path, errors):
    if v not in options:   # string options only: True would equal 1
        errors.append((len(path), f"{v!r} is not one of {options!r}", path))


def _min_items(v, n, schema, path, errors):
    if isinstance(v, list) and len(v) < n:
        text = "should be non-empty" if n == 1 else "is too short"
        errors.append((len(path), f"{v!r} {text}", path))


def _items(v, item_schema, schema, path, errors):
    if isinstance(v, list):
        for i, item in enumerate(v):
            _check(item, item_schema, path + (i,), errors)


def _properties(v, props, schema, path, errors):
    if isinstance(v, dict):
        for key, sub in props.items():
            if key in v:
                _check(v[key], sub, path + (key,), errors)


def _required(v, keys, schema, path, errors):
    if isinstance(v, dict):
        for key in keys:
            if key not in v:
                errors.append((len(path), f"{key!r} is a required property",
                               path))


def _no_additional(v, allowed, schema, path, errors):
    if allowed is False and isinstance(v, dict):
        extras = sorted(k for k in v if k not in schema.get("properties", {}))
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            errors.append((len(path), "Additional properties are not allowed "
                           f"({', '.join(map(repr, extras))} {verb} "
                           "unexpected)", path + (extras[0],)))


def _ref(v, ref, schema, path, errors):
    target = _schema()
    for part in ref.removeprefix("#/").split("/"):
        target = target[part]
    _check(v, target, path, errors)


_KEYWORDS = {
    "type": _type, "enum": _enum,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le,
                               "less than or equal to the minimum of"),
    "minItems": _min_items, "items": _items, "properties": _properties,
    "required": _required, "additionalProperties": _no_additional,
    "$ref": _ref,
}


def _check(v, schema, path, errors):
    """Append (depth, message, pointer path) for each violation at path."""
    for keyword, arg in schema.items():
        check = _KEYWORDS.get(keyword)
        if check is not None:
            check(v, arg, schema, path, errors)


def _schema_error(doc):
    """ConfigError for doc's schema violation, or None if there is none.

    Of several violations the deepest is reported, ties going to the
    greatest message; an unknown key is named by its own pointer.
    """
    errors = []
    _check(doc, _schema(), (), errors)
    if not errors:
        return None
    _, message, path = sorted(errors, key=lambda e: e[:2])[-1]
    return ConfigError(message, "/" + "/".join(map(str, path)))


def validate_document(doc):
    """Raise ConfigError naming the JSON pointer of the first violation."""
    error = _schema_error(doc)
    if error is not None:
        raise error
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
    reads = _READS.get(out.get("command"), {})
    for section in reads:
        out.setdefault(section, {})
    for section, defaults in _DEFAULTS.items():
        if isinstance(defaults, dict) and section in out:
            keys = defaults
            if section in ("theory", "optimizer"):
                keys = reads.get(section, ())
            for k in keys:
                out[section].setdefault(k, defaults[k])
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
