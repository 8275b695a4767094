"""Run configuration loading, validation and default materialization.

Configs are JSON documents checked against the published schema in
schemas/runconfig.schema.json and against _COMMANDS, the table of what
each command reads, before any data is built; failures name the offending
location as a JSON pointer. The schema check also types the document,
every integer key an int and every number key a float. Only the keys a
command reads get defaults, and the typed, materialized document is
echoed next to the outputs.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import operator
import reprlib
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .kernels import KernelSpec
from .measures import (Dataset, DiscreteMeasure, SyntheticSpec, from_logits,
                       load_dataset, synth_sample, uniform_measure)
from .optimizer import OptimizerConfig
from .spectral import DEFAULT_RANK_THRESHOLD

__all__ = ["ConfigError", "RunConfig", "parse_config", "materialize",
           "validate_document", "config_hash", "load_schema",
           "build_measure", "build_kernel", "build_dataset"]

# A read key's entry in the tables below is its default, a function of the
# document that gives the default, or one of these two markers of a key
# without a default: REQUIRED must be present, OPTIONAL may be absent.
_REQUIRED = "<required>"
_OPTIONAL = "<optional>"


def _from_theory(key):
    # the empirical section borrows ridge and noise from theory when absent
    return lambda doc: doc.get("theory", {}).get(key, 0.0)


_UNIFORM = {"kind": "uniform"}
_RIDGE = {"lambda": 0.0, "noise": 0.0}
_RANK = {"rank_threshold": DEFAULT_RANK_THRESHOLD}
_DATA = {"dataset": {"path": _OPTIONAL, "synthetic": _OPTIONAL,
                     "standardize": False},
         "kernel": {"kind": _REQUIRED}}
_OPTIMIZER = {"P_budget": _REQUIRED, **_RIDGE}
_MODE = {"mode": OptimizerConfig.mode}
_STEPS = {key: getattr(OptimizerConfig, key)
          for key in ("learning_rate", "steps", "convergence_tol")}

# The top-level keys and sections each command reads, and the keys it reads
# in each section. A section may be left out only when every key it reads
# has a default; materialize then adds it.
_COMMANDS = {command: {"seed": 0, **reads} for command, reads in {
    "decompose": {**_DATA, "measures": {"train": _UNIFORM}, "theory": _RANK},
    "theory-curve": {**_DATA,
                     "measures": {"train": _UNIFORM, "test": _UNIFORM},
                     "theory": {"P_grid": _REQUIRED, **_RIDGE, **_RANK}},
    "empirical-curve": {**_DATA,
                        "measures": {"train": _UNIFORM, "test": _UNIFORM},
                        "empirical": {"P_grid": _REQUIRED, "trials": 100,
                                      "lambda": _from_theory("lambda"),
                                      "noise": _from_theory("noise")}},
    "optimize-train": {**_DATA, "measures": {"test": _UNIFORM},
                       "theory": _RANK,
                       "optimizer": {**_OPTIMIZER, **_MODE, **_STEPS}},
    "optimize-test": {**_DATA, "measures": {"train": _UNIFORM},
                      "theory": _RANK,
                      "optimizer": {**_OPTIMIZER, **_MODE}},
    "closed-form": {"closed_form": {"model": _REQUIRED, "P_grid": _REQUIRED,
                                    **_RIDGE}},
    "spectrum": {"kernel": {"kind": _REQUIRED},
                 "spectrum": {"D": _REQUIRED, "k_max": _REQUIRED,
                              "n_quad": 400}},
    "compare": {"compare": {"theory_csv": _REQUIRED,
                            "empirical_csv": _REQUIRED, "band": 3.0}},
    "gradcheck": {**_DATA, "measures": {"test": _UNIFORM}, "theory": _RANK,
                  "optimizer": {**_OPTIMIZER, "fd_step": 1e-5}},
    "reproduce": {"figure": _REQUIRED},
}.items()}

# The keys that only some kernel kinds or closed-form models read, keyed
# by the section's kind or model, in the entries of the table above
_KIND_KEYS = {
    "kernel": ("kind", {"linear": {},
                        "rbf": {"lengthscale": KernelSpec.lengthscale},
                        "laplace": {"lengthscale": KernelSpec.lengthscale},
                        "ntk_relu": {"depth": 1},
                        "fourier_bandlimited": {"n_modes": 8}}),
    "closed_form": ("model", {
        "gaussian_linear": {"beta": _REQUIRED, "covariance": _REQUIRED,
                            "covariance_tilde": _REQUIRED},
        "general_linear": {"beta": _REQUIRED, "M": _REQUIRED,
                           "M_r": _REQUIRED, "M_s": _REQUIRED,
                           "sigma2": 1.0, "sigma2_tilde": 1.0},
        "ntk_sphere": {"D": _REQUIRED, "depth": _REQUIRED,
                       "k_max": _REQUIRED, "abar_sq": _REQUIRED,
                       "radius_train": 1.0, "radius_test": 1.0,
                       "k_stage": _OPTIONAL}}),
}


def _reads(doc):
    """The _COMMANDS entry of doc's command, with the keys of each
    section's kind or model added to that section."""
    reads = dict(_COMMANDS[doc["command"]])
    for section, (key, by_kind) in _KIND_KEYS.items():
        if section in reads and section in doc:
            reads[section] = {**reads[section],
                              **by_kind[doc[section][key]]}
    return reads


def _omissible(keys):
    return _REQUIRED not in keys.values() and _OPTIONAL not in keys.values()


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
# float is an integer, and each keyword skips values of other types.  A
# check returns the value typed, or None to leave it as it is.
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
    elif name in ("integer", "number"):
        try:
            return int(v) if name == "integer" else float(v)
        except OverflowError:   # an integer literal of 309 digits or more
            errors.append((len(path), f"{reprlib.repr(v)} is beyond the "
                           "float range", path))


def _enum(v, options, schema, path, errors):
    if v not in options:   # string options only: True would equal 1
        errors.append((len(path), f"{v!r} is not one of {options!r}", path))


def _min_items(v, n, schema, path, errors):
    if isinstance(v, list) and len(v) < n:
        text = "should be non-empty" if n == 1 else "is too short"
        errors.append((len(path), f"{v!r} {text}", path))


def _items(v, item_schema, schema, path, errors):
    if isinstance(v, list):
        return [_check(item, item_schema, path + (i,), errors)
                for i, item in enumerate(v)]


def _properties(v, props, schema, path, errors):
    if isinstance(v, dict):
        return {**v, **{key: _check(v[key], sub, path + (key,), errors)
                        for key, sub in props.items() if key in v}}


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
    return _check(v, target, path, errors)


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
    """v typed by schema; append (depth, message, pointer path) for each
    violation at path."""
    for keyword, arg in schema.items():
        check = _KEYWORDS.get(keyword)
        if check is not None:
            typed = check(v, arg, schema, path, errors)
            v = v if typed is None else typed
    return v


def _typed(doc):
    """(doc typed by the schema, ConfigError for its deepest violation or
    None): ties go to the greatest message, and an unknown key is named
    by its own pointer."""
    errors = []
    doc = _check(doc, _schema(), (), errors)
    if not errors:
        return doc, None
    _, message, path = sorted(errors, key=lambda e: e[:2])[-1]
    return doc, ConfigError(message, "/" + "/".join(map(str, path)))


def validate_document(doc):
    """Return a copy of doc typed by the schema; raise ConfigError naming
    the JSON pointer of the first violation: of the schema, or of what
    the command reads (a key without a default left out, or a document
    check across keys)."""
    doc, error = _typed(doc)
    if error is not None:
        raise error
    command = doc["command"]
    reads = _reads(doc)
    for key, pointer in _missing(doc, reads):
        raise ConfigError(f"command '{command}' requires '{key}'", pointer)
    if "dataset" in reads:
        dataset = doc["dataset"]
        if ("path" in dataset) == ("synthetic" in dataset):
            raise ConfigError("dataset needs exactly one of 'path' or "
                              "'synthetic'", "/dataset")
        if "synthetic" in dataset:
            _synthetic_spec(dataset["synthetic"])
    for side in reads.get("measures", ()):
        measure = doc.get("measures", {}).get(side, _UNIFORM)
        if measure["kind"] != "uniform":
            _measure_values(measure)
    if "closed_form" in reads and doc["closed_form"]["model"] == "ntk_sphere":
        _check_ntk_sphere(doc["closed_form"])
    if command == "spectrum" and doc["kernel"]["kind"] != "ntk_relu":
        raise ConfigError(f"command 'spectrum' needs kernel kind 'ntk_relu', "
                          f"got '{doc['kernel']['kind']}'", "/kernel/kind")
    return doc


def _missing(doc, reads):
    """(key, pointer) of each key without a default that doc's command
    reads and doc leaves out; a section counts as such a key."""
    for name, keys in reads.items():
        if name not in doc:
            if keys == _REQUIRED or (isinstance(keys, dict)
                                     and not _omissible(keys)):
                yield name, f"/{name}"
        elif isinstance(keys, dict):
            for key, want in keys.items():
                if want == _REQUIRED and key not in doc[name]:
                    yield key, f"/{name}/{key}"


def _check_ntk_sphere(sec):
    if sec["D"] < 3:
        raise ConfigError(f"model 'ntk_sphere' needs D >= 3, got "
                          f"{sec['D']}", "/closed_form/D")
    k_max, k_stage = sec["k_max"], sec.get("k_stage")
    if len(sec["abar_sq"]) > k_max + 1:
        raise ConfigError(f"{len(sec['abar_sq'])} degrees given for "
                          f"k_max {k_max}", "/closed_form/abar_sq")
    if k_stage is not None and k_stage > k_max:
        raise ConfigError(f"k_stage {k_stage} above k_max {k_max}",
                          "/closed_form/k_stage")


def materialize(doc):
    """Return a copy of doc with the default of every key its command
    reads filled in; keys it does not read stay as written."""
    out = copy.deepcopy(doc)
    for name, keys in _reads(out).items():
        section = out
        if not isinstance(keys, dict):
            keys = {name: keys}
        elif name in out or _omissible(keys):
            section = out.setdefault(name, {})
        else:
            continue
        for key, want in keys.items():
            want = want(out) if callable(want) else want
            if want not in (_REQUIRED, _OPTIONAL):
                section.setdefault(key, copy.deepcopy(want))
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
        return self.doc["seed"]

    def hash(self):
        return config_hash(self.doc)


def _no_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is beyond the float range")
    return value


def parse_config(path, seed=None):
    """Load, validate and materialize a strict JSON run configuration; a
    seed that is not None replaces the config's before it is validated.
    NaN, Infinity and a number that overflows a float are refused."""
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_no_constant,
                            parse_float=_finite_float)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", None)
    except ValueError as exc:   # json.JSONDecodeError is one
        raise ConfigError(f"config is not valid JSON: {exc}", None)
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object", "/")
    if seed is not None:
        doc["seed"] = seed
    return RunConfig(materialize(validate_document(doc)))


def build_kernel(kernel_section):
    """KernelSpec from the kernel config section."""
    kind = kernel_section["kind"]
    defaults = _KIND_KEYS["kernel"][1].get(kind, {})
    return KernelSpec(kind, **{k: kernel_section.get(k, v)
                               for k, v in defaults.items()})


def _synthetic_spec(syn):
    """SyntheticSpec of a dataset.synthetic entry, whose beta has one
    entry per feature."""
    kwargs = {key: syn[key] for key in ("variances", "sigmas", "radius",
                                        "dim") if key in syn}
    try:
        spec = SyntheticSpec(syn["kind"], **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), "/dataset/synthetic")
    if len(syn["beta"]) != spec.D:
        raise ConfigError(f"beta has {len(syn['beta'])} entries for "
                          f"{spec.D} features", "/dataset/synthetic/beta")
    return spec


def build_dataset(dataset_section, seed):
    """Dataset from disk or generated from the synthetic recipe."""
    if "path" in dataset_section:
        return load_dataset(dataset_section["path"],
                            standardize=dataset_section.get("standardize",
                                                            False))
    syn = dataset_section["synthetic"]
    X = synth_sample(_synthetic_spec(syn), syn["n"], seed, label="dataset")
    return Dataset(X, X @ np.asarray(syn["beta"], dtype=float))


def _measure_values(measure_section):
    """The values of a masses or logits measure entry, after the checks
    that need only the entry."""
    values = measure_section.get("values")
    if values is None:
        raise ConfigError(f"measure kind '{measure_section['kind']}' needs "
                          "'values'", "/measures")
    values = np.asarray(values, dtype=float)
    if measure_section["kind"] == "masses" and values.sum() <= 0:
        raise ConfigError("masses must have positive total", "/measures")
    return values


def build_measure(measure_section, M):
    """DiscreteMeasure over M atoms from a measure config entry."""
    if measure_section["kind"] == "uniform":
        return uniform_measure(M)
    values = _measure_values(measure_section)
    if values.shape[0] != M:
        raise ConfigError(
            f"measure has {values.shape[0]} entries for {M} atoms",
            "/measures")
    if measure_section["kind"] == "masses":
        return DiscreteMeasure(values / values.sum())
    return from_logits(values)
