"""Run configuration: schema validation, defaults, pointer-bearing
errors, and the builders that turn sections into objects."""

import copy
import json
from importlib import resources

import numpy as np
import pytest

from kernelshift import config
from kernelshift.config import (ConfigError, RunConfig, build_dataset,
                                build_kernel, build_measure, config_hash,
                                load_schema, materialize, parse_config,
                                validate_document)
from kernelshift.measures import Dataset, save_dataset


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _minimal_curve_doc():
    return {
        "command": "theory-curve",
        "dataset": {"synthetic": {"kind": "gaussian_diag", "n": 10,
                                  "variances": [1.0, 1.0],
                                  "beta": [1.0, -0.5]}},
        "kernel": {"kind": "linear"},
        "theory": {"P_grid": [2, 4]},
    }


def test_defaults_are_materialized(tmp_path):
    rc = parse_config(_write(tmp_path, _minimal_curve_doc()))
    assert rc.seed == 0
    assert "threads" not in rc.doc   # --threads is the only thread setting
    assert rc.doc["theory"]["lambda"] == 0.0
    assert rc.doc["theory"]["noise"] == 0.0
    assert rc.doc["theory"]["rank_threshold"] == 1e-12
    assert rc.doc["dataset"]["standardize"] is False
    # theory-curve reads both measures, so both are spelled out
    assert rc.doc["measures"]["train"] == {"kind": "uniform"}
    assert rc.doc["measures"]["test"] == {"kind": "uniform"}
    assert "figure" not in rc.doc


def test_kind_defaults_fill_only_the_keys_the_kind_reads():
    doc = dict(_minimal_curve_doc(), kernel={"kind": "rbf"})
    assert materialize(doc)["kernel"] == {"kind": "rbf", "lengthscale": 1.0}
    for kind, key, value in (("laplace", "lengthscale", 1.0),
                             ("ntk_relu", "depth", 1),
                             ("fourier_bandlimited", "n_modes", 8),
                             ("linear", None, None)):
        doc = dict(_minimal_curve_doc(), kernel={"kind": kind})
        want = {"kind": kind} if key is None else {"kind": kind, key: value}
        assert materialize(doc)["kernel"] == want
    for model, keys in (("gaussian_linear", set()),
                        ("general_linear", {"sigma2", "sigma2_tilde"}),
                        ("ntk_sphere", {"radius_train", "radius_test"})):
        sec = materialize({"command": "closed-form",
                           "closed_form": {"model": model}})["closed_form"]
        assert set(sec) == {"model", "lambda", "noise"} | keys


def test_every_table_default_is_valid_where_it_is_filled():
    # parse_config does not check materialize's output again, so each
    # default in the command and kind tables must pass its key's schema
    # entry; a table key the schema lacks raises KeyError
    props = load_schema()["properties"]
    entries = []   # (schema entry of a key, the key's table entry)
    for reads in config._COMMANDS.values():
        for name, want in reads.items():
            if isinstance(want, dict):
                entries += [(props[name]["properties"][key], default)
                            for key, default in want.items()]
            else:
                entries.append((props[name], want))
    for section, (_, by_kind) in config._KIND_KEYS.items():
        for keys in by_kind.values():
            entries += [(props[section]["properties"][key], default)
                        for key, default in keys.items()]
    checked = 0
    for schema, default in entries:
        if callable(default) or default in (config._REQUIRED,
                                            config._OPTIONAL):
            continue
        errors = []
        typed = config._check(default, schema, (), errors)
        assert errors == [], default
        # and already typed: an integer an int, a number a float
        assert json.dumps(typed) == json.dumps(default), default
        checked += 1
    assert checked > 30


def _schema_leaves(node, schema, path=()):
    """(pointer path, schema entry) of every integer and number key of the
    schema below node, $ref followed; an array's item is at index 0."""
    if "$ref" in node:
        for part in node["$ref"].removeprefix("#/").split("/"):
            schema = schema[part]
        node = schema
    if node.get("type") in ("integer", "number"):
        yield path, node
    for key, sub in node.get("properties", {}).items():
        yield from _schema_leaves(sub, schema, path + (key,))
    if "items" in node:
        yield from _schema_leaves(node["items"], schema, path + (0,))


def _leaves(kind):
    schema = load_schema()
    return [pytest.param(path, leaf, id="/".join(map(str, path)))
            for path, leaf in _schema_leaves(schema, schema)
            if leaf["type"] == kind]


def _doc_at(path, value):
    """The document that holds only value, at path."""
    for part in reversed(path):
        value = [value] if isinstance(part, int) else {part: value}
    return value


def _walked(doc):
    return json.dumps(config._check(doc, load_schema(), (), []))


@pytest.mark.parametrize("path, leaf", _leaves("number"))
def test_every_number_key_is_a_float_and_refuses_what_no_float_holds(
        tmp_path, path, leaf):
    # the deepest violation is reported, so the keys the document leaves
    # out do not hide the one at path; of two there, a maximum ranks first
    want = ("greater than the maximum of" if "maximum" in leaf
            else "beyond the float range")
    with pytest.raises(ConfigError, match=rf"^/\S+: 10+(\.\.\.0+)? is {want}") \
            as err:
        parse_config(_write(tmp_path, _doc_at(path, 10**400)))
    assert err.value.pointer == "/" + "/".join(map(str, path))
    assert _walked(_doc_at(path, 2)) == json.dumps(_doc_at(path, 2.0))


@pytest.mark.parametrize("path, leaf", _leaves("integer"))
def test_every_integer_key_reads_an_integral_float_as_the_integer(path,
                                                                 leaf):
    # 16 is at or above every integer key's minimum
    assert _walked(_doc_at(path, 16.0)) == _walked(_doc_at(path, 16)) \
        == json.dumps(_doc_at(path, 16))


def test_schema_leaf_tables_cover_the_schema():
    numbers = [param.values[0] for param in _leaves("number")]
    assert len(numbers) >= 28 and len(_leaves("integer")) >= 21
    assert ("measures", "test", "values", 0) in numbers


def test_parse_config_returns_and_hashes_the_typed_document(
        tmp_path):
    doc = _minimal_curve_doc()
    doc["seed"] = 1.0
    doc["theory"].update(P_grid=[2.0, 4], noise=0)
    doc["empirical"] = {"P_grid": [3.0], "lambda": 1}   # not read, typed
    rc = parse_config(_write(tmp_path, doc))
    typed = dict(doc, seed=1, theory=dict(doc["theory"], P_grid=[2, 4],
                                          noise=0.0),
                 empirical={"P_grid": [3], "lambda": 1.0})
    want = parse_config(_write(tmp_path, typed, "typed.json"))
    assert json.dumps(rc.doc, sort_keys=True) \
        == json.dumps(want.doc, sort_keys=True)
    assert json.dumps(rc.doc["empirical"]) == '{"P_grid": [3], "lambda": 1.0}'
    assert rc.hash() == want.hash() and type(rc.seed) is int


def test_materialize_is_idempotent():
    doc = _minimal_curve_doc()
    once = materialize(doc)
    assert materialize(once) == once
    assert "measures" not in doc  # input must not be mutated


def test_empirical_borrows_ridge_and_noise_from_theory(tmp_path):
    doc = _minimal_curve_doc()
    doc["command"] = "empirical-curve"
    doc["theory"] = {"lambda": 0.25, "noise": 0.04}
    doc["empirical"] = {"P_grid": [2]}
    rc = parse_config(_write(tmp_path, doc))
    assert rc.doc["empirical"]["lambda"] == 0.25
    assert rc.doc["empirical"]["noise"] == 0.04
    assert rc.doc["empirical"]["trials"] == 100


def test_unknown_top_level_key_pointer():
    doc = _minimal_curve_doc()
    doc["kernal"] = {"kind": "linear"}
    with pytest.raises(ConfigError) as err:
        validate_document(doc)
    assert err.value.pointer == "/kernal"


def test_out_is_an_allowed_key():
    doc = _minimal_curve_doc()
    doc["out"] = "results"
    validate_document(doc)


def test_bad_enum_pointer():
    doc = _minimal_curve_doc()
    doc["kernel"]["kind"] = "gaussian"
    with pytest.raises(ConfigError) as err:
        validate_document(doc)
    assert err.value.pointer == "/kernel/kind"


def test_missing_required_section_pointer():
    doc = _minimal_curve_doc()
    del doc["theory"]
    with pytest.raises(ConfigError) as err:
        validate_document(doc)
    assert err.value.pointer == "/theory"
    assert "theory-curve" in str(err.value)


def test_removed_backtracking_switch_is_unknown():
    # the line search always backtracks; the old switch is not a key
    doc = _full_doc()
    doc["optimizer"]["backtracking"] = True
    with pytest.raises(ConfigError) as err:
        validate_document(doc)
    assert err.value.pointer == "/optimizer/backtracking"


def test_reproduce_requires_figure():
    with pytest.raises(ConfigError) as err:
        validate_document({"command": "reproduce"})
    assert err.value.pointer == "/figure"


def test_dataset_needs_exactly_one_source():
    doc = _minimal_curve_doc()
    doc["dataset"]["path"] = "data.csv"
    with pytest.raises(ConfigError) as err:
        validate_document(doc)
    assert err.value.pointer == "/dataset"
    doc2 = _minimal_curve_doc()
    doc2["dataset"] = {"standardize": True}
    with pytest.raises(ConfigError) as err2:
        validate_document(doc2)
    assert err2.value.pointer == "/dataset"


def test_config_hash_is_order_independent():
    a = materialize(_minimal_curve_doc())
    shuffled = json.loads(json.dumps(a))
    shuffled = dict(reversed(list(shuffled.items())))
    assert config_hash(a) == config_hash(shuffled)
    b = dict(a, seed=1)
    assert config_hash(a) != config_hash(b)


def test_parse_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root must be a JSON object"):
        parse_config(str(arr))


def test_build_kernel_kind_specific_kwargs():
    assert build_kernel({"kind": "linear"}).kind == "linear"
    spec = build_kernel({"kind": "rbf", "lengthscale": 2.5})
    assert spec.lengthscale == 2.5
    spec = build_kernel({"kind": "fourier_bandlimited", "n_modes": 5})
    assert spec.n_modes == 5
    spec = build_kernel({"kind": "ntk_relu", "depth": 3})
    assert spec.depth == 3
    # the defaults materialize fills in, with their types
    assert build_kernel({"kind": "laplace"}).lengthscale == 1.0
    assert type(build_kernel({"kind": "rbf", "lengthscale": 2}).lengthscale) \
        is float
    assert build_kernel({"kind": "fourier_bandlimited"}).n_modes == 8
    assert build_kernel({"kind": "ntk_relu"}).depth == 1


def test_build_dataset_synthetic_det_and_beta_check():
    sec = {"synthetic": {"kind": "gaussian_diag", "n": 12,
                         "variances": [2.0, 1.0, 0.5],
                         "beta": [1.0, 0.0, -1.0]}}
    a = build_dataset(sec, seed=3)
    b = build_dataset(sec, seed=3)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.Y, b.Y)
    assert a.X.shape == (12, 3)
    np.testing.assert_allclose(a.Y[:, 0], a.X @ [1.0, 0.0, -1.0], atol=0)
    c = build_dataset(sec, seed=4)
    assert not np.array_equal(a.X, c.X)

    bad = {"synthetic": {"kind": "gaussian_diag", "n": 12,
                         "variances": [2.0, 1.0, 0.5], "beta": [1.0]}}
    with pytest.raises(ConfigError) as err:
        build_dataset(bad, seed=0)
    assert err.value.pointer == "/dataset/synthetic/beta"


def test_build_dataset_bad_synthetic_spec_pointer():
    sec = {"synthetic": {"kind": "sphere", "n": 5, "beta": [1.0, 1.0],
                         "dim": 0}}
    with pytest.raises(ConfigError) as err:
        build_dataset(sec, seed=0)
    assert err.value.pointer == "/dataset/synthetic"


def test_build_dataset_from_path(tmp_path):
    rng = np.random.default_rng(5)
    ds = Dataset(rng.standard_normal((6, 2)), rng.standard_normal((6, 1)))
    path = str(tmp_path / "data.csv")
    save_dataset(path, ds)
    loaded = build_dataset({"path": path}, seed=0)
    np.testing.assert_array_equal(loaded.X, ds.X)
    np.testing.assert_array_equal(loaded.Y, ds.Y)


def test_build_measure_kinds():
    uni = build_measure({"kind": "uniform"}, 4)
    np.testing.assert_allclose(uni.masses, 0.25)
    masses = build_measure({"kind": "masses", "values": [3.0, 1.0]}, 2)
    np.testing.assert_allclose(masses.masses, [0.75, 0.25])
    logits = build_measure({"kind": "logits", "values": [0.0, 0.0, 0.0]}, 3)
    np.testing.assert_allclose(logits.masses, 1.0 / 3.0)


def test_build_measure_errors():
    with pytest.raises(ConfigError, match="needs 'values'"):
        build_measure({"kind": "masses"}, 2)
    with pytest.raises(ConfigError, match="entries for"):
        build_measure({"kind": "masses", "values": [1.0]}, 2)
    with pytest.raises(ConfigError, match="positive total"):
        build_measure({"kind": "masses", "values": [0.0, 0.0]}, 2)


# ----------------------------------------------------------------------
# The in-repo schema checker against jsonschema as an oracle
# ----------------------------------------------------------------------

def _full_doc():
    """Sets every key the schema defines (schema-valid, not runnable)."""
    return {
        "command": "theory-curve", "figure": "fig3a", "seed": 3, "out": "o",
        "dataset": {"path": "d.csv", "standardize": True,
                    "synthetic": {"kind": "sphere", "n": 5,
                                  "beta": [1.0, -0.5],
                                  "variances": [1.0, 0.0], "radius": 1.5,
                                  "dim": 2, "sigmas": [0.5, 0]}},
        "kernel": {"kind": "rbf", "lengthscale": 1.5, "n_modes": 4,
                   "depth": 2},
        "measures": {"train": {"kind": "logits", "values": [0.0, -1.5, 2]},
                     "test": {"kind": "masses", "values": [1, 0.5, 0.0]}},
        "theory": {"P_grid": [0, 2], "lambda": 0.0, "noise": 0.01,
                   "rank_threshold": 1.0},
        "empirical": {"P_grid": [1, 3], "trials": 2, "lambda": 1e-3,
                      "noise": 0},
        "optimizer": {"P_budget": 4, "lambda": 0, "noise": 0.0,
                      "learning_rate": 0.5, "steps": 3, "mode": "ascent",
                      "fd_step": 1e-5, "convergence_tol": 1e-6},
        "closed_form": {"model": "general_linear", "P_grid": [1, 2],
                        "lambda": 0.1, "noise": 0.0, "D": 3, "M": 2,
                        "M_r": 1, "M_s": 1, "sigma2": 1.0,
                        "sigma2_tilde": 2, "beta": [1.0, -1.0],
                        "covariance": [[1.0, 0.0], [0.0, 1.0]],
                        "covariance_tilde": [[2, 0], [0, 1]], "depth": 2,
                        "k_max": 4, "k_stage": 0, "abar_sq": [0.5, 0.0],
                        "radius_train": 1.0, "radius_test": 2.0},
        "spectrum": {"D": 3, "k_max": 0, "n_quad": 16},
        "compare": {"theory_csv": "t.csv", "empirical_csv": "e.csv",
                    "band": 3.0},
    }


def _base_docs():
    """Bundled configs and a minimal one, raw and materialized, and one
    document per section of _full_doc (mutation cost grows as size²)."""
    bundled = resources.files("kernelshift.configs")
    raw = [json.loads(f.read_text()) for f in sorted(
        bundled.iterdir(), key=lambda f: f.name) if f.name.endswith(".json")]
    assert len(raw) == 5
    raw.append(_minimal_curve_doc())
    full = _full_doc()
    sections = [{"command": full["command"], key: value}
                for key, value in full.items() if key != "command"]
    return raw + [materialize(doc) for doc in raw] + sections


# Every boundary the schema draws: bools and integral floats where
# numbers go, each minimum and the exclusiveMinimum at 0, the maximum
# at 1, wrong types and empty or bad arrays; equal errors at one depth
# (["x", "x"]) and an unknown key beside a deeper error rank ties.
_REPLACEMENTS = (True, False, None, "x", -1, -0.5, 0, 0.0, 0.5, 1, 1.0,
                 1.5, 2, 2.0, 2.5, 3, 15, 15.5, 16, 16.0, [], ["x", "x"],
                 [0.5], [[]], [True], {}, {"kind": "uniform"},
                 {"kind": "x", "values": ["x"]})


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, path + (i,))


def _edited(doc, path, edit):
    doc = copy.deepcopy(doc)
    target = doc
    for part in path:
        target = target[part]
    edit(target)
    return doc


def _replaced(doc, path, new):
    def put(parent):
        parent[path[-1]] = copy.deepcopy(new)
    return _edited(doc, path[:-1], put)


def _mutations(doc):
    """doc and its single-field mutations."""
    yield doc
    for path, value in _nodes(doc):
        if path:
            for new in _REPLACEMENTS:
                yield _replaced(doc, path, new)
        if isinstance(value, dict):
            for key in value:
                yield _edited(doc, path, lambda d, k=key: d.pop(k))
            yield _edited(doc, path, lambda d: d.update(unknown=1))
            yield _edited(doc, path, lambda d: d.update(b_extra=1, a_extra=2))
        if isinstance(value, list):
            yield _edited(doc, path, lambda a: a.append("x"))


def _oracle_pointer(validator, doc):
    """Pointer of the violation jsonschema ranks last, or None if valid."""
    errors = sorted(validator.iter_errors(doc),
                    key=lambda e: (len(e.absolute_path), e.message))
    if not errors:
        return None
    err = errors[-1]
    path = list(err.absolute_path)
    if err.validator == "additionalProperties":
        path.append(min(set(err.instance) - set(err.schema["properties"])))
    return "/" + "/".join(map(str, path))


def test_schema_checker_agrees_with_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(load_schema())
    cases = rejected = 0
    for base in _base_docs():
        for doc in _mutations(base):
            want = _oracle_pointer(validator, doc)
            err = config._schema_error(doc)
            got = None if err is None else err.pointer
            assert got == want, json.dumps(doc)[:300]
            cases += 1
            rejected += want is not None
    assert cases > 3000 and 0.5 < rejected / cases < 1.0


def test_schema_uses_only_checked_keywords():
    # a keyword the checker does not know would otherwise pass unchecked
    annotations = {"$schema", "title", "$defs"}
    seen = set()

    def walk(schema):
        for key, arg in schema.items():
            assert key in config._KEYWORDS or key in annotations, key
            seen.add(key)
            if key in ("properties", "$defs"):
                for sub in arg.values():
                    walk(sub)
            elif key == "items":
                walk(arg)
            elif key == "type":
                assert arg in config._TYPES
            elif key == "enum":
                assert all(isinstance(option, str) for option in arg)
            elif key == "additionalProperties":
                assert arg is False
            elif key == "$ref":
                assert arg.startswith("#/$defs/")
    walk(load_schema())
    assert set(config._KEYWORDS) <= seen


def test_measure_unknown_key_bool_and_integral_float():
    doc = _minimal_curve_doc()
    doc["measures"] = {"test": {"kind": "uniform", "valeus": [1.0]}}
    with pytest.raises(ConfigError) as err:
        validate_document(doc)
    assert err.value.pointer == "/measures/test/valeus"
    doc = _minimal_curve_doc()
    doc["theory"]["lambda"] = True
    with pytest.raises(ConfigError) as err:
        validate_document(doc)
    assert err.value.pointer == "/theory/lambda"
    doc = _minimal_curve_doc()
    doc["theory"]["P_grid"] = [2.0, 4]   # an integral float is an integer
    validate_document(doc)
