"""Datasets, discrete measures, synthetic samplers, file round-trips."""

import gc
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelshift.measures import (Dataset, DiscreteMeasure, SyntheticSpec,
                                  from_logits, load_dataset, save_dataset,
                                  synth_sample, uniform_measure)

from archive_forgery import claim_rows


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([0.5, np.nan]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([[0.5, 0.5]]))


def test_uniform_measure():
    m = uniform_measure(7)
    assert m.M == 7
    assert np.allclose(m.masses, 1.0 / 7.0)
    assert m.masses.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        uniform_measure(0)


def test_from_logits_golden():
    m = from_logits(np.array([np.log(2.0), 0.0]))
    assert np.allclose(m.masses, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_from_logits_refuses_nan_and_plus_inf_and_keeps_minus_inf():
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # refused before any exp
        for z in ([0.0, np.nan], [np.inf, 0.0], [-np.inf, -np.inf], []):
            with pytest.raises(ValueError, match="^logits must be finite"):
                from_logits(z)
        # a -inf logit is a zero mass, as optimize_test_measure's trace
        # writes the log of one
        assert from_logits([-np.inf, 0.0]).masses.tolist() == [0.0, 1.0]


@settings(max_examples=60, deadline=None)
@given(
    z=st.lists(st.floats(-30, 30), min_size=1, max_size=12),
    shift=st.floats(-50, 50),
)
def test_from_logits_shift_invariance(z, shift):
    z = np.asarray(z)
    a = from_logits(z).masses
    b = from_logits(z + shift).masses
    assert np.max(np.abs(a - b)) < 1e-14


def test_support_excludes_zero_mass():
    m = DiscreteMeasure(np.array([0.5, 0.0, 0.5]))
    assert m.support().tolist() == [0, 2]


def test_dataset_validation():
    X = np.arange(6.0).reshape(3, 2)
    ds = Dataset(X, np.array([1.0, 2.0, 3.0]))
    assert ds.Y.shape == (3, 1)
    assert (ds.M, ds.D, ds.C) == (3, 2, 1)
    with pytest.raises(ValueError):
        Dataset(X, np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, 2.0]), np.zeros(2))
    with pytest.raises(ValueError):
        Dataset(X * np.nan, np.zeros(3))
    for Y in (np.zeros((3, 2, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match=r"Y must be .* got shape"):
            Dataset(X, Y)


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec("gaussian_diag")
    with pytest.raises(ValueError):
        SyntheticSpec("gaussian_diag", variances=(1.0, -1.0))
    with pytest.raises(ValueError):
        SyntheticSpec("sphere", radius=1.0)
    with pytest.raises(ValueError):
        SyntheticSpec("sphere", radius=-1.0, dim=3)
    for radius in (np.nan, np.inf, 10**401, "a"):
        with pytest.raises(ValueError, match="^radius must be nonnegative"):
            SyntheticSpec("sphere", radius=radius, dim=3)
    with pytest.raises(ValueError, match="radius > 0"):
        SyntheticSpec("sphere", radius=0.0, dim=3)
    assert SyntheticSpec("sphere", radius=2, dim=3).radius == 2.0
    for dim in (0, 3.0, "3"):
        with pytest.raises(ValueError, match="dim must be a positive"):
            SyntheticSpec("sphere", radius=1.0, dim=dim)
    with pytest.raises(ValueError):
        SyntheticSpec("rectangular")
    with pytest.raises(ValueError):
        SyntheticSpec("torus", variances=(1.0,))
    assert SyntheticSpec("gaussian_diag", variances=(1.0, 2.0)).D == 2
    assert SyntheticSpec("sphere", radius=2.0, dim=5).D == 5
    assert SyntheticSpec("rectangular", sigmas=(1.0, 1.0, 1.0)).D == 3


def test_synth_sample_gaussian_variances():
    spec = SyntheticSpec("gaussian_diag", variances=(4.0, 0.25))
    X = synth_sample(spec, 40000, seed=11)
    assert X.shape == (40000, 2)
    assert np.allclose(X.var(axis=0), [4.0, 0.25], rtol=0.05)
    assert np.array_equal(X, synth_sample(spec, 40000, seed=11))


def test_synth_sample_sphere_norms_exact():
    spec = SyntheticSpec("sphere", radius=1.5, dim=6)
    X = synth_sample(spec, 500, seed=2)
    norms = np.linalg.norm(X, axis=1)
    assert np.max(np.abs(norms - 1.5)) < 1e-12


def test_synth_sample_rectangular_bounds_and_variance():
    spec = SyntheticSpec("rectangular", sigmas=(0.5, 2.0))
    X = synth_sample(spec, 40000, seed=3)
    half = np.sqrt(3.0) * np.array([0.5, 2.0])
    assert np.all(np.abs(X) <= half + 1e-12)
    assert np.allclose(X.var(axis=0), [0.25, 4.0], rtol=0.05)


def _random_dataset(seed, M=17, D=3, C=2):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((M, D)), rng.standard_normal((M, C)))


def test_csv_roundtrip_exact(tmp_path):
    ds = _random_dataset(0)
    path = tmp_path / "data.csv"
    save_dataset(str(path), ds)
    header = path.read_text().splitlines()[0]
    assert header == "f0,f1,f2,y0,y1"
    back = load_dataset(str(path))
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.Y, ds.Y)


def test_csv_save_is_atomic_with_newline_endings(tmp_path):
    ds = _random_dataset(1)
    path = tmp_path / "data.csv"
    path.write_text("stale")
    save_dataset(str(path), ds)
    assert [f.name for f in tmp_path.iterdir()] == ["data.csv"]
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.count(b"\n") == ds.M + 1


@pytest.mark.parametrize("name", ["data.bin", "data"])
def test_any_path_but_csv_gets_an_npz_archive(tmp_path, name):
    ds = _random_dataset(2)
    path = tmp_path / name
    save_dataset(str(path), ds)
    assert path.read_bytes()[:4] == b"PK\x03\x04"
    back = load_dataset(str(path))
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.Y, ds.Y)


def test_failed_npz_save_leaves_nothing_behind(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("disk gone")

    monkeypatch.setattr(np, "savez", broken)
    with pytest.raises(RuntimeError, match="disk gone"):
        save_dataset(str(tmp_path / "data.npz"), _random_dataset(3))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rows", [2**24, 2**40])
def test_forged_npz_header_fails_its_crc_before_allocating(tmp_path, rows):
    # a 20000-row archive whose X.npy header claims more rows than it holds
    ds = _random_dataset(4, M=20000, C=1)
    path = tmp_path / "data.npz"
    save_dataset(str(path), ds)
    path.write_bytes(claim_rows(path.read_bytes(), "X.npy", rows))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            load_dataset(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(path) in str(err.value)
    assert "corrupt member 'X.npy'" in str(err.value)
    assert peak < 2 * 1024 * 1024


def test_csv_header_contract(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("a,b,y0\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        load_dataset(str(path))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_dataset(str(empty))


def test_csv_with_spaced_header_and_blank_lines_loads(tmp_path):
    path = tmp_path / "spaced.csv"
    path.write_text(" f0 , f1 ,y0\n1,2,3\n\n   \n4,5,6\n")
    ds = load_dataset(str(path))
    assert np.array_equal(ds.X, [[1.0, 2.0], [4.0, 5.0]])
    assert np.array_equal(ds.Y, [[3.0], [6.0]])
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("f0,y0\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_dataset(str(header_only))


def test_npz_dataset_loads_X_and_Y(tmp_path):
    ds = _random_dataset(4)
    path = tmp_path / "data.npz"
    np.savez(path, X=ds.X, Y=ds.Y)
    back = load_dataset(str(path))
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.Y, ds.Y)
    # a 1-D Y becomes one target column
    flat = tmp_path / "flat.npz"
    np.savez_compressed(flat, X=ds.X, Y=ds.Y[:, 0])
    back = load_dataset(str(flat))
    assert back.Y.shape == (ds.M, 1)
    assert np.array_equal(back.Y[:, 0], ds.Y[:, 0])


@pytest.mark.parametrize("kind", ["binary_junk", "npz_without_Y",
                                  "npz_with_objects", "truncated_npz",
                                  "missing"])
def test_unreadable_dataset_names_path_and_formats(tmp_path, kind):
    ds = _random_dataset(5)
    path = tmp_path / f"{kind}.npz"
    if kind == "binary_junk":
        path.write_bytes(bytes(range(128, 256)) * 4)
    elif kind == "npz_without_Y":
        np.savez(path, X=ds.X)
    elif kind == "npz_with_objects":
        np.savez(path, X=ds.X, Y=np.array([{"a": 1}], dtype=object))
    elif kind == "truncated_npz":
        np.savez(path, X=ds.X, Y=ds.Y)
        path.write_bytes(path.read_bytes()[:200])
    with pytest.raises(ValueError) as err:
        load_dataset(str(path))
    msg = str(err.value)
    assert str(path) in msg
    assert ".npz" in msg and "CSV" in msg


def test_truncated_npz_leaves_no_open_file(tmp_path, monkeypatch):
    # a handle left open is closed by a later garbage collection, whose
    # ResourceWarning then surfaces in whatever runs at that moment
    ds = _random_dataset(6)
    path = tmp_path / "truncated.npz"
    np.savez(path, X=ds.X, Y=ds.Y)
    path.write_bytes(path.read_bytes()[:200])
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="cannot read dataset"):
            load_dataset(str(path))
        gc.collect()
    assert [str(u.exc_value) for u in unraisable] == []


def test_npz_save_writes_an_npz_archive(tmp_path):
    ds = _random_dataset(7)
    path = tmp_path / "data.npz"
    save_dataset(str(path), ds)
    with np.load(path, allow_pickle=False) as archive:
        assert sorted(archive.files) == ["X", "Y"]
        assert np.array_equal(archive["X"], ds.X)
    back = load_dataset(str(path))
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.Y, ds.Y)


def test_standardize_flag(tmp_path):
    ds = _random_dataset(3, M=50)
    X = ds.X.copy()
    X[:, 1] = 7.0  # constant feature must pass through unchanged
    ds = Dataset(X, ds.Y)
    path = tmp_path / "data.csv"
    save_dataset(str(path), ds)
    raw = load_dataset(str(path))
    assert np.array_equal(raw.X, ds.X)
    std = load_dataset(str(path), standardize=True)
    assert np.allclose(std.X[:, 0].mean(), 0.0, atol=1e-12)
    assert np.allclose(std.X[:, 0].std(), 1.0, atol=1e-12)
    assert np.allclose(std.X[:, 1], 0.0, atol=1e-12)
    assert np.array_equal(std.Y, ds.Y)
