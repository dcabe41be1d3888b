import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrabi import store
from qrabi.errors import SchemaError


def _record(meta_extra=None, data=None):
    meta = {"kind": "qfi-sweep", "omega": 0.1, "Omega": 1.0,
            "grid": [1.0, 1.6, 3], "tolerances": {"tol": 1e-10}}
    meta.update(meta_extra or {})
    if data is None:
        data = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.5]])
    return store.SweepRecord(meta=meta, columns=["a", "b"], data=data)


def test_round_trip(tmp_path):
    rec = _record()
    path = tmp_path / "r.sweep"
    store.save(rec, path)
    loaded = store.load(path)
    assert loaded.columns == rec.columns
    assert np.array_equal(loaded.data, rec.data)
    assert loaded.meta["kind"] == "qfi-sweep"
    assert loaded.content_hash() == rec.content_hash()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    min_size=2, max_size=2), min_size=1, max_size=6))
def test_round_trip_is_lossless(tmp_path_factory, rows):
    rec = _record(data=np.array(rows))
    path = tmp_path_factory.mktemp("s") / "r.sweep"
    store.save(rec, path)
    assert np.array_equal(store.load(path).data, rec.data)


def test_hash_ignores_payload_and_presentation():
    a = _record().content_hash()
    b = _record(data=np.array([[9.0, 9.0]])).content_hash()
    assert a == b  # payload does not enter the identity
    c = _record({"tolerances": {"tol": 1e-8}}).content_hash()
    assert c != a  # tolerance change flips the hash


def test_nan_payload_rejected(tmp_path):
    rec = _record(data=np.array([[1.0, np.nan]]))
    with pytest.raises(SchemaError):
        store.save(rec, tmp_path / "bad.sweep")


def test_column_count_mismatch_rejected():
    with pytest.raises(SchemaError):
        store.SweepRecord(meta={}, columns=["a"], data=np.array([[1.0, 2.0]]))


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(SchemaError) as exc:
        store.load(path)
    assert exc.value.offset == 0


@pytest.mark.parametrize("header", ['{"kind": "qfi-sweep"}', '["a", "b"]'])
def test_load_rejects_header_without_columns(tmp_path, header):
    path = tmp_path / "x.sweep"
    path.write_text(f"#qrm-sweep v1 {header}\n1,2\n")
    with pytest.raises(SchemaError) as exc:
        store.load(path)
    assert exc.value.offset == 0


def test_load_rejects_future_schema(tmp_path):
    path = tmp_path / "x.sweep"
    path.write_text('#qrm-sweep v99 {"columns": ["a"]}\n1\n')
    with pytest.raises(SchemaError, match="migration"):
        store.load(path)


def test_load_reports_corrupt_row_offset(tmp_path):
    rec = _record()
    path = tmp_path / "r.sweep"
    store.save(rec, path)
    text = path.read_text().splitlines()
    text[2] = "1.0,oops"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(SchemaError) as exc:
        store.load(path)
    assert exc.value.offset == 3  # 1-based line number


def test_cache_lookup_hit_and_miss(tmp_path):
    rec = _record()
    assert store.lookup(tmp_path, rec.content_hash()) is None
    store.store(tmp_path, rec)
    hit = store.lookup(tmp_path, rec.content_hash())
    assert hit is not None
    assert np.array_equal(hit.data, rec.data)
    assert store.lookup(tmp_path, "0" * 64) is None


def test_record_of_older_numerics_is_a_miss(tmp_path):
    # records saved by older numerics carry their code version (finite-
    # difference ED QFI; Nelder-Mead PP with neighbour-difference flows; the
    # two-eigensolve cutoff test; the four-ordered-pair PP energy; the
    # scan-and-golden-section QFI peak; warm-started L-BFGS-B PP sweeps with
    # finite-difference Hessians; one version for both numerics families);
    # the same request now hashes differently
    for version in ("qrabi-0.1.0", "qrabi-0.1.0+ed-linear-response",
                    "qrabi-0.1.0+pp-gradient", "qrabi-0.1.0+ed-one-eigensolve",
                    "qrabi-0.1.0+pp-three-pairs", "qrabi-0.1.0+ed-peak-root",
                    "qrabi-0.1.0+pp-newton"):
        old = _record({"code_version": version})
        store.store(tmp_path, old)
        assert store.lookup(tmp_path, old.content_hash()) is not None
        assert store.lookup(tmp_path, _record().content_hash()) is None


def test_store_releases_lock(tmp_path):
    rec = _record()
    path = store.store(tmp_path, rec)
    assert path.exists()
    assert not path.with_suffix(".lock").exists()


def test_stale_lock_neither_delays_nor_fails_store(tmp_path):
    # a writer that died under the old lock-file protocol left <hash>.lock
    rec = _record()
    path = store.cache_path(tmp_path, rec.content_hash())
    path.with_suffix(".lock").touch()
    t0 = time.perf_counter()
    assert store.store(tmp_path, rec) == path
    assert time.perf_counter() - t0 < 1.0
    assert np.array_equal(store.lookup(tmp_path, rec.content_hash()).data, rec.data)
    assert {p.name for p in tmp_path.iterdir()} == {path.name, path.with_suffix(".lock").name}


def test_failed_write_leaves_no_temporary_file(tmp_path):
    rec = _record()
    rec.data[0, 0] = np.nan
    with pytest.raises(SchemaError):
        store.store(tmp_path, rec)
    assert not list(tmp_path.iterdir())
