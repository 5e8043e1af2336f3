"""fvecs/ivecs/bvecs readers and writers."""

import numpy as np
import pytest

from repro.datasets import read_vecs, write_vecs


class TestRoundtrip:
    def test_fvecs(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((20, 7)).astype(np.float32)
        path = write_vecs(tmp_path / "x.fvecs", data)
        assert np.array_equal(read_vecs(path), data)

    def test_ivecs(self, tmp_path):
        data = np.random.default_rng(1).integers(-100, 100, (10, 4)).astype(np.int32)
        path = write_vecs(tmp_path / "x.ivecs", data)
        assert np.array_equal(read_vecs(path), data)

    def test_bvecs(self, tmp_path):
        data = np.random.default_rng(2).integers(0, 255, (15, 8)).astype(np.uint8)
        path = write_vecs(tmp_path / "x.bvecs", data)
        assert np.array_equal(read_vecs(path), data)

    def test_max_vectors_truncates(self, tmp_path):
        data = np.arange(40, dtype=np.float32).reshape(10, 4)
        path = write_vecs(tmp_path / "x.fvecs", data)
        out = read_vecs(path, max_vectors=3)
        assert np.array_equal(out, data[:3])

    def test_single_vector(self, tmp_path):
        data = np.ones((1, 5), dtype=np.float32)
        assert read_vecs(write_vecs(tmp_path / "x.fvecs", data)).shape == (1, 5)


class TestValidation:
    def test_unknown_suffix(self, tmp_path):
        with pytest.raises(ValueError, match="suffix"):
            write_vecs(tmp_path / "x.npy", np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="suffix"):
            read_vecs(tmp_path / "x.txt")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.fvecs"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            read_vecs(path)

    def test_truncated_file(self, tmp_path):
        data = np.ones((3, 4), dtype=np.float32)
        path = write_vecs(tmp_path / "x.fvecs", data)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="record size"):
            read_vecs(path)

    def test_inconsistent_headers(self, tmp_path):
        path = tmp_path / "bad.fvecs"
        # two records claiming different dimensions but same byte length
        rec1 = np.int32(2).tobytes() + np.ones(2, dtype=np.float32).tobytes()
        rec2 = np.int32(1).tobytes() + np.ones(2, dtype=np.float32).tobytes()
        path.write_bytes(rec1 + rec2)
        with pytest.raises(ValueError, match="inconsistent"):
            read_vecs(path)

    def test_write_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_vecs(tmp_path / "x.fvecs", np.zeros((0, 3), dtype=np.float32))


class TestPipelineUse:
    def test_index_from_fvecs(self, tmp_path, tiny_ds):
        """End to end: write base to fvecs, reload, build, search."""
        from repro import HNSW
        path = write_vecs(tmp_path / "base.fvecs", tiny_ds.base)
        base = read_vecs(path)
        index = HNSW(base, tiny_ds.metric, M=8, ef_construction=40)
        result = index.search(base[0], k=1, ef=40)
        # normalized cluster data can contain near-coincident points, so
        # assert on distance rather than identity
        assert result.distances[0] <= 1e-6
