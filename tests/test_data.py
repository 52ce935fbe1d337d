"""CSV ingestion, deterministic splits, synthetic blobs."""

import numpy as np
import pytest

from ivenn.data import Dataset, SplitSpec, load_csv, save_csv, split, synth_gaussians
from ivenn.space import build_centroids, nearest_centroid

WELL_FORMED = """id,label,f0,f1
0,0,1.5,-2.0
1,1,0.25,0.75
2,0,3.0,4.0
"""

WITH_SOFTMAX = """id,label,f0,s0,s1
0,0,1.0,0.9,0.1
1,1,2.0,0.3,0.7
"""


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(WELL_FORMED)
        ds = load_csv(path)
        assert len(ds) == 3
        assert ds.feature_dim == 2 and ds.class_count == 2
        np.testing.assert_array_equal(ds.ids, [0, 1, 2])
        np.testing.assert_array_equal(ds.features[0], [1.5, -2.0])
        assert ds.softmaxes is None

    def test_softmax_block(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(WITH_SOFTMAX)
        ds = load_csv(path)
        assert ds.class_count == 2 and ds.feature_dim == 1
        np.testing.assert_array_equal(ds.softmaxes[1], [0.3, 0.7])

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0,f1\n0,0,1.0,2.0\n1,1,3.0\n")
        with pytest.raises(ValueError, match=r"d\.csv:3"):
            load_csv(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0\n0,0,1.0\n1,0,oops\n")
        with pytest.raises(ValueError, match=r"d\.csv:3.*non-numeric"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"id,label,f0,f1\n0,0,1.0,2.0\n1,1,3.0,{cell}\n2,0,{cell},1.0\n")
        with pytest.raises(ValueError, match=r"d\.csv:3: non-finite"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_score_names_line(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(
            f"id,label,f0,s0,s1\n0,0,1.0,0.5,0.5\n1,1,2.0,0.5,0.5\n2,1,3.0,{cell},0.5\n"
        )
        with pytest.raises(ValueError, match=r"d\.csv:4: non-finite"):
            load_csv(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0\n0,0,1.0\n\n1,0,oops\n")
        with pytest.raises(ValueError, match=r"d\.csv:4: non-numeric"):
            load_csv(path)
        path.write_text("\nid,label,f0,f1\n0,0,1.0,2.0\n\n\n1,1,3.0\n")
        with pytest.raises(ValueError, match=r"d\.csv:6: expected 4 columns"):
            load_csv(path)
        path.write_text("id,label,f0\n\n0,0,1.0\n\n1,0,nan\n")
        with pytest.raises(ValueError, match=r"d\.csv:5: non-finite"):
            load_csv(path)
        path.write_text("id,label,f0\n0,0,1.0\n\n\n1,5,2.0\n")
        with pytest.raises(ValueError, match=r"d\.csv:5: label 5"):
            load_csv(path, class_count=2)

    def test_bad_softmax_sum(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0,s0,s1\n0,0,1.0,0.5,0.4\n")
        with pytest.raises(ValueError, match="sum to 1"):
            load_csv(path)

    def test_label_outside_declared_classes(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0\n0,0,1.0\n1,5,2.0\n")
        with pytest.raises(ValueError, match=r"d\.csv:3.*label 5"):
            load_csv(path, class_count=2)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,id,f0\n0,0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "absent.csv")

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(131)
        soft = rng.dirichlet(np.ones(3), size=20)
        ds = Dataset(
            ids=np.arange(20, dtype=np.int64),
            features=rng.normal(size=(20, 4)),
            labels=rng.integers(0, 3, 20),
            class_count=3,
            softmaxes=soft,
        )
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.softmaxes, ds.softmaxes)


class TestDatasetValidation:
    def test_label_range(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(
                ids=np.array([0]),
                features=np.zeros((1, 2)),
                labels=np.array([3]),
                class_count=2,
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            Dataset(
                ids=np.array([0, 1]),
                features=np.zeros((1, 2)),
                labels=np.array([0, 0]),
                class_count=1,
            )

    def test_softmax_shape(self):
        with pytest.raises(ValueError, match="softmaxes"):
            Dataset(
                ids=np.array([0]),
                features=np.zeros((1, 2)),
                labels=np.array([0]),
                class_count=2,
                softmaxes=np.ones((1, 3)) / 3.0,
            )


class TestSplit:
    def make(self, n, classes=4, seed=0):
        rng = np.random.default_rng(seed)
        return Dataset(
            ids=np.arange(n, dtype=np.int64),
            features=rng.normal(size=(n, 2)),
            labels=rng.integers(0, classes, n),
            class_count=classes,
        )

    def test_floor_arithmetic(self):
        proper, cal, test = split(self.make(100), SplitSpec(seed=5))
        assert (len(test), len(cal), len(proper)) == (10, 18, 72)

    def test_deterministic(self):
        ds = self.make(80)
        a = split(ds, SplitSpec(seed=9))
        b = split(ds, SplitSpec(seed=9))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.ids, pb.ids)

    def test_ten_examples_one_test(self):
        ds = self.make(10, classes=2, seed=3)
        proper, cal, test = split(ds, SplitSpec(seed=1))
        assert len(test) == 1

    def test_disjoint_and_exhaustive(self):
        ds = self.make(97)
        proper, cal, test = split(ds, SplitSpec(seed=2))
        all_ids = np.concatenate([proper.ids, cal.ids, test.ids])
        assert len(all_ids) == 97
        assert len(np.unique(all_ids)) == 97

    def test_missing_class_hints_reseed(self):
        ds = Dataset(
            ids=np.arange(30, dtype=np.int64),
            features=np.zeros((30, 1)),
            labels=np.array([0] * 29 + [1]),
            class_count=2,
        )
        # some seed must push the lone class-1 example out of proper training
        with pytest.raises(ValueError, match="seed"):
            for seed in range(200):
                split(ds, SplitSpec(seed=seed))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="empty part"):
            split(self.make(5, classes=2), SplitSpec(seed=0))

    def test_bad_fractions(self):
        with pytest.raises(ValueError, match="test_fraction"):
            split(self.make(100), SplitSpec(test_fraction=1.5))


class TestSynthGaussians:
    def test_shapes_and_determinism(self):
        a = synth_gaussians(3, 5, 40, 4.0, seed=11)
        b = synth_gaussians(3, 5, 40, 4.0, seed=11)
        assert len(a) == 120 and a.feature_dim == 5
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert np.bincount(a.labels).tolist() == [40, 40, 40]

    def test_center_distances_equal_separation(self):
        ds = synth_gaussians(4, 6, 500, 7.0, seed=13)
        cs = build_centroids(ds.features, ds.labels, 4)
        for i in range(4):
            for j in range(i + 1, 4):
                d = np.linalg.norm(cs.centroids[i] - cs.centroids[j])
                assert abs(d - 7.0) < 0.3  # sample noise around the exact 7

    def test_wide_separation_is_separable(self):
        ds = synth_gaussians(3, 3, 200, 10.0, seed=17)
        cs = build_centroids(ds.features, ds.labels, 3)
        correct = sum(
            nearest_centroid(cs, x)[0] == y for x, y in zip(ds.features, ds.labels)
        )
        assert correct / len(ds) > 0.99

    def test_zero_separation_indistinguishable(self):
        ds = synth_gaussians(3, 3, 300, 0.0, seed=19)
        cs = build_centroids(ds.features, ds.labels, 3)
        correct = sum(
            nearest_centroid(cs, x)[0] == y for x, y in zip(ds.features, ds.labels)
        )
        assert correct / len(ds) < 0.5

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="n_per_class"):
            synth_gaussians(2, 2, 0, 1.0, seed=0)
        with pytest.raises(ValueError, match="dim"):
            synth_gaussians(5, 3, 10, 1.0, seed=0)
        with pytest.raises(ValueError, match="2 classes"):
            synth_gaussians(1, 3, 10, 1.0, seed=0)
