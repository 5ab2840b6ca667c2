"""Scene generator determinism/statistics and format round trips."""

import zlib

import numpy as np
import pytest

from semaffine import scenes as S
from semaffine.errors import ContractError, ParseError


class TestGenerateScene:
    def test_determinism(self):
        spec = S.SceneSpec()
        a = S.generate_scene(spec, seed=42)
        b = S.generate_scene(spec, seed=42)
        assert a.coords.tobytes() == b.coords.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_different_seeds_differ(self):
        spec = S.SceneSpec()
        a = S.generate_scene(spec, seed=1)
        b = S.generate_scene(spec, seed=2)
        assert a.coords.tobytes() != b.coords.tobytes()

    def test_every_class_present_across_seed_sweep(self):
        spec = S.SceneSpec(points_per_object=64)
        present = 0
        for seed in range(100):
            cloud = S.generate_scene(spec, seed)
            if set(np.unique(cloud.labels)) == set(range(4)):
                present += 1
        assert present >= 95

    def test_adjacency_and_shared_parts_bookkeeping(self):
        spec = S.SceneSpec(points_per_object=64)
        for seed in range(20):
            cloud = S.generate_scene(spec, seed)
            assert cloud.meta["adjacent_pairs"] >= 1
            assert cloud.meta["leg_points"] > 0
            # nearest cross-class neighbor inside contact distance somewhere
            table = cloud.coords[cloud.labels == S.CLASS_TABLE]
            chair = cloud.coords[cloud.labels == S.CLASS_CHAIR]
            d2 = ((table[:, None, :] - chair[None, :, :]) ** 2).sum(-1)
            assert np.sqrt(d2.min()) < 0.30

    def test_leg_distributions_match_across_classes(self):
        spec = S.SceneSpec(points_per_object=200)
        table_leg_z, chair_leg_z = [], []
        table_leg_r, chair_leg_r = [], []
        for seed in range(30):
            cloud = S.generate_scene(spec, seed)
            top = cloud.meta["leg_height"]
            for cls, zs, rs in ((S.CLASS_TABLE, table_leg_z, table_leg_r),
                                (S.CLASS_CHAIR, chair_leg_z, chair_leg_r)):
                pts = cloud.coords[cloud.labels == cls]
                legs = pts[pts[:, 2] < top - 0.03]  # below the slab
                zs.extend((legs[:, 2] / top).tolist())
                # radial distance from each leg's own axis is the leg radius
                rs.append(len(legs))
        # same relative height spread and comparable point mass
        assert abs(np.mean(table_leg_z) - np.mean(chair_leg_z)) < 0.05
        assert abs(np.std(table_leg_z) - np.std(chair_leg_z)) < 0.05
        assert sum(table_leg_r) > 0 and sum(chair_leg_r) > 0

    def test_label_counts_track_object_budget(self):
        spec = S.SceneSpec(objects_per_scene=6, points_per_object=100)
        cloud = S.generate_scene(spec, seed=5)
        # floor + 6 objects at ~100 points each
        assert cloud.n_points == 7 * 100

    def test_single_object_spec_rejected(self):
        with pytest.raises(ContractError):
            S.generate_scene(S.SceneSpec(objects_per_scene=1), seed=0)


def per_row_scene_text(cloud):
    """The scene file written one row at a time with numpy-scalar f-strings."""
    lines = [S.MAGIC, f"n={cloud.n_points} classes={cloud.n_classes} seed={cloud.seed}"]
    for (x, y, z), label in zip(cloud.coords, cloud.labels):
        lines.append(f"{x:.17g} {y:.17g} {z:.17g} {label}")
    return "\n".join(lines) + "\n"


class TestSceneIO:
    def test_round_trip_bitwise(self, tmp_path):
        cloud = S.generate_scene(S.SceneSpec(points_per_object=32), seed=7)
        path = tmp_path / "scene.txt"
        S.write_scene(cloud, path)
        back = S.read_scene(path)
        assert back.coords.tobytes() == cloud.coords.tobytes()
        assert back.labels.tobytes() == cloud.labels.tobytes()
        assert back.n_classes == cloud.n_classes and back.seed == cloud.seed

    def test_second_write_is_byte_identical(self, tmp_path):
        cloud = S.generate_scene(S.SceneSpec(points_per_object=16), seed=3)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        S.write_scene(cloud, p1)
        S.write_scene(S.read_scene(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_label_out_of_range_names_row(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"{S.MAGIC}\nn=2 classes=4 seed=0\n0 0 0 1\n0 0 0 4\n")
        with pytest.raises(ParseError, match="line 4"):
            S.read_scene(path)

    @pytest.mark.parametrize("header,row", [("n=2 classes=4 seed=\u0661", "0 0 0 1"),
                                            ("n=\u0662 classes=4 seed=0", "0 0 0 1"),
                                            ("n=2 classes=4 seed=+1", "0 0 0 1"),
                                            ("n=2 classes=4 seed=0", "0 0 0 \u0661"),
                                            ("n=2 classes=4 seed=0", "0 0 0 0_1")],
                             ids=["seed-digit", "n-digit", "seed-plus", "label-digit", "label-underscore"])
    def test_ints_must_be_ascii_digits(self, tmp_path, header, row):
        path = tmp_path / "bad.txt"
        path.write_text(f"{S.MAGIC}\n{header}\n0 0 0 1\n{row}\n", encoding="utf-8")
        line = 2 if row == "0 0 0 1" else 4
        with pytest.raises(ParseError, match=f"line {line}"):
            S.read_scene(path)

    def test_write_matches_per_row_formatter(self, tmp_path):
        special = [-0.0, 0.0, 5e-324, -2.2250738585072014e-309, 1e-300, -1e300, 1e300,
                   1.0, -3.0, 2.0 ** 53, 1e16, 0.1, 1.0 / 3.0, -123456.789]
        rng = np.random.default_rng(0)
        coords = np.concatenate([np.array(special * 3).reshape(-1, 3), rng.normal(0, 10, (20, 3))])
        labels = np.arange(coords.shape[0]) % 4
        cloud = S.LabeledCloud(coords=coords, labels=labels, n_classes=4, seed=-5)
        clouds = [cloud, S.generate_scene(S.SceneSpec(points_per_object=16), seed=4)]
        for i, c in enumerate(clouds):
            path = tmp_path / f"scene{i}.txt"
            S.write_scene(c, path)
            assert path.read_text(encoding="utf-8") == per_row_scene_text(c)
            back = S.read_scene(path)
            assert back.coords.tobytes() == c.coords.tobytes()
            assert back.labels.tobytes() == c.labels.tobytes()

    def test_golden_scene_file(self, tmp_path):
        path = tmp_path / "golden.txt"
        S.write_scene(S.generate_scene(S.SceneSpec(), seed=7200000), path)
        data = path.read_bytes()
        assert (len(data), zlib.crc32(data)) == (149019, 2434645794)

    @pytest.mark.parametrize("label", ["99999999999999999999", "-99999999999999999999"])
    def test_label_outside_int64_names_row(self, tmp_path, label):
        path = tmp_path / "huge_label.txt"
        path.write_text(f"{S.MAGIC}\nn=2 classes=4 seed=0\n0 0 0 1\n0 0 0 {label}\n")
        with pytest.raises(ParseError, match=f"line 4: label {label} out of range"):
            S.read_scene(path)

    def test_classes_outside_int64_rejected(self, tmp_path):
        path = tmp_path / "huge_classes.txt"
        path.write_text(f"{S.MAGIC}\nn=1 classes=99999999999999999999 seed=0\n0 0 0 99999999999999999998\n")
        with pytest.raises(ParseError, match="line 2"):
            S.read_scene(path)

    def test_lines_after_declared_points_rejected(self, tmp_path):
        path = tmp_path / "trailing.txt"
        path.write_text(f"{S.MAGIC}\nn=1 classes=4 seed=0\n0 0 0 1\njunk\n0 0 0 2\n")
        with pytest.raises(ParseError, match="line 4"):
            S.read_scene(path)
        path.write_text(f"{S.MAGIC}\nn=1 classes=4 seed=0\n0 0 0 1\n\n  \n0 0 0 2\n")
        with pytest.raises(ParseError, match="line 6"):
            S.read_scene(path)

    def test_trailing_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "blank_tail.txt"
        path.write_text(f"{S.MAGIC}\nn=1 classes=4 seed=0\n0 0 0 1\n\n \t\n")
        assert S.read_scene(path).n_points == 1

    def test_empty_cloud_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text(f"{S.MAGIC}\nn=0 classes=4 seed=0\n")
        with pytest.raises(ContractError):
            S.read_scene(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not-a-scene\n")
        with pytest.raises(ParseError, match="line 1"):
            S.read_scene(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text(f"{S.MAGIC}\nn=1 classes=4 seed=0\n0 0 0\n")
        with pytest.raises(ParseError, match="line 3"):
            S.read_scene(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_rejected(self, tmp_path, value):
        path = tmp_path / "nonfinite.txt"
        path.write_text(f"{S.MAGIC}\nn=2 classes=4 seed=0\n0 0 0 1\n0 {value} 0 2\n")
        with pytest.raises(ContractError, match="point 1"):
            S.read_scene(path)
        with pytest.raises(ContractError, match="finite"):
            S.LabeledCloud(coords=[[0.0, float(value), 0.0]], labels=[0], n_classes=4)

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(f"{S.MAGIC}\nn=1 classes=4 seed=0\n".encode() + b"0 0 0 1 \xe9\n")
        with pytest.raises(ParseError, match="line 3.*UTF-8"):
            S.read_scene(path)


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [("scenes/a.txt", "train"), ("scenes/b.txt", "val")]
        path = tmp_path / "manifest.txt"
        S.write_manifest(entries, path)
        assert S.read_manifest(path) == entries

    def test_paths_with_spaces_load(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("scenes/a b.txt\ttrain\n")
        assert S.read_manifest(path) == [("scenes/a b.txt", "train")]

    def test_space_separated_line_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("scenes/a.txt\ttrain\nscenes/b.txt val\n")
        with pytest.raises(ParseError, match="line 2"):
            S.read_manifest(path)

    def test_bad_tag(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("scenes/a.txt\ttest\n")
        with pytest.raises(ParseError):
            S.read_manifest(path)

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_bytes(b"scenes/\xff.txt\ttrain\n")
        with pytest.raises(ParseError, match="line 1.*UTF-8"):
            S.read_manifest(path)

    def test_nul_in_path_rejected(self, tmp_path):
        # open() raises ValueError for such a path, which the CLI would not catch
        path = tmp_path / "manifest.txt"
        path.write_bytes(b"scenes/a.txt\ttrain\nscenes/b.txt\x00\tval\n")
        with pytest.raises(ParseError, match="line 2: NUL byte"):
            S.read_manifest(path)
