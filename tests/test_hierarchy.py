"""Hierarchy oracles: brute-force voxel hashing, grouped means, descendant unions."""

import numpy as np
import pytest

from semaffine import hierarchy as H
from semaffine.errors import ContractError, ShapeError
from semaffine.tensor import Tensor
from upstream import weighted_sum


def voxel_hash_oracle(coords, edge):
    """Independent dict-based grouping by floored voxel key."""
    cells = {}
    for j, p in enumerate(coords):
        key = tuple(int(np.floor(c / edge)) for c in p)
        cells.setdefault(key, []).append(j)
    ordered = sorted(cells)
    parent = np.zeros(len(coords), dtype=np.int64)
    centroids = []
    for pid, key in enumerate(ordered):
        members = cells[key]
        for j in members:
            parent[j] = pid
        centroids.append(coords[members].mean(axis=0))
    return parent, np.array(centroids)


def descendant_union_oracle(h, level0, target_level):
    """Recompute a level's rows as unions over all level-0 descendants."""
    n0 = h.sizes[0]
    anc = np.arange(n0)
    for level in range(target_level):
        anc = h.parents[level][anc]
    out = np.zeros((h.sizes[target_level], level0.shape[1]), dtype=np.uint8)
    for j in range(n0):
        out[anc[j]] |= level0[j]
    return out


def unique_add_at_oracle(coords, base_voxel, levels):
    """Row-wise np.unique grouping with np.add.at centroids, level by level."""
    level_coords, parents = [coords], []
    for i in range(levels - 1):
        keys = np.floor(level_coords[i] / (base_voxel * 2.0 ** i)).astype(np.int64)
        _, parent, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
        parent = parent.reshape(-1)
        centroids = np.zeros((counts.shape[0], 3))
        np.add.at(centroids, parent, level_coords[i])
        centroids /= counts[:, None]
        parents.append(parent)
        level_coords.append(centroids)
    return level_coords, parents


def add_at_shadow_oracle(h, level0):
    """Parent rows as min(1, np.add.at sum of child rows)."""
    out = [level0]
    for level in range(h.levels - 1):
        acc = np.zeros((h.sizes[level + 1], level0.shape[1]), dtype=np.int64)
        np.add.at(acc, h.parents[level], out[level])
        out.append(np.minimum(acc, 1).astype(np.uint8))
    return out


def one_hot_rows(labels, n_classes):
    """The (n, N) uint8 one-hot rows of integer labels, the oracles' level-0 input."""
    return np.eye(n_classes, dtype=np.uint8)[labels]


def random_clouds(seed, count):
    """Clouds with negative coordinates, exact duplicates, grid-snapped points
    and single points, at several scales."""
    rng = np.random.default_rng(seed)
    yield np.array([[-0.3, 2.5, -7.0]])
    for trial in range(count):
        n = int(rng.integers(1, 300))
        coords = rng.uniform(-4, 4, (n, 3)) * rng.choice([1e-3, 1.0, 50.0])
        if trial % 3 == 0:
            coords = np.round(coords, 1)
        if trial % 2 == 0:
            coords = np.concatenate([coords, coords[rng.integers(0, n, n // 2 + 1)]])
        yield coords


class TestBuildHierarchy:
    def test_two_points_one_voxel(self):
        coords = np.array([[0.1, 0.1, 0.1], [0.3, 0.2, 0.1]])
        h = H.build_hierarchy(coords, base_voxel=1.0, levels=2)
        assert h.sizes == [2, 1]
        np.testing.assert_allclose(h.coords[1], [[0.2, 0.15, 0.1]])
        np.testing.assert_array_equal(h.parents[0], [0, 0])

    def test_distant_points_do_not_merge(self):
        coords = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0], [-5.0, 5.0, 0.0]])
        h = H.build_hierarchy(coords, base_voxel=1.0, levels=2)
        assert h.sizes == [3, 3]

    def test_random_against_hashing_oracle(self):
        rng = np.random.default_rng(0)
        coords = rng.uniform(-2, 2, (100, 3))
        h = H.build_hierarchy(coords, base_voxel=0.5, levels=3)
        level = coords
        for i in range(2):
            parent, centroids = voxel_hash_oracle(level, 0.5 * 2 ** i)
            np.testing.assert_array_equal(h.parents[i], parent)
            np.testing.assert_allclose(h.coords[i + 1], centroids, atol=1e-12)
            level = centroids

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        coords = rng.uniform(-3, 3, (64, 3))
        h = H.build_hierarchy(coords, base_voxel=0.4, levels=4)
        for i, parent in enumerate(h.parents):
            assert parent.shape == (h.sizes[i],)
            assert parent.min() >= 0 and parent.max() == h.sizes[i + 1] - 1
            assert set(parent.tolist()) == set(range(h.sizes[i + 1]))  # every parent has a child
        assert h.sizes == sorted(h.sizes, reverse=True)
        assert h.sizes[-1] >= 1

    def test_bit_identical_to_unique_add_at_oracle(self):
        rng = np.random.default_rng(11)
        for coords in random_clouds(10, 150):
            base_voxel, levels = float(rng.uniform(0.05, 2.0)), int(rng.integers(2, 5))
            h = H.build_hierarchy(coords, base_voxel, levels)
            want_coords, want_parents = unique_add_at_oracle(coords, base_voxel, levels)
            for got, want in zip(h.parents, want_parents, strict=True):
                assert np.array_equal(got, want)
            for got, want in zip(h.coords, want_coords, strict=True):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("huge", [1e300, -1e300, 5e18, float("nan")])
    def test_coordinates_off_the_voxel_grid_rejected(self, huge):
        # +-1e300 and 5e18 used to overflow int64 keys and share one voxel
        coords = np.array([[0.0, 0.0, 0.0], [1.0, huge, 0.0]])
        with pytest.raises(ContractError, match="point 1.*off the voxel grid"):
            H.build_hierarchy(coords, base_voxel=1.0, levels=3)

    def test_grid_bound_scales_with_voxel_edge(self):
        coords = np.array([[0.0, 0.0, 0.0], [4e18, 0.0, 0.0]])
        assert H.build_hierarchy(coords, base_voxel=1.0, levels=3).sizes == [2, 2, 2]
        with pytest.raises(ContractError):
            H.build_hierarchy(coords, base_voxel=0.5, levels=3)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ContractError):
            H.build_hierarchy(np.zeros((0, 3)), base_voxel=1.0, levels=2)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        coords = rng.uniform(-1, 1, (50, 3))
        h1 = H.build_hierarchy(coords, 0.3, 3)
        h2 = H.build_hierarchy(coords, 0.3, 3)
        for a, b in zip(h1.coords, h2.coords):
            assert a.tobytes() == b.tobytes()


class TestPoolUnpool:
    def _small(self):
        coords = np.array([[0.1, 0, 0], [0.2, 0, 0], [3.0, 0, 0], [3.1, 0, 0], [3.2, 0, 0]])
        return H.build_hierarchy(coords, base_voxel=1.0, levels=2)

    def test_constant_patch_pools_to_value(self):
        h = self._small()
        f = Tensor(np.array([[2.0], [2.0], [7.0], [7.0], [7.0]]))
        out = H.pool_features(h, 0, f)
        np.testing.assert_allclose(sorted(out.data.reshape(-1)), [2.0, 7.0])

    def test_two_point_mean(self):
        coords = np.array([[0.1, 0, 0], [0.2, 0, 0]])
        h = H.build_hierarchy(coords, 1.0, 2)
        out = H.pool_features(h, 0, Tensor([[1.0], [3.0]]))
        np.testing.assert_allclose(out.data, [[2.0]])

    def test_random_matches_grouped_mean_oracle(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(-2, 2, (40, 3))
        h = H.build_hierarchy(coords, 0.7, 2)
        f = rng.standard_normal((40, 5))
        out = H.pool_features(h, 0, Tensor(f))
        expect = np.zeros((h.sizes[1], 5))
        counts = np.zeros(h.sizes[1])
        for j in range(40):
            expect[h.parents[0][j]] += f[j]
            counts[h.parents[0][j]] += 1
        expect /= counts[:, None]
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_unpool_zero_skip_copies_parents(self):
        h = self._small()
        fp = Tensor(np.array([[1.0], [2.0]]))
        out = H.unpool_features(h, 0, fp, Tensor(np.zeros((5, 1))))
        np.testing.assert_array_equal(out.data, fp.data[h.parents[0]])

    def test_unpool_zero_parent_returns_skip(self):
        h = self._small()
        skip = Tensor(np.arange(5.0).reshape(5, 1))
        out = H.unpool_features(h, 0, Tensor(np.zeros((2, 1))), skip)
        np.testing.assert_array_equal(out.data, skip.data)

    def test_random_unpool_matches_gather_add(self):
        rng = np.random.default_rng(4)
        h = self._small()
        fp = rng.standard_normal((2, 3))
        skip = rng.standard_normal((5, 3))
        out = H.unpool_features(h, 0, Tensor(fp), Tensor(skip))
        expect = np.array([fp[h.parents[0][j]] + skip[j] for j in range(5)])
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_pool_then_unpool_identity_on_patch_constant(self):
        rng = np.random.default_rng(5)
        coords = rng.uniform(-2, 2, (30, 3))
        h = H.build_hierarchy(coords, 0.8, 2)
        per_parent = rng.standard_normal((h.sizes[1], 4))
        f = Tensor(per_parent[h.parents[0]])
        pooled = H.pool_features(h, 0, f)
        back = H.unpool_features(h, 0, pooled, Tensor(np.zeros((30, 4))))
        np.testing.assert_allclose(back.data, f.data, atol=1e-12)

    def test_pool_unpool_gradients(self):
        from semaffine.gradcheck import finite_diff_check
        rng = np.random.default_rng(6)
        h = self._small()
        f = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        skip = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        mix = rng.standard_normal((5, 2))

        def loss():
            pooled = H.pool_features(h, 0, f)
            return weighted_sum(H.unpool_features(h, 0, pooled, skip), mix)

        report = finite_diff_check(loss, [("f", f), ("skip", skip)])
        assert report.passed, "\n".join(report.lines())

    def test_shape_errors(self):
        h = self._small()
        with pytest.raises(ShapeError):
            H.pool_features(h, 0, Tensor(np.zeros((4, 2))))
        with pytest.raises(ContractError):
            H.pool_features(h, 1, Tensor(np.zeros((2, 2))))
        with pytest.raises(ShapeError):
            H.unpool_features(h, 0, Tensor(np.zeros((2, 2))), Tensor(np.zeros((5, 3))))


class TestStackHierarchies:
    def _hierarchies(self):
        return [H.build_hierarchy(coords, 0.6, 3) for coords in random_clouds(9, 3)]

    def test_one_scene_has_whole_level_offsets(self):
        h = self._hierarchies()[1]
        assert h.offsets == [(0, n) for n in h.sizes]

    def test_levels_concatenate_and_parents_shift_by_the_level_above(self):
        hiers = self._hierarchies()
        stacked = H.stack_hierarchies(hiers)
        assert stacked.sizes == [sum(h.sizes[level] for h in hiers) for level in range(3)]
        for level in range(3):
            bounds = stacked.offsets[level]
            assert bounds == tuple(np.cumsum([0] + [h.sizes[level] for h in hiers]).tolist())
            for s, h in enumerate(hiers):
                rows = slice(bounds[s], bounds[s + 1])
                np.testing.assert_array_equal(stacked.coords[level][rows], h.coords[level])
                if level < 2:
                    above = stacked.offsets[level + 1][s]
                    np.testing.assert_array_equal(stacked.parents[level][rows], h.parents[level] + above)

    def test_pooling_the_stack_pools_each_scene(self):
        rng = np.random.default_rng(8)
        hiers = self._hierarchies()
        feats = [rng.standard_normal((h.sizes[0], 3)) for h in hiers]
        stacked = H.pool_features(H.stack_hierarchies(hiers), 0, Tensor(np.concatenate(feats)))
        alone = [H.pool_features(h, 0, Tensor(f)).data for h, f in zip(hiers, feats)]
        np.testing.assert_array_equal(stacked.data, np.concatenate(alone))

    def test_mismatched_or_missing_hierarchies_rejected(self):
        coords = np.zeros((2, 3))
        with pytest.raises(ContractError, match="level counts"):
            H.stack_hierarchies([H.build_hierarchy(coords, 1.0, 2), H.build_hierarchy(coords, 1.0, 3)])
        with pytest.raises(ContractError, match="no hierarchies"):
            H.stack_hierarchies([])


class TestShadowLabels:
    def test_homogeneous_patch(self):
        coords = np.array([[0.1, 0, 0], [0.2, 0, 0]])
        h = H.build_hierarchy(coords, 1.0, 2)
        ml = H.shadow_labels(h, [1, 1], 3)
        np.testing.assert_array_equal(ml[1], [[0, 1, 0]])

    def test_boundary_patch(self):
        coords = np.array([[0.1, 0, 0], [0.2, 0, 0]])
        h = H.build_hierarchy(coords, 1.0, 2)
        ml = H.shadow_labels(h, [1, 2], 3)
        np.testing.assert_array_equal(ml[1], [[0, 1, 1]])

    def test_random_hierarchies_match_descendant_union(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 80))
            n_classes = int(rng.integers(2, 6))
            coords = rng.uniform(-2, 2, (n, 3))
            h = H.build_hierarchy(coords, float(rng.uniform(0.2, 1.0)), 4)
            labels = rng.integers(0, n_classes, n)
            level0 = one_hot_rows(labels, n_classes)
            ml = H.shadow_labels(h, labels, n_classes)
            assert sorted(ml) == [1, 2, 3]
            for level in range(1, 4):
                np.testing.assert_array_equal(
                    ml[level], descendant_union_oracle(h, level0, level))

    def test_single_step_composition_equals_direct_union(self):
        rng = np.random.default_rng(8)
        coords = rng.uniform(-2, 2, (60, 3))
        h = H.build_hierarchy(coords, 0.4, 3)
        labels = rng.integers(0, 5, 60)
        level0 = one_hot_rows(labels, 5)
        ml = H.shadow_labels(h, labels, 5)
        np.testing.assert_array_equal(ml[2], descendant_union_oracle(h, level0, 2))

    def test_monotonicity_and_bit_counts(self):
        rng = np.random.default_rng(9)
        coords = rng.uniform(-2, 2, (70, 3))
        h = H.build_hierarchy(coords, 0.3, 4)
        labels = rng.integers(0, 4, 70)
        ml = {0: one_hot_rows(labels, 4), **H.shadow_labels(h, labels, 4)}
        for level in range(3):
            child_bits = ml[level]
            parent_bits = ml[level + 1][h.parents[level]]
            assert (parent_bits >= child_bits).all()  # parent keeps every child class
            assert (ml[level + 1].sum(axis=1) >= 1).all()
            assert (ml[level + 1].sum(axis=1) <= 4).all()

    def test_equal_to_add_at_oracle(self):
        rng = np.random.default_rng(12)
        for coords in random_clouds(13, 100):
            n_classes = int(rng.integers(1, 7))
            h = H.build_hierarchy(coords, float(rng.uniform(0.05, 2.0)), 4)
            labels = rng.integers(0, n_classes, coords.shape[0])
            got = H.shadow_labels(h, labels, n_classes)
            want = add_at_shadow_oracle(h, one_hot_rows(labels, n_classes))
            assert sorted(got) == list(range(1, len(want)))  # no level-0 rows
            for level, g in got.items():
                assert g.dtype == np.uint8 and np.array_equal(g, want[level])

    def test_rejects_labels_out_of_range(self):
        # two parents: label N of parent 0 would otherwise land in row 1's class 0
        coords = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        h = H.build_hierarchy(coords, 1.0, 2)
        for labels in ([0, 3], [3, 0], [-1, 0], [0, -1]):
            with pytest.raises(ContractError, match="out of range"):
                H.shadow_labels(h, labels, 3)
        with pytest.raises(ShapeError):
            H.shadow_labels(h, [0, 1, 2], 3)
        np.testing.assert_array_equal(H.shadow_labels(h, [0, 2], 3)[1], [[1, 0, 0], [0, 0, 1]])
