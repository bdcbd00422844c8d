import numpy as np
import pytest

from revparams.grid import ClassGrid, ClassVocabulary, build_vocabulary, cell_of, center_of

GRID = ClassGrid()


class TestGridShape:
    def test_default_bin_counts(self):
        assert GRID.n_t60_bins == 8
        assert GRID.n_drr_bins == 21
        assert GRID.n_cells == 168

    @pytest.mark.parametrize("kwargs", [{"t60_step": 0.0}, {"t60_min": 1.0}, {"drr_step": -1.0}])
    def test_bad_grid_raises(self, kwargs):
        with pytest.raises(TypeError, match="takes no arguments"):
            ClassGrid(**kwargs)


class TestCellOf:
    def test_interior_point(self):
        assert cell_of(GRID, 0.55, 3.2) == (4, 9)

    def test_lower_boundary(self):
        assert cell_of(GRID, 0.1, -6.0) == (0, 0)

    def test_out_of_range_clamps_to_edge_bins(self):
        assert cell_of(GRID, 1.293, 4.96) == (7, 10)
        assert cell_of(GRID, 0.01, -40.0) == (0, 0)
        assert cell_of(GRID, 5.0, 99.0) == (7, 20)

    def test_exact_decimal_edges_bin_upward(self):
        assert cell_of(GRID, 0.3, 0.0) == (2, 6)
        assert cell_of(GRID, 0.7, -3.0) == (6, 3)

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            cell_of(GRID, float("nan"), 0.0)
        with pytest.raises(ValueError):
            cell_of(GRID, 0.5, float("inf"))

    def test_nonpositive_t60_raises(self):
        with pytest.raises(ValueError):
            cell_of(GRID, 0.0, 0.0)


class TestCenterOf:
    def test_center_values(self):
        assert center_of(GRID, (6, 7)) == pytest.approx((0.75, 1.5))
        assert center_of(GRID, (0, 0)) == pytest.approx((0.15, -5.5))

    def test_round_trip_lands_in_same_cell(self, rng):
        for _ in range(200):
            t60 = rng.uniform(0.1, 0.9)
            drr = rng.uniform(-6.0, 15.0)
            cell = cell_of(GRID, t60, drr)
            assert cell_of(GRID, *center_of(GRID, cell)) == cell

    def test_out_of_grid_cell_raises(self):
        with pytest.raises(ValueError):
            center_of(GRID, (8, 0))
        with pytest.raises(ValueError):
            center_of(GRID, (0, 21))


class TestVocabulary:
    def test_two_distinct_cells(self):
        vocab = build_vocabulary(GRID, [(0.15, 0.5), (0.85, 0.5)])
        assert len(vocab) == 2

    def test_thousand_pairs_one_cell(self):
        pairs = [(0.25 + 4e-5 * i, 3.3) for i in range(1000)]
        assert len(build_vocabulary(GRID, pairs)) == 1

    def test_tiling_all_cells_gives_168(self):
        pairs = [center_of(GRID, (i, j)) for i in range(8) for j in range(21)]
        assert len(build_vocabulary(GRID, pairs)) == 168

    def test_ordering_is_permutation_invariant(self, rng):
        pairs = [(rng.uniform(0.1, 0.9), rng.uniform(-6, 15)) for _ in range(50)]
        vocab1 = build_vocabulary(GRID, pairs)
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        vocab2 = build_vocabulary(GRID, shuffled)
        assert vocab1.cells == vocab2.cells

    def test_size_never_exceeds_grid(self, rng):
        pairs = [(rng.uniform(0.01, 2.0), rng.uniform(-20, 30)) for _ in range(500)]
        assert len(build_vocabulary(GRID, pairs)) <= GRID.n_cells

    def test_class_id_lookup(self):
        vocab = build_vocabulary(GRID, [(0.85, 0.5), (0.15, 0.5)])
        assert vocab.cells == ((0, 6), (7, 6))
        assert vocab.class_id_of((0, 6)) == 0
        assert vocab.class_id_of((7, 6)) == 1
        with pytest.raises(ValueError):
            vocab.class_id_of((3, 6))

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            build_vocabulary(GRID, [])

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError):
            ClassVocabulary(((0, 0), (0, 0)))

    def test_unsorted_cells_rejected(self):
        with pytest.raises(ValueError):
            ClassVocabulary(((1, 0), (0, 0)))
