import numpy as np
import pytest

from conftest import make_model
from revparams.audio_io import AudioBuffer
from revparams.corpus import CorpusItem
from revparams.estimator import StageTimes
from revparams.evaluate import boxplot_stats, evaluate, fps_to_rtf, measure_rtf
from revparams.grid import ClassGrid, ClassVocabulary, center_of

GRID = ClassGrid()
VOCAB = ClassVocabulary(((1, 3), (4, 9), (6, 15)))


def sure_model(winner: int, seed=0):
    """Model rigged to always answer class ``winner``."""
    model = make_model(d=600, h=8, c=len(VOCAB), seed=seed, vocabulary=VOCAB)
    model.w2 = np.zeros_like(model.w2)
    model.b2 = np.full(len(VOCAB), -30.0)
    model.b2[winner] = 30.0
    return model


def items_with_truth(t60, drr, n=6, kind="ambient", snr=10.0, seed=0):
    rng = np.random.default_rng(seed)
    return [
        CorpusItem(None, AudioBuffer(0.1 * rng.standard_normal(6400)), 0, kind, snr, t60, drr, 0)
        for _ in range(n)
    ]


class TestBoxplotStats:
    def test_simple_five_values(self):
        stats = boxplot_stats([1, 2, 3, 4, 5])
        assert stats.median == 3.0
        assert stats.q25 == 2.0
        assert stats.q75 == 4.0
        assert stats.outliers == []
        assert stats.whisker_lo == 1.0
        assert stats.whisker_hi == 5.0
        assert stats.n == 5

    def test_outlier_flagged_with_zero_iqr(self):
        stats = boxplot_stats([1, 1, 1, 1, 100])
        assert stats.outliers == [100.0]
        assert stats.whisker_hi == 1.0

    def test_single_value(self):
        stats = boxplot_stats([7])
        assert (stats.median, stats.q25, stats.q75) == (7.0, 7.0, 7.0)
        assert (stats.whisker_lo, stats.whisker_hi) == (7.0, 7.0)
        assert stats.n == 1

    def test_shift_moves_location_stats_exactly(self, rng):
        values = rng.standard_normal(40)
        a = boxplot_stats(values)
        b = boxplot_stats(values + 2.5)
        assert b.median == pytest.approx(a.median + 2.5, abs=1e-12)
        assert b.q25 == pytest.approx(a.q25 + 2.5, abs=1e-12)
        assert b.q75 == pytest.approx(a.q75 + 2.5, abs=1e-12)
        assert b.whisker_lo == pytest.approx(a.whisker_lo + 2.5, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            boxplot_stats([])


class TestRtf:
    def test_paper_fps_conversion(self):
        assert fps_to_rtf(23736) == pytest.approx(0.0042, abs=5e-5)

    def test_realtime_boundary(self):
        assert fps_to_rtf(100.0) == 1.0
        assert fps_to_rtf(200.0) == 0.5

    def test_nonpositive_fps_raises(self):
        with pytest.raises(ValueError):
            fps_to_rtf(0.0)

    def test_single_run_ratio(self):
        report = measure_rtf([(StageTimes(0.2, 0.3, 0.12), 10.0)])
        assert report.mean_rtf == pytest.approx(0.062)
        assert report.fps == pytest.approx(100.0 * 10.0 / 0.62)

    def test_mean_of_ratios(self):
        report = measure_rtf([(StageTimes(0.2, 0.3, 0.5), 10.0), (StageTimes(1.5, 0.5, 1.0), 10.0)])
        assert report.mean_rtf == pytest.approx(0.2)

    def test_stage_breakdown(self):
        report = measure_rtf([(StageTimes(0.3, 0.5, 0.2), 10.0), (StageTimes(0.15, 0.25, 0.1), 5.0)])
        assert report.stage_rtf == {
            "logmel": pytest.approx(0.03),
            "gabor": pytest.approx(0.05),
            "mlp_forward": pytest.approx(0.02),
        }

    def test_empty_runs_raise(self):
        with pytest.raises(ValueError):
            measure_rtf([])

    def test_zero_audio_raises(self):
        with pytest.raises(ValueError):
            measure_rtf([(StageTimes(0.2, 0.3, 0.5), 0.0)])


class TestEvaluate:
    def test_perfect_estimator_gives_zero_medians(self):
        model = sure_model(winner=1)
        t60, drr = center_of(GRID, VOCAB.cells[1])
        result = evaluate(items_with_truth(t60, drr), model)
        stats = result.stats[("ambient", 10.0)]
        assert stats["t60"].median == pytest.approx(0.0, abs=1e-12)
        assert stats["drr"].median == pytest.approx(0.0, abs=1e-12)
        assert stats["t60"].q75 - stats["t60"].q25 == pytest.approx(0.0, abs=1e-12)

    def test_constant_bias_appears_in_median(self):
        model = sure_model(winner=1)
        t60, drr = center_of(GRID, VOCAB.cells[1])
        result = evaluate(items_with_truth(t60 - 0.1, drr), model)
        assert result.stats[("ambient", 10.0)]["t60"].median == pytest.approx(0.1, abs=1e-9)

    def test_grouping_is_order_invariant(self):
        model = sure_model(winner=0)
        t60, drr = center_of(GRID, VOCAB.cells[0])
        items = items_with_truth(t60, drr, n=3, kind="fan", snr=0.0) + items_with_truth(
            t60, drr, n=3, kind="babble", snr=20.0, seed=3
        )
        fwd = evaluate(items, model)
        rev = evaluate(items[::-1], model)
        for key in fwd.stats:
            assert fwd.stats[key]["t60"].median == rev.stats[key]["t60"].median
            assert fwd.stats[key]["drr"].n == rev.stats[key]["drr"].n

    def test_groups_are_ordered_by_snr_as_a_number(self):
        model = sure_model(winner=0)
        t60, drr = center_of(GRID, VOCAB.cells[0])
        items = [item for snr in (10.0, 5.0, 0.0) for item in items_with_truth(t60, drr, n=1, snr=snr)]
        items += items_with_truth(t60, drr, n=1, kind="none", snr=None)
        result = evaluate(items, model)
        assert list(result.stats) == [("ambient", 0.0), ("ambient", 5.0), ("ambient", 10.0), ("none", None)]

    def test_unreadable_item_is_excluded_not_fatal(self):
        model = sure_model(winner=0)
        t60, drr = center_of(GRID, VOCAB.cells[0])
        items = items_with_truth(t60, drr, n=2)
        items.append(CorpusItem("/nonexistent/missing.wav", None, 0, "ambient", 10.0, t60, drr, 0))
        result = evaluate(items, model)
        assert len(result.records) == 2
        assert len(result.excluded) == 1
        assert result.excluded[0][0] == 2

    def test_records_carry_timing(self):
        model = sure_model(winner=0)
        t60, drr = center_of(GRID, VOCAB.cells[0])
        result = evaluate(items_with_truth(t60, drr, n=2), model)
        for record in result.records:
            assert record.times.logmel_s > 0.0
            assert record.times.gabor_s > 0.0
            assert record.times.mlp_s > 0.0
            assert record.audio_s == pytest.approx(0.4)
        assert result.rtf.mean_rtf > 0.0
        assert set(result.rtf.stage_rtf) == {"logmel", "gabor", "mlp_forward"}

    def test_no_estimable_item_gives_no_rtf(self):
        model = sure_model(winner=0)
        t60, drr = center_of(GRID, VOCAB.cells[0])
        assert evaluate([], model).rtf is None
        items = [CorpusItem(None, AudioBuffer(np.full(6400, 0.1)), 0, "ambient", 10.0, t60, drr, 0)]
        result = evaluate(items, model)
        assert result.records == [] and result.rtf is None
        assert result.excluded == [(0, "silent input: every sample equals the first")]

    def test_parallel_jobs_match_serial(self):
        model = sure_model(winner=2)
        t60, drr = center_of(GRID, VOCAB.cells[2])
        items = items_with_truth(t60, drr, n=4)
        items.insert(1, CorpusItem("/nonexistent/missing.wav", None, 0, "ambient", 10.0, t60, drr, 2))
        items.insert(3, CorpusItem(None, AudioBuffer(np.zeros(6400)), 0, "ambient", 10.0, t60, drr, 2))
        serial = evaluate(items, model, jobs=1)
        parallel = evaluate(items, model, jobs=3)
        assert [r.e_t60 for r in serial.records] == [r.e_t60 for r in parallel.records]
        assert [r.item_id for r in serial.records] == [0, 2, 4, 5]
        assert serial.excluded == parallel.excluded
        assert [i for i, _ in serial.excluded] == [1, 3]
        assert "silent input" in serial.excluded[1][1]
