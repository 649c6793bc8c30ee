"""Tests for Fig 2, Table 2, Fig 4, Fig 10, and the headline stats."""

import pytest

from repro.experiments import fig2, fig4, fig10, headline, table2
from repro.experiments.config import CaseStudyConfig, SweepConfig
from repro.experiments.fig10 import binomial_weight
from repro.experiments.runner import run_sweep


class TestFig2:
    def test_run_shape(self):
        result = fig2.run(num_points=9)
        assert len(result.rbers) == 9
        assert set(result.series) == {1024, 512, 64, 32, 1}

    def test_bit_granularity_is_zero_everywhere(self):
        result = fig2.run(num_points=9)
        assert all(value == 0.0 for value in result.series[1])

    def test_paper_peak_claim(self):
        """>99% waste somewhere on the 1024-bit curve (paper: at 6.8e-3)."""
        result = fig2.run(num_points=60)
        _, peak = result.peak_waste(1024)
        assert peak > 0.99

    def test_render(self):
        assert "wasted storage" in fig2.render(fig2.run(num_points=9))


class TestTable2:
    def test_closed_form_columns(self):
        result = table2.run(num_words=4, seed=1)
        by_n = {row.pre_correction_at_risk: row for row in result.rows}
        assert by_n[8].worst_case_post_correction_at_risk == 255

    def test_empirical_bounded_by_worst_case(self):
        result = table2.run(num_words=6, seed=2)
        for row in result.rows:
            mean, largest = result.empirical[row.pre_correction_at_risk]
            assert largest <= row.worst_case_post_correction_at_risk
            assert mean <= largest

    def test_render(self):
        assert "Table 2" in table2.render(table2.run(num_words=3))


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4.run(fig4.Fig4Config(num_codes=3, words_per_code=6, error_counts=(2, 3, 5)))

    def test_probabilities_bounded(self, result):
        for samples in result.samples.values():
            assert all(0.0 <= value <= 1.0 for value in samples)

    def test_post_correction_harder_to_identify(self, result):
        """Paper Fig 4: the post-correction medians sit well below the 0.5
        pre-correction probability and shift lower as errors increase."""
        median_2 = result.summary(2)["median"]
        median_5 = result.summary(5)["median"]
        assert median_2 < 0.5
        assert median_5 <= median_2

    def test_render(self, result):
        assert "Fig 4" in fig4.render(result)


class TestBinomialWeight:
    def test_sums_to_one(self):
        total = sum(binomial_weight(71, c, 0.01) for c in range(72))
        assert abs(total - 1.0) < 1e-9

    def test_zero_rate(self):
        assert binomial_weight(71, 0, 0.0) == 1.0
        assert binomial_weight(71, 3, 0.0) == 0.0

    def test_bounds(self):
        with pytest.raises(ValueError):
            binomial_weight(71, 1, 1.5)


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        config = CaseStudyConfig(
            num_codes=2,
            words_per_stratum=3,
            num_rounds=64,
            probabilities=(0.5,),
            rbers=(1e-4, 1e-6),
            max_at_risk=4,
        )
        return fig10.run(config)

    def test_harp_after_reaches_zero(self, result):
        """HARP + SEC secondary: BER hits exactly zero within the run."""
        series = result.after[(0.5, 1e-4, "HARP-U")]
        assert series[-1] == 0.0

    def test_beep_after_stays_positive(self, result):
        """BEEP misses direct-risk bits, so escapes persist (paper §7.4)."""
        series = result.after[(0.5, 1e-4, "BEEP")]
        assert series[-1] > 0.0

    def test_ber_scales_with_rber(self, result):
        """Lower RBER -> fewer at-risk words -> proportionally lower BER."""
        high = result.before[(0.5, 1e-4, "Naive")][0]
        low = result.before[(0.5, 1e-6, "Naive")][0]
        assert low < high

    def test_before_curves_non_increasing(self, result):
        for series in result.before.values():
            assert list(series) == sorted(series, reverse=True)

    def test_harp_rounds_to_zero_not_slower_than_naive(self, result):
        harp = result.rounds_to_zero[(0.5, "HARP-U")]
        naive = result.rounds_to_zero[(0.5, "Naive")]
        assert harp is not None
        if naive is not None:
            assert harp <= naive

    def test_render(self, result):
        text = fig10.render(result)
        assert "before secondary ECC" in text
        assert "after secondary ECC" in text


class TestHeadline:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_sweep(
            SweepConfig(
                num_codes=3,
                words_per_code=5,
                num_rounds=64,
                error_counts=(2, 3),
                probabilities=(0.5,),
            )
        )

    def test_active_speedups_favor_harp(self, sweep):
        speedups = headline.active_speedups(sweep)
        for speedup in speedups:
            if speedup.fraction is not None:
                assert speedup.fraction <= 1.0

    def test_render_includes_paper_reference(self, sweep):
        text = headline.render(active=headline.active_speedups(sweep))
        # The last column of each error count's row is the paper's value.
        paper_column = {
            cells[0]: cells[-1]
            for cells in (line.split() for line in text.splitlines())
            if cells and cells[0].isdigit()
        }
        assert paper_column == {"2": "20.6%", "3": "36.4%"}
