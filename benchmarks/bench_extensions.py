"""Bench: ablation and extension experiments (the ``ext_*`` exhibits in docs/architecture.md).

* Data-pattern ablation — static patterns cap Naive's coverage; HARP is
  pattern-insensitive (paper §7.2.1).
* DEC BCH extension — the indirect-error bound equals the on-die
  correction capability, so the secondary ECC must match it (§6.3.2).
* Code-length extension — observations transfer to (136, 128) (§7.1.2).
"""

from conftest import save_exhibit

from repro.experiments import (
    ext_code_length,
    ext_dec,
    ext_interleaving,
    ext_patterns,
    ext_scrubbing,
)


def test_pattern_ablation(benchmark, results_dir):
    result = benchmark.pedantic(ext_patterns.run, rounds=1, iterations=1)
    for error_count in result.config.error_counts:
        for probability in result.config.probabilities:
            for pattern in result.patterns:
                assert result.final_coverage[(pattern, "HARP-U", error_count, probability)] == 1.0
            checkered = result.final_coverage[("checkered", "Naive", error_count, probability)]
            random_cov = result.final_coverage[("random", "Naive", error_count, probability)]
            assert checkered <= random_cov + 1e-9
    save_exhibit(results_dir, "ext_pattern_ablation", ext_patterns.render(result))


def test_dec_extension(benchmark, results_dir):
    result = benchmark.pedantic(ext_dec.run, rounds=1, iterations=1)
    for label, (capability, worst, sec_ok, dec_ok) in result.rows.items():
        assert worst <= capability
        assert dec_ok == result.num_words
    save_exhibit(results_dir, "ext_dec_bch", ext_dec.render(result))


def test_code_length_extension(benchmark, results_dir):
    result = benchmark.pedantic(ext_code_length.run, rounds=1, iterations=1)
    for label, _ in ext_code_length.PAPER_GEOMETRIES:
        coverage, _ = result.rows[(label, "HARP-U")]
        assert coverage == 1.0
    save_exhibit(results_dir, "ext_code_length", ext_code_length.render(result))


def test_interleaving_extension(benchmark, results_dir):
    result = benchmark.pedantic(ext_interleaving.run, rounds=1, iterations=1)
    for label, (after_harp, unprofiled) in result.rows.items():
        bound = 2 if "interleaved" in label else 1
        assert after_harp <= bound, label
        assert after_harp <= unprofiled
    save_exhibit(results_dir, "ext_interleaving", ext_interleaving.render(result))


def test_scrubbing_extension(benchmark, results_dir):
    result = benchmark.pedantic(ext_scrubbing.run, rounds=1, iterations=1)
    # After the HARP active phase the SEC secondary never escapes, and
    # identification completeness degrades monotonically with probability.
    fractions = []
    for probability in sorted(result.rows, reverse=True):
        fraction, _, escaped = result.rows[probability]
        assert escaped == 0
        fractions.append(fraction)
    assert fractions[0] >= fractions[-1]
    save_exhibit(results_dir, "ext_scrubbing_latency", ext_scrubbing.render(result))
