"""Regenerates the paper's false-positive experiment (Section IV): many
error-free runs per program, expecting zero monitor reports.

Stronger than the paper's setup: every run uses a different seed, i.e. a
different legal thread interleaving.  Scale with REPRO_FP_RUNS
(default 100, as in the paper).
"""

from repro.experiments import false_positives


def test_false_positives(benchmark, save_result, sizes):
    result = benchmark.pedantic(false_positives.compute,
                                kwargs=sizes["false_positives"],
                                rounds=1, iterations=1)
    assert result.total == 0, result.false_positives
    save_result("false_positives", false_positives.render(result))
