"""Regenerates paper Figure 9: SDC coverage under branch-condition faults.

Shape assertions: original coverage is higher than under branch-flip
faults (a condition-bit flip need not flip the branch), BLOCKWATCH still
adds coverage, raytrace stays flat.
"""

from repro.experiments import fig8, fig9


def test_fig9(benchmark, save_result, sizes):
    result = benchmark.pedantic(fig9.compute, kwargs=sizes["coverage"],
                                rounds=1, iterations=1)
    nthreads = result.thread_counts[0]
    for (name, n), stats in result.stats.items():
        assert stats.coverage_protected >= stats.coverage_original - 1e-9, name
    avg_orig = result.average("coverage_original", nthreads)
    avg_prot = result.average("coverage_protected", nthreads)
    assert avg_prot >= avg_orig
    assert avg_prot > 0.80                      # paper: ~97%
    save_result("fig9", fig9.render(result))


def test_fig9_original_higher_than_fig8(benchmark, save_result):
    """Paper Section V-C2: condition faults mask more often than forced
    flips, so the *original* coverage is higher (90% vs 83%)."""
    flip = fig8.compute(thread_counts=(4,), injections=40, seed=77)
    cond = fig9.compute(thread_counts=(4,), injections=40, seed=77)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    flip_avg = flip.average("coverage_original", 4)
    cond_avg = cond.average("coverage_original", 4)
    assert cond_avg > flip_avg, (flip_avg, cond_avg)
    save_result("fig9_vs_fig8_original",
                "original coverage: flip=%.1f%% < condition=%.1f%% "
                "(paper: 83%% < 90%%)" % (100 * flip_avg, 100 * cond_avg))
