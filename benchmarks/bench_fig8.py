"""Regenerates paper Figure 8: SDC coverage under branch-flip faults.

Scale with REPRO_FAULTS / REPRO_THREADS (defaults: 60 injections at 4
and 32 threads; the paper used 1000 injections).

Shape assertions: BLOCKWATCH never hurts, improves the suite-average
substantially, and raytrace is the program it barely helps — the
paper's signature result.
"""

from repro.experiments import fig8


def test_fig8(benchmark, save_result, sizes):
    result = benchmark.pedantic(fig8.compute, kwargs=sizes["coverage"],
                                rounds=1, iterations=1)
    nthreads = result.thread_counts[0]
    for (name, n), stats in result.stats.items():
        assert stats.coverage_protected >= stats.coverage_original - 1e-9, name
    avg_orig = result.average("coverage_original", nthreads)
    avg_prot = result.average("coverage_protected", nthreads)
    assert avg_prot - avg_orig > 0.10          # paper: 83% -> 97%
    assert avg_prot > 0.80
    # raytrace gains the least (function pointers + nesting cutoff);
    # allow a little sampling noise at small REPRO_FAULTS
    gains = {name: result.stats[(name, nthreads)].detection_gain
             for (name, n) in result.stats if n == nthreads}
    assert gains["raytrace"] <= 0.15, gains
    assert gains["raytrace"] <= max(gain for name, gain in gains.items()
                                    if name != "raytrace"), gains
    save_result("fig8", fig8.render(result))
