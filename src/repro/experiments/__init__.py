"""Experiment harnesses: one module per table/figure of the paper.

========  ==================================================================
table3    fixpoint trace on the Figure 2 example (paper Table III)
table4    benchmark characteristics (paper Table IV)
table5    similarity category census (paper Table V)
fig6      normalized execution time, 4 and 32 threads (paper Figure 6)
fig7      geomean overhead vs thread count (paper Figure 7)
fig8      SDC coverage under branch-flip faults (paper Figure 8)
fig9      SDC coverage under branch-condition faults (paper Figure 9)
false_positives   the 100-error-free-runs experiment (paper Section IV)
duplication       comparison with software duplication (paper Section VI)
vuln_validation   static vulnerability predictions vs measured outcomes
========  ==================================================================

Each module exposes ``compute()`` returning structured results and
``render()`` returning the printable table; the ``repro figures`` command
(:mod:`repro.experiments.runner`) drives them.
"""

from repro.experiments import (  # noqa: F401
    coverage,
    duplication,
    false_positives,
    fig6,
    fig7,
    fig8,
    fig9,
    table3,
    table4,
    table5,
    vuln_validation,
)

__all__ = ["coverage", "duplication", "false_positives", "fig6", "fig7",
           "fig8", "fig9", "table3", "table4", "table5", "vuln_validation"]
