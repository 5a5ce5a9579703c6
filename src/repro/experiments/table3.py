"""Table III — the category-propagation algorithm traced on the paper's
Figure 2 example.

We compile the Figure 2 program (``slave`` calling ``foo(1)`` and, under
a shared condition, ``foo(2)``; ``foo`` contains a loop whose body tests
``i < arg``) and run the similarity fixpoint in trace mode, printing the
category of every tracked variable/branch after each iteration — the
exact shape of the paper's Table III.  The expected final column: all of
``test``, ``arg``, ``i``, branch 1 and branch 2 are **shared**.

Our trace converges faster than the paper's three iterations because phi
folding is optimistic in block order; the table shows the per-iteration
states actually observed, plus the paper's expected final categories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis import AnalysisConfig, analyze_module, format_table
from repro.frontend import compile_source

FIGURE_2_SOURCE = """
// Paper Figure 2: multiple runtime instances of the same branch
global int test;

func slave() {
  foo(1);
  if (test > 0) {
    foo(2);
  }
}

func foo(int arg) {
  local int i;
  // Branch "2" is the loop; branch "1" is the inner if.
  for (i = 0; i < 5; i = i + 1) {
    if (i < arg) {
      output(i);
    }
  }
}
"""

#: What the paper's Table III converges to.
PAPER_FINAL = {
    "slave.test": "shared",
    "foo.arg": "shared",
    "foo.i": "shared",
    "foo.branch0": "shared",   # the loop header compare
    "foo.branch1": "shared",   # the inner if
}

TRACKED = ["slave.test", "foo.arg", "foo.i", "foo.branch0", "foo.branch1"]


@dataclass
class Table3Result:
    iterations: int
    trace: List[Dict[str, str]]
    final: Dict[str, str]

    @property
    def matches_paper(self) -> bool:
        return all(self.final.get(key) == expected
                   for key, expected in PAPER_FINAL.items())


def compute() -> Table3Result:
    module = compile_source(FIGURE_2_SOURCE, "figure2")
    result = analyze_module(module, AnalysisConfig(entry="slave"), trace=True)
    final = {key: result.trace[-1].get(key, "NA") for key in TRACKED}
    return Table3Result(iterations=result.iterations, trace=result.trace,
                        final=final)


def render(result: Table3Result) -> str:
    headers = ["variable/branch"] + [
        "iter %d" % (index + 1) for index in range(len(result.trace))
    ] + ["paper final"]
    rows = []
    for key in TRACKED:
        row = [key]
        for snapshot in result.trace:
            row.append(snapshot.get(key, "NA"))
        row.append(PAPER_FINAL[key])
        rows.append(row)
    status = "MATCH" if result.matches_paper else "MISMATCH"
    return format_table(
        headers, rows,
        title="Table III: category propagation on the Figure 2 example "
              "(converged in %d iterations; final categories %s the paper)"
              % (result.iterations, status))
