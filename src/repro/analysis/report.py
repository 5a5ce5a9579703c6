"""Program/branch census reports — the data behind Tables IV and V.

Table IV reports, per benchmark: total lines of code, lines in the
parallel section, total branch count, and branches in the parallel
section.  Table V breaks the parallel-section branches down by similarity
category.  Both are derived here from the MiniC source (line census) and
the analysis result (branch census).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.categories import Category
from repro.analysis.similarity import SimilarityResult
from repro.frontend.parser import parse
from repro.ir import Branch, CallGraph, Module


@dataclass
class ProgramCharacteristics:
    """One row of the paper's Table IV."""

    name: str
    total_loc: int
    parallel_loc: int
    total_branches: int
    parallel_branches: int

    def as_row(self) -> List:
        return [self.name, self.total_loc, self.parallel_loc,
                self.total_branches, self.parallel_branches]


@dataclass
class CategoryStatistics:
    """One row of the paper's Table V."""

    name: str
    total: int
    counts: Dict[Category, int] = field(default_factory=dict)

    def count(self, category: Category) -> int:
        return self.counts.get(category, 0)

    def percent(self, category: Category) -> float:
        if self.total == 0:
            return 0.0
        return 100.0 * self.count(category) / self.total

    @property
    def similar_fraction(self) -> float:
        """Fraction of parallel-section branches in a checkable category
        (the paper's 49%-98% headline)."""
        if self.total == 0:
            return 0.0
        similar = sum(self.count(c) for c in
                      (Category.SHARED, Category.THREADID, Category.PARTIAL))
        return similar / self.total

    def as_row(self) -> List:
        row: List = [self.name, self.total]
        for category in (Category.SHARED, Category.THREADID,
                         Category.PARTIAL, Category.NONE):
            row.append("%d (%.0f%%)" % (self.count(category),
                                        self.percent(category)))
        return row


def count_branches(module: Module, function_names=None) -> int:
    total = 0
    for function in module.function_table:
        if function_names is not None and function.name not in function_names:
            continue
        for block in function.blocks:
            if isinstance(block.terminator, Branch):
                total += 1
    return total


def source_loc(source: str) -> int:
    """Non-blank, non-comment-only source lines."""
    count = 0
    in_block_comment = False
    for line in source.splitlines():
        stripped = line.strip()
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
                stripped = stripped.split("*/", 1)[1].strip()
            else:
                continue
        if stripped.startswith("/*") and "*/" not in stripped:
            in_block_comment = True
            continue
        if not stripped or stripped.startswith("//"):
            continue
        count += 1
    return count


def parallel_section_loc(source: str, module: Module, entry: str) -> int:
    """Source lines inside functions reachable from the worker entry."""
    names = CallGraph(module, entry).parallel
    program = parse(source)
    lines = source.splitlines()
    total = 0
    for fdecl in program.functions:
        if fdecl.name not in names:
            continue
        span = lines[fdecl.line - 1:fdecl.end_line]
        total += source_loc("\n".join(span))
    return total


def program_characteristics(name: str, source: str, module: Module,
                            entry: str = "slave") -> ProgramCharacteristics:
    """Compute one Table IV row from source + compiled module."""
    names = CallGraph(module, entry).parallel
    return ProgramCharacteristics(
        name=name,
        total_loc=source_loc(source),
        parallel_loc=parallel_section_loc(source, module, entry),
        total_branches=count_branches(module),
        parallel_branches=count_branches(module, names))


def category_statistics(name: str, result: SimilarityResult) -> CategoryStatistics:
    """Compute one Table V row from an analysis result.

    Counts report the *pre-promotion* categories, as the paper's Table V
    does — optimization 1 changes what gets checked, not the census.
    """
    counts: Dict[Category, int] = {}
    total = 0
    for record in result.all_branches():
        total += 1
        category = record.category
        if category is Category.NA:
            category = Category.NONE
        counts[category] = counts.get(category, 0) + 1
    return CategoryStatistics(name=name, total=total, counts=counts)


def format_table(headers: List[str], rows: List[List],
                 title: Optional[str] = None) -> str:
    """Plain-text table renderer used by every experiment harness."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
