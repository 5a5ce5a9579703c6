"""A program is lowered and analyzed once, and that changes nothing.

:class:`ParallelProgram` compiles its source once, copies the module for
the baseline image, and shares one similarity analysis between the race
lint and the instrumentation.  Both images must print exactly as when
each was compiled on its own, with the analysis and lint run over a
separate baseline compile — on every kernel, at ``-O0`` and ``-O2``,
and on generated programs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import AnalysisConfig, analyze_module
from repro.frontend import compile_source
from repro.instrument import instrument_module
from repro.ir import print_module
from repro.lint import lint_module
from repro.opt import optimize_module
from repro.runtime import ParallelProgram
from repro.splash2 import KERNELS
from tests.integration.test_fuzzed_programs import ProgramGenerator


def separately_compiled(source: str, name: str, opt_level: int):
    """``(baseline, protected)`` built with one compile per image."""
    baseline = compile_source(source, name)
    protected = compile_source(source, name + ".bw")
    config = AnalysisConfig()
    report = lint_module(baseline, analysis=analyze_module(baseline, config),
                         name=name)
    if report.racy_locations:
        config = dataclasses.replace(
            config, racy_locations=tuple(sorted(report.racy_locations)))
    instrument_module(protected, analyze_module(protected, config))
    if opt_level:
        optimize_module(baseline, opt_level)
        optimize_module(protected, opt_level)
    return baseline, protected


def assert_same_images(source: str, name: str, opt_level: int) -> None:
    program = ParallelProgram(source, name, opt_level=opt_level)
    baseline, protected = separately_compiled(source, name, opt_level)
    assert program.baseline.name == name
    assert program.protected.name == name + ".bw"
    assert print_module(program.baseline) == print_module(baseline)
    assert print_module(program.protected) == print_module(protected)


@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_images_match_separate_compiles(name, opt_level):
    assert_same_images(KERNELS[name].source, name, opt_level)


@pytest.mark.parametrize("opt_level", [0, 2])
@pytest.mark.parametrize("seed", range(12))
def test_generated_program_images_match_separate_compiles(seed, opt_level):
    assert_same_images(ProgramGenerator(seed).generate(), "fuzz%d" % seed,
                       opt_level)


def test_baseline_is_an_independent_copy():
    program = ParallelProgram(KERNELS["radix"].source, "radix")
    assert program.baseline.bw_metadata is None
    baseline = {id(inst) for function in program.baseline.function_table
                for inst in function.instructions()}
    protected = {id(inst) for function in program.protected.function_table
                 for inst in function.instructions()}
    assert not baseline & protected
