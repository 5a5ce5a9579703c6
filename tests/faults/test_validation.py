"""The predictor's validation harness: the budget it accepts and the
fault-free runs it makes."""

import pytest

from repro import BlockWatch
from repro.faults import CampaignSpec, validate_predictions
from repro.runtime import ParallelProgram
from repro.store.artifacts import ArtifactStore
from tests.conftest import FIGURE_1, figure1_setup


@pytest.fixture(scope="module")
def program():
    return ParallelProgram(FIGURE_1, "fig1")


@pytest.fixture(scope="module")
def spec(program):
    return BlockWatch.from_program(program).spec(
        fault="flip", nthreads=4, injections=8, seed=5,
        output_globals=("result",))


def validate(program, spec, **kwargs):
    return validate_predictions(spec, program=program,
                                setup=figure1_setup(4), jobs=1, **kwargs)


@pytest.mark.parametrize("fraction", [0, -0.25, 1.5, 2, float("nan")])
def test_budget_fraction_outside_unit_interval_is_refused(
        program, spec, fraction):
    with pytest.raises(ValueError, match="budget_fraction"):
        validate(program, spec, budget_fraction=fraction)


def test_whole_budget_is_accepted(program, spec):
    result = validate(program, spec, budget_fraction=1)
    assert result["stratified"]["budget"] == spec.injections


@pytest.mark.parametrize("cached", [False, True])
def test_only_golden_runs_are_fault_free(cached, tmp_path,
                                         fault_free_runs):
    # One golden run per campaign, one in all on a store; nothing else
    # observes the schedule.
    store = ArtifactStore(str(tmp_path / "store")) if cached else None
    spec = CampaignSpec.for_kernel("radix", injections=8, seed=5)
    validate_predictions(spec, store=store, jobs=1)
    assert len(fault_free_runs) == (1 if cached else 2)
