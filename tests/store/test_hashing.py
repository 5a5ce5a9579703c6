"""Stable hashing: the cache-correctness foundation."""

from repro.analysis import AnalysisConfig
from repro.faults import CampaignConfig, FaultType
from repro.store import (
    golden_fingerprint,
    golden_key,
    plan_fingerprint,
    program_key,
    setup_inputs,
)


class TestProgramKey:
    def test_deterministic(self):
        a = program_key("func slave() {}", "p")
        b = program_key("func slave() {}", "p")
        assert a == b and len(a) == 64

    def test_source_changes_key(self):
        assert (program_key("func slave() {}", "p")
                != program_key("func slave() { local int x; }", "p"))

    def test_name_entry_and_options_change_key(self):
        base = program_key("s", "p")
        assert program_key("s", "q") != base
        assert program_key("s", "p", entry="worker") != base
        assert program_key(
            "s", "p",
            analysis_config=AnalysisConfig(check_stores=True)) != base

    def test_default_config_distinct_from_explicit(self):
        # None means "package defaults", which may drift across versions;
        # an explicit config pins the fields, so the keys must differ.
        assert (program_key("s", "p")
                != program_key("s", "p", analysis_config=AnalysisConfig()))

    def test_opt_level_participates_only_when_non_default(self):
        base = program_key("s", "p")
        # An explicit default level aliases the plain key.
        assert program_key("s", "p", opt_level=0) == base
        assert program_key("s", "p", opt_level=2) != base
        assert (program_key("s", "p", opt_level=2)
                != program_key("s", "p", opt_level=1))


class TestPlanFingerprint:
    def make(self, **overrides):
        config = CampaignConfig(**overrides)
        return plan_fingerprint("k" * 64, FaultType.BRANCH_FLIP, config)

    def test_stable_and_carries_plan_dict(self):
        digest, plan = self.make(seed=5)
        digest2, _ = self.make(seed=5)
        assert digest == digest2
        assert plan["seed"] == 5
        assert plan["fault_type"] == "branch-flip"

    def test_every_knob_participates(self):
        base, _ = self.make()
        assert self.make(seed=1)[0] != base
        assert self.make(injections=7)[0] != base
        assert self.make(nthreads=8)[0] != base
        assert self.make(output_globals=("x",))[0] != base
        assert self.make(quantize_bits=3)[0] != base
        assert self.make(hang_factor=5)[0] != base
        assert self.make(quantum=64)[0] != base

    def test_telemetry_flag_participates(self):
        config = CampaignConfig()
        with_tel = plan_fingerprint("k" * 64, FaultType.BRANCH_FLIP,
                                    config, telemetry=True)[0]
        without = plan_fingerprint("k" * 64, FaultType.BRANCH_FLIP,
                                   config, telemetry=False)[0]
        assert with_tel != without

    def test_fault_type_participates(self):
        config = CampaignConfig()
        assert (plan_fingerprint("k" * 64, FaultType.BRANCH_FLIP, config)[0]
                != plan_fingerprint("k" * 64, FaultType.BRANCH_CONDITION,
                                    config)[0])


class TestGoldenHashes:
    def test_golden_key_inputs(self):
        base = golden_key("p" * 64, 4, 0, 32, ("r",))
        assert golden_key("p" * 64, 8, 0, 32, ("r",)) != base
        assert golden_key("p" * 64, 4, 1, 32, ("r",)) != base
        assert golden_key("p" * 64, 4, 0, 16, ("r",)) != base
        assert golden_key("p" * 64, 4, 0, 32, ("r", "s")) != base
        assert golden_key("p" * 64, 4, 0, 32, ("r",),
                          {"fields": {"input_seed": 7}}) != base

    def test_setup_inputs_canonical_forms(self):
        from repro.faults.spec import SpecSetup
        from repro.splash2.common import KernelSetup
        assert setup_inputs(None) == {}
        assert setup_inputs(lambda memory: None) is None
        spec_setup = SpecSetup(kernel="radix", nthreads=4, input_seed=7)
        assert (setup_inputs(spec_setup)
                == setup_inputs(SpecSetup(kernel="radix", nthreads=4,
                                          input_seed=7)))
        assert (setup_inputs(spec_setup)
                != setup_inputs(SpecSetup(kernel="radix", nthreads=4,
                                          input_seed=8)))
        assert (setup_inputs(KernelSetup("radix", 4, 7))
                != setup_inputs(spec_setup))

    def test_golden_fingerprint_over_outputs(self):
        sig = ("ok", ((0, (1, 2)),))
        base = golden_fingerprint(sig, {1: 10, 2: 12}, 500)
        assert golden_fingerprint(sig, {1: 10, 2: 12}, 500) == base
        assert golden_fingerprint(sig, {1: 10, 2: 13}, 500) != base
        assert golden_fingerprint(sig, {1: 10, 2: 12}, 501) != base
        assert golden_fingerprint(("ok",), {1: 10, 2: 12}, 500) != base

    def test_branch_count_order_irrelevant(self):
        sig = ("ok",)
        assert (golden_fingerprint(sig, {1: 10, 2: 12}, 5)
                == golden_fingerprint(sig, {2: 12, 1: 10}, 5))
