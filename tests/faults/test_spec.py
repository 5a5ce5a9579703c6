"""CampaignSpec: the one serializable description of a campaign.

The contract under test: a spec survives the wire (spec → canonical
JSON → spec) with byte-identical serialization and plan hash; the plan
hash of a fixed spec never moves (journals and serve state written by
earlier builds still resume); and a spec is the only way into a
campaign — the pre-spec call shapes fail at once, in one line.
"""

import json

import pytest

import repro
from repro.errors import SpecError
from repro.faults import CampaignConfig, CampaignSpec, FaultType, run_campaign
from tests.conftest import FIGURE_1, figure1_setup


def figure1_spec(**overrides):
    base = dict(fault="flip", injections=8, nthreads=4, seed=9,
                output_globals=("result",),
                scalars=(("nprocs", 4),),
                arrays=(("gp", tuple([5, 40, 10, 40] * 16)),))
    base.update(overrides)
    return CampaignSpec.build(FIGURE_1, name="figure1", **base)


class TestRoundTrip:
    def test_json_round_trip_is_byte_identical(self):
        spec = figure1_spec()
        text = spec.to_json()
        again = CampaignSpec.from_json(text)
        assert again == spec
        assert again.to_json() == text

    def test_round_trip_preserves_plan_hash(self):
        spec = figure1_spec()
        wire = json.loads(spec.to_json())
        again = CampaignSpec.from_dict(wire)
        assert again.plan_hash == spec.plan_hash
        assert again.plan_fingerprint() == spec.plan_fingerprint()

    def test_kernel_spec_round_trips(self):
        spec = CampaignSpec.for_kernel("radix", fault="condition",
                                       injections=5, nthreads=2)
        again = CampaignSpec.from_json(spec.to_json())
        assert again == spec
        assert again.is_kernel and again.kernel_name == "radix"

    def test_plan_hash_tracks_the_plan(self):
        spec = figure1_spec()
        assert spec.replace(seed=10).plan_hash != spec.plan_hash
        assert spec.replace(injections=9).plan_hash != spec.plan_hash
        # Journal/store/resume are run-site knobs, not plan inputs.
        assert spec.replace(journal="x.jsonl").plan_hash == spec.plan_hash
        assert spec.replace(resume=True).plan_hash == spec.plan_hash
        assert spec.replace(store="/tmp/s").plan_hash == spec.plan_hash
        # Inputs and the plan kind name other plans.
        radix = CampaignSpec.build("kernel:radix", injections=30, seed=7)
        others = [radix.replace(scalars=(("nprocs", 4),)),
                  radix.replace(plan="stratified"),
                  radix.replace(input_seed=7),
                  spec.replace(arrays=(("gp", (40, 5, 10, 40)),))]
        hashes = {radix.plan_hash, spec.plan_hash}
        hashes.update(other.plan_hash for other in others)
        assert len(hashes) == 2 + len(others)
        # Default inputs and plan leave the hash as it always was.
        assert radix.replace(plan="full", input_seed=2012,
                             scalars=()).plan_hash == radix.plan_hash

    def test_plan_hash_is_computed_once_per_spec(self, monkeypatch):
        import repro.store.hashing as hashing
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        original = hashing.plan_fingerprint
        monkeypatch.setattr(hashing, "plan_fingerprint", counting)
        spec = figure1_spec()
        first = spec.plan_hash
        assert spec.plan_hash == spec.plan_fingerprint()[0] == first
        assert len(calls) == 1
        # The cached pair joins neither equality nor the wire form ...
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again == spec and "_fingerprint" not in spec.to_dict()
        # ... and a replaced spec hashes afresh.
        assert spec.replace(seed=10).plan_hash != first
        assert spec.replace(journal="x.jsonl").plan_hash == first
        assert len(calls) == 3

    def test_plan_hash_is_pinned(self):
        # The values every earlier build computed for this spec: a change
        # here orphans every journal and serve job already on disk.  The
        # opt level is part of the plan, so each level has its own pin;
        # stating it keeps $REPRO_OPT_LEVEL from choosing one.
        pinned = {
            0: ("b93402049303ef43116e7bf63b8ab9c8"
                "46e69b8234e068f0704954eed0bd9709"),
            2: ("bb03cf6546d0307775aa5ce38152fcd8"
                "aba7228834e6bcd0d166e23c311539a1"),
        }
        for opt_level, plan_hash in pinned.items():
            spec = CampaignSpec.for_kernel("radix", fault="flip",
                                           injections=30, nthreads=4,
                                           seed=7, opt_level=opt_level)
            assert spec.plan_hash == plan_hash, opt_level


class TestValidation:
    def test_unknown_field_rejected(self):
        wire = json.loads(figure1_spec().to_json())
        wire["bogus"] = 1
        with pytest.raises(SpecError):
            CampaignSpec.from_dict(wire)

    def test_unknown_schema_rejected(self):
        wire = json.loads(figure1_spec().to_json())
        wire["schema"] = 999
        with pytest.raises(SpecError):
            CampaignSpec.from_dict(wire)

    def test_stored_backend_may_only_name_the_engine(self):
        wire = json.loads(figure1_spec().to_json())
        assert CampaignSpec.from_dict(dict(wire, backend="closure")) \
            == CampaignSpec.from_dict(wire)
        with pytest.raises(SpecError) as excinfo:
            CampaignSpec.from_dict(dict(wire, backend="interpreter"))
        assert "interpreter" in str(excinfo.value)
        assert "\n" not in str(excinfo.value)

    def test_fault_aliases_normalize(self):
        flip = CampaignSpec.build(FIGURE_1, fault="branch_flip")
        assert flip.fault_type is FaultType.BRANCH_FLIP
        cond = CampaignSpec.build(FIGURE_1, fault="condition")
        assert cond.fault_type is FaultType.BRANCH_CONDITION
        assert flip.fault != cond.fault

    def test_bad_values_rejected(self):
        with pytest.raises(SpecError):
            CampaignSpec.build(FIGURE_1, fault="gamma-ray")
        with pytest.raises(SpecError):
            figure1_spec(injections=0)
        with pytest.raises(SpecError):
            figure1_spec(plan="clever")
        with pytest.raises(SpecError):
            CampaignSpec.for_kernel("no-such-kernel", fault="flip")
        for bad in (dict(quantum=0), dict(quantum=-3), dict(hang_factor=0),
                    dict(quantize_bits=-1)):
            with pytest.raises(SpecError):
                figure1_spec(**bad)
        wire = json.loads(figure1_spec().to_json())
        for bad in (dict(seed="abc"), dict(quantum=0)):
            with pytest.raises(SpecError):
                CampaignSpec.from_dict(dict(wire, **bad))


class TestExecutionIdentity:
    """A campaign runs from a spec and nothing else."""

    def test_legacy_triple_rejected(self):
        program = repro.runtime.ParallelProgram(FIGURE_1, "figure1")
        with pytest.raises(TypeError, match="CampaignSpec"):
            run_campaign(program, FaultType.BRANCH_FLIP, CampaignConfig())

    def test_spec_plus_kwargs_rejected(self):
        with pytest.raises(TypeError):
            run_campaign(figure1_spec(), FaultType.BRANCH_FLIP)


class TestBlockWatchSpec:
    @pytest.fixture(scope="class")
    def bw(self):
        return repro.BlockWatch(FIGURE_1, name="figure1")

    def test_spec_builder_inherits_program(self, bw):
        spec = bw.spec(fault="flip", injections=4,
                       output_globals=("result",))
        assert spec.name == "figure1"
        assert spec.fault_type is FaultType.BRANCH_FLIP

    def test_inject_spec_form(self, bw):
        spec = bw.spec(fault="flip", injections=4, seed=9,
                       output_globals=("result",))
        result = bw.inject(spec=spec, setup=figure1_setup(4))
        assert result.stats.injections == 4

    def test_inject_rejects_foreign_spec(self, bw):
        other = CampaignSpec.for_kernel("radix", fault="flip",
                                        injections=4)
        with pytest.raises(SpecError):
            bw.inject(spec=other)

    def test_inject_rejects_spec_plus_fault_type(self, bw):
        spec = bw.spec(fault="flip", injections=4)
        with pytest.raises(TypeError):
            bw.inject(FaultType.BRANCH_FLIP, spec=spec)
