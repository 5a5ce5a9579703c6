"""Fuzzed-MiniC corpus through the lint layer.

The generator in :mod:`tests.integration.test_fuzzed_programs` emits
arbitrary (but race-free by construction) SPMD programs: every shared
write lands in ``out[procid * 16 + k]`` chunks or under the tid-counter
lock.  Pushing the corpus through ``repro lint`` checks three promises
at once: the detector never crashes on generator output, it proves the
chunked writes disjoint (zero errors), and its reports are identical
across repeated runs.
"""

import pytest

from repro.frontend import compile_source
from repro.lint import lint_module
from tests.integration.test_fuzzed_programs import ProgramGenerator

pytestmark = pytest.mark.slow

SEEDS = range(60)


class TestFuzzedCorpus:
    def test_corpus_lints_clean_and_stable(self):
        for seed in SEEDS:
            source = ProgramGenerator(seed).generate()
            module = compile_source(source, "fuzz%d" % seed)
            report = lint_module(module, name="fuzz%d" % seed)
            assert report.errors == [], (
                "seed %d: %s" % (seed, [d.render() for d in report.errors]))
            # second run over a fresh compile: byte-identical report
            again = lint_module(compile_source(source, "fuzz%d" % seed),
                                name="fuzz%d" % seed)
            assert report.to_json() == again.to_json()

    def test_seeded_race_is_still_caught(self):
        # strip the lock from a generated program: the corpus being
        # clean must come from the detector's reasoning, not blindness
        source = next(ProgramGenerator(seed).generate() for seed in SEEDS
                      if "lock(l);" in ProgramGenerator(seed).generate())
        racy = source.replace("unlock(l);", "").replace("lock(l);", "")
        assert racy != source
        module = compile_source(racy, "fuzz-unlocked", verify=False)
        report = lint_module(module, name="fuzz-unlocked")
        assert any(d.code == "scalar-race" for d in report.errors)
