"""Replay every corpus reproducer through the full differential oracle.

``tests/corpus/`` holds minimal reproducers shrunk from past findings
(each produced by deliberately injecting an engine bug and letting the
shrinker reduce the disagreement).  On the honest engines every entry
must be clean: all four engines agree and every definite verdict
certifies.  A regression in any engine shows up here first, on the
exact minimal circuit that distinguished a past lie.
"""

import os

import pytest

from repro.fuzz import Verdict, load_corpus, run_oracle

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = load_corpus(CORPUS_DIR)


def test_corpus_is_not_empty():
    assert CORPUS, f"no .net reproducers under {CORPUS_DIR}"


@pytest.mark.parametrize(
    "path,instance",
    CORPUS,
    ids=[os.path.basename(path) for path, _ in CORPUS],
)
class TestCorpusReplay:
    def test_instance_is_valid(self, path, instance):
        instance.circuit.validate()
        instance.prop.validate_against(instance.circuit)

    def test_engines_agree_and_certify(self, path, instance):
        report = run_oracle(instance.circuit, instance.prop)
        assert report.ok, f"{os.path.basename(path)}: {report.summary()}"
        assert report.consensus in (Verdict.VERIFIED, Verdict.FALSIFIED)


def test_corpus_covers_both_polarities():
    """The corpus must pin down VERIFIED and FALSIFIED reproducers, so
    both the proof path and the trace path stay under regression watch."""
    consensus = {
        run_oracle(inst.circuit, inst.prop).consensus
        for _, inst in CORPUS
    }
    assert Verdict.VERIFIED in consensus
    assert Verdict.FALSIFIED in consensus
