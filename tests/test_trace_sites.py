"""The benchmark's tracer finds every lookup site it patches, and restores it."""

import importlib
import os

from shiftlab import cli, exactnum, measures, sfc, shift1d, shift2d

_CERTBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "certbench")


def _attributes():
    owners = (cli, exactnum, measures, sfc, shift1d, shift2d, shift1d.WeightSeq)
    return {(owner.__name__, name): value for owner in owners for name, value in vars(owner).items()}


def test_tracer_patches_existing_sites_and_unpatch_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(_CERTBENCH)
    spans = importlib.import_module("spans")
    before = _attributes()
    tracer = spans.Tracer()
    spans.install(tracer)  # an AttributeError here names a site the library dropped
    try:
        patched = {key for key, value in _attributes().items() if before.get(key) is not value}
    finally:
        tracer.unpatch()
    assert patched and patched <= before.keys()
    after = _attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
