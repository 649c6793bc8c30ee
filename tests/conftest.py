"""Shared test fixtures: force a GF(2) kernel tier from the test side.

:mod:`repro.ecc.gf2` dispatches on operand size alone, so a tier is
forced by moving its two thresholds: ``0`` sends every elimination and
product to the packed tier, ``sys.maxsize`` keeps them all on the
unpacked reference tier.  Both tiers are bit-identical by contract; the
tests that compare them take the :func:`gf2_tier` fixture.

Running the suite with ``REPRO_GF2_TIER=packed`` (or ``unpacked``)
applies the same override to the whole session — the second leg of the
CI matrix.  The variable is read here only; the package has no such knob.
"""

import os
import sys

import pytest

from repro.ecc import gf2

_THRESHOLDS = {"packed": 0, "unpacked": sys.maxsize}


def _force_tier(patcher: pytest.MonkeyPatch, tier: str) -> None:
    threshold = _THRESHOLDS[tier]
    patcher.setattr(gf2, "_AUTO_PACKED_SIZE", threshold)
    patcher.setattr(gf2, "_AUTO_PACKED_WORK", threshold)


@pytest.fixture(autouse=True, scope="session")
def _session_gf2_tier():
    tier = os.environ.get("REPRO_GF2_TIER", "auto")
    if tier == "auto":
        yield
        return
    if tier not in _THRESHOLDS:
        raise pytest.UsageError(
            f"REPRO_GF2_TIER must be one of auto, packed, unpacked; got {tier!r}"
        )
    with pytest.MonkeyPatch.context() as patcher:
        _force_tier(patcher, tier)
        yield


@pytest.fixture
def gf2_tier(monkeypatch):
    """Call with ``"packed"`` or ``"unpacked"`` to force that tier.

    May be called repeatedly within one test; the thresholds are restored
    when the test ends.
    """
    return lambda tier: _force_tier(monkeypatch, tier)
