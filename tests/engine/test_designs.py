"""Tests for the design registry."""

from __future__ import annotations

import pytest

from repro.engine.config import ControlPolicy
from repro.engine.designs import (
    BASELINE_DESIGN,
    DESIGNS,
    FIG5_DESIGNS,
    FIG6_DESIGNS,
    get_design,
)
from repro.errors import ConfigError


def test_eight_designs_total():
    # "We evaluate the baseline design ... and seven RASA-based designs."
    assert len(DESIGNS) == 8
    assert len(FIG5_DESIGNS) == 7
    assert "baseline" not in FIG5_DESIGNS


def test_baseline_is_serial():
    assert BASELINE_DESIGN.config.control is ControlPolicy.BASE
    assert BASELINE_DESIGN.is_baseline


def test_paper_named_designs_present():
    for key in ("rasa-pipe", "rasa-wlbp", "rasa-db-wls", "rasa-dm-wlbp",
                "rasa-dmdb-wls", "rasa-dm-pipe"):
        assert key in DESIGNS


def test_fig6_designs():
    # Fig. 6 compares each data optimization under its best control scheme.
    assert FIG6_DESIGNS == ["rasa-db-wls", "rasa-dm-wlbp", "rasa-dmdb-wls"]


def test_names_encode_optimizations():
    for key, design in DESIGNS.items():
        if "wls" in key:
            assert design.config.control is ControlPolicy.WLS
        if "dm" in key:
            assert design.config.pe.is_double_multiplier
        if "db" in key or "wls" in key:
            assert design.config.pe.is_double_buffered


def test_equal_multiplier_budget():
    counts = {d.config.num_multipliers for d in DESIGNS.values()}
    assert counts == {512}


def test_get_design_error_lists_known():
    with pytest.raises(ConfigError, match="baseline"):
        get_design("rasa-quantum")


@pytest.mark.parametrize("key", [["baseline"], {"baseline": 1}, None, 7])
def test_get_design_refuses_any_unregistered_key(key):
    """An unhashable key raised a bare ``TypeError``, not the documented error."""
    with pytest.raises(ConfigError, match="known designs: baseline"):
        get_design(key)
