"""Campaign runner: structure, persistence, regression diffing."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.campaign import (
    compare_campaigns,
    load_campaign,
    run_campaign,
    save_campaign,
)


@pytest.fixture(scope="module")
def campaign(env):
    return run_campaign(env, quick=True)


def test_campaign_structure(campaign):
    for section in ("fig4", "fig11", "fig12", "table1", "fig13", "fig14"):
        assert section in campaign
        assert campaign[section]
    assert campaign["quick"] is True
    assert campaign["version"]


def test_campaign_fig12_contains_all_cells(campaign):
    cells = campaign["fig12"]
    presets = {c["preset"] for c in cells}
    schemes = {c["scheme"] for c in cells}
    assert presets == {"3G", "4G", "Wi-Fi"}
    assert schemes == {"LO", "CO", "PO", "JPS"}


def test_save_and_load_roundtrip(campaign, tmp_path):
    path = save_campaign(campaign, tmp_path / "campaigns" / "run.json")
    assert path.exists()
    again = load_campaign(path)
    assert again == campaign


def test_load_missing_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_campaign(tmp_path / "nope.json")


def test_self_comparison_is_clean(campaign):
    assert compare_campaigns(campaign, campaign) == []


def test_comparison_flags_moved_values(campaign):
    import copy

    mutated = copy.deepcopy(campaign)
    mutated["fig11"][0]["jps_s"] *= 2.0
    problems = compare_campaigns(campaign, mutated)
    assert any("moved" in p and "jps_s" in p for p in problems)


def test_comparison_flags_structure_changes(campaign):
    import copy

    mutated = copy.deepcopy(campaign)
    mutated["fig12"] = mutated["fig12"][:-1]
    problems = compare_campaigns(campaign, mutated)
    assert any(p.startswith("missing in new") for p in problems)


def test_comparison_respects_tolerance(campaign):
    import copy

    mutated = copy.deepcopy(campaign)
    mutated["fig11"][0]["jps_s"] *= 1.01  # 1% move, 5% tolerance
    assert compare_campaigns(campaign, mutated, rel_tolerance=0.05) == []
    assert compare_campaigns(campaign, mutated, rel_tolerance=0.001)


def test_campaign_determinism(env):
    a = run_campaign(env, quick=True)
    b = run_campaign(env, quick=True)
    # scheduler overheads use wall time and are not part of the document;
    # everything recorded must be bit-identical
    assert compare_campaigns(a, b, rel_tolerance=0.0) == []


#: ``repro campaign --quick`` output. Regenerate after an intentional
#: change with ``PYTHONHASHSEED=0 PYTHONPATH=src python -m repro campaign
#: tests/data/golden_campaign_quick.json --quick``.
GOLDEN_CAMPAIGN = Path(__file__).parent / "data" / "golden_campaign_quick.json"


def _without_version(text: str) -> str:
    return re.sub(r'\n  "version": "[^"]*"', "", text)


def test_campaign_quick_matches_golden_file(tmp_path):
    """The harness output, byte for byte, from a fresh process.

    The hash seed is pinned because set-order float sums still move
    across seeds; only ``version`` may differ.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "campaign.json"
    result = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", str(out), "--quick"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0, result.stderr
    assert _without_version(out.read_text()) == _without_version(
        GOLDEN_CAMPAIGN.read_text()
    )
