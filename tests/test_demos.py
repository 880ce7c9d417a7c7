"""Every demo script runs to the end and prints what it printed when pinned."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# sha256 of each demo's stdout; every demo is deterministic
DEMO_STDOUT_SHA256 = {
    "capacity_sweep_demo.py": "135dee4899c575944342c3c42e2cdbf3c9e10add3ae68715b0950b1a36c890ca",
    "geometry_tour.py": "9ce1723377b784361e0c720bb70bdaf710712cd7804bc39527154656a640a8e8",
    "link_budget_walkthrough.py": "466feed1ed0a5255d5aa205db746b34bda3c9041e597f458c937262120af67fe",
    "packet_trace_demo.py": "a51a56aeab6eb1064b331eca958ebb376cb92700344116fd0c1599db0e77f75b",
    "reference_comparison_demo.py": "18d0e071837050aef75a80212f88be7bf160f5c406f8053a2b2f29f9eac9364e",
    "schedule_gallery.py": "ae9a881739c14d4044899ab28422a31c540c62e50663b83ba746f2871f2e51a2",
}


def test_demos_are_found():
    assert len(DEMOS) >= 6
    assert sorted(p.name for p in DEMOS) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_stdout_is_pinned(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DEMO_STDOUT_SHA256[path.name]
