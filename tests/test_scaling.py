"""The engine's work grows linearly with the number of contracted files.

The work is counted as ``scripts/sweep_chain.py`` counts it for
``BENCH_scaling.json``: ``sys.settrace`` line events during the first run of
the synthetic chain in a fresh process, in ``charter`` frames for the total
and in every Python frame for each phase. The counts repeat exactly, so the
gates hold on any host; CPU time is recorded by the sweep but not gated.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "sweep_chain.py"


def _sweep():
    spec = importlib.util.spec_from_file_location("sweep_chain", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SWEEP = _sweep()


@pytest.fixture(scope="module")
def counts():
    return SWEEP.line_events(1, 100), SWEEP.line_events(1, 200)


def test_the_line_event_count_grows_linearly_from_100_to_200_files(counts):
    small, large = counts[0]["charter"], counts[1]["charter"]
    assert math.log2(large / small) <= 1.10, (small, large)
    assert SWEEP.fitted_slope([(100, small), (200, large)]) == pytest.approx(math.log2(large / small))


@pytest.mark.parametrize("phase", [*SWEEP.PHASES, SWEEP.OTHER])
def test_each_phase_grows_linearly_from_100_to_200_files(counts, phase):
    small, large = counts[0]["phases"][phase], counts[1]["phases"][phase]
    assert small > 0, phase
    assert math.log2(large / small) <= 1.10, (phase, small, large)
