"""The engine's work grows linearly with the number of contracted files.

The work is counted as ``scripts/sweep_chain.py`` counts it for
``BENCH_scaling.json``: ``sys.settrace`` line events in ``charter`` frames
during the first run of the synthetic chain in a fresh process. The count
repeats exactly, so the gate holds on any host; CPU time is recorded by the
sweep but not gated.
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


def test_the_line_event_count_grows_linearly_from_100_to_200_files():
    sweep = _sweep()
    small, large = sweep.line_events(1, 100), sweep.line_events(1, 200)
    assert math.log2(large / small) <= 1.10, (small, large)
    assert sweep.fitted_slope([(100, small), (200, large)]) == pytest.approx(math.log2(large / small))
