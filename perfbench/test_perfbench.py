"""Tests of the benchmark itself: input generation, determinism of the counts,
the traced pass's wrappers and the output checks.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import run as bench  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from charter.scheduler import RunMode  # noqa: E402

ZERO = synth.Latency()


def small_heal(seed: int = 3):
    return workloads.heal_wide(seed, n=16, per_fault=2, latency=ZERO)


def test_same_seed_gives_byte_identical_inputs():
    assert synth.chain_plan(5, 20).to_json() == synth.chain_plan(5, 20).to_json()
    assert synth.heal_plan(5, 48, 6).to_json() == synth.heal_plan(5, 48, 6).to_json()
    assert synth.heal_plan(5, 48, 6).to_json() != synth.heal_plan(6, 48, 6).to_json()


def test_seed_changes_content_but_not_size():
    first, second = synth.heal_plan(1, 48, 6), synth.heal_plan(2, 48, 6)
    assert first.faults != second.faults
    size = lambda plan: sum(len(body) for body in plan.oracle.values())  # noqa: E731
    assert size(first) == size(second)


def test_latency_is_keyed_not_ordered():
    latency = synth.HEAL_LATENCY
    a = latency.seconds(9, "worker", "core/node_004.py", 0, 1000)
    assert a == latency.seconds(9, "worker", "core/node_004.py", 0, 1000)
    assert 0.06 + 0.01 <= a <= 0.12 + 0.01
    assert latency.seconds(9, "worker", "core/node_004.py", 1, 1000) != a
    assert ZERO.seconds(9, "worker", "core/node_004.py", 0, 1000) == 0.0


@pytest.mark.parametrize("make", [lambda: workloads.chain_large(2, n=10), small_heal, lambda: workloads.fixtures_replay(0)])
def test_workloads_pass_their_checks(make):
    stats = workloads.run_sample(make()).stats()
    assert stats.ok, stats.problems


def test_heal_exercises_every_fault_kind():
    sample = workloads.run_sample(small_heal())
    layers = [r for r in sample.runs[0].result.ledger.records if r["kind"] == "layer"]
    kinds = {d["kind"] for rec in layers for d in rec["deltas"]}
    interventions = {i["kind"] for rec in layers for i in rec["interventions"]}
    assert {"CRITICAL", "PATCHABLE"} <= kinds
    assert {"ContractAmendment", "SyncTask"} <= interventions
    assert sum(rec["merge_conflicts"] for rec in layers) >= 1
    assert len(layers) == 3


def test_answers_do_not_depend_on_thread_order():
    cases = small_heal()
    parallel = workloads.run_sample(cases).runs[0].result
    cases[0].config = replace(cases[0].config, mode=RunMode.SEQUENTIAL)
    sequential = workloads.run_sample(cases).runs[0].result
    assert parallel.workspace.view() == sequential.workspace.view()
    assert parallel.contract.fingerprint() == sequential.contract.fingerprint()


def test_critical_wait_takes_the_slowest_dispatch_of_a_parallel_layer():
    waits = [(0, 0.5), (0, 0.25), (1, 0.125), (1, 0.375), (2, 0.25)]
    assert workloads.critical_wait(waits, RunMode.PARALLEL) == 0.75 + 0.375 + 0.25
    assert workloads.critical_wait(waits, RunMode.SEQUENTIAL) == 0.75 + 0.5 + 0.25


def test_simulated_wait_repeats_exactly():
    ranges = tuple((role, lo / 100, hi / 100) for role, lo, hi in synth.HEAL_LATENCY.ranges)
    fast = synth.Latency(ranges, per_token=0.0)
    cases = workloads.heal_wide(3, n=16, per_fault=2, latency=fast)
    first, second = (workloads.run_sample(cases).stats() for _ in range(2))
    assert first.wait_s > 0
    assert first.wait_s == second.wait_s
    assert first.run_s > first.wait_s


DETERMINISTIC = ("kernel.project.calls", "workspace.analyze.calls", "agents.prompt_tokens")


@pytest.mark.parametrize("make", [lambda: workloads.chain_large(4, n=12), small_heal, lambda: workloads.fixtures_replay(0)])
def test_counts_repeat_exactly(make):
    cases = make()
    seen = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            sample = workloads.run_sample(cases, on_backend=tracer.trace_backend)
        finally:
            tracer.restore()
        metrics = tracing.sample_metrics(tracer.spans, sample)
        stats = sample.stats()
        seen.append((stats.prompt_tokens, stats.dispatches, stats.layers, *(metrics[name] for name in DETERMINISTIC)))
    assert seen[0] == seen[1]
    assert seen[0][0] == seen[0][-1]  # tokens seen by the backend equal tokens built


def test_wrapped_functions_are_restored_by_identity():
    import charter.auditor
    import charter.kernel
    import charter.patches
    import charter.scheduler

    sites = [
        (charter.scheduler, "audit_layer"),
        (charter.auditor, "project"),
        (charter.auditor, "analyze"),
        (charter.patches, "diff_against_base"),
        (charter.kernel, "project"),
    ]
    originals = [getattr(module, name) for module, name in sites]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, name), original in zip(sites, originals):
            assert getattr(module, name) is not original
            assert getattr(module, name).__wrapped__ is original
    finally:
        tracer.restore()
    for (module, name), original in zip(sites, originals):
        assert getattr(module, name) is original


def test_percentiles_are_medians_of_block_percentiles():
    burst = [1.0 + i / 100 for i in range(30)] + [5.0] * 10  # one slow block out of four
    assert bench.percentile(burst, 90) < 1.3
    assert bench.percentile(burst, 50) < 1.2
    assert bench.percentile([2.0, 1.0, 3.0], 90) == pytest.approx(2.8)
    assert bench.percentile([2.0, 1.0, 3.0], 50) == pytest.approx(2.0)


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        tracing.Span("a", 1, None, 0, 0.0, 10.0),
        tracing.Span("b", 2, 1, 0, 1.0, 4.0),
        tracing.Span("c", 3, 1, 0, 3.0, 6.0),  # overlaps b
        tracing.Span("d", 4, 2, 0, 2.0, 3.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(5.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)


def corrupted_chain(seed: int = 1, n: int = 8):
    plan = synth.chain_plan(seed, n)
    node_path = sorted(plan.oracle)[0]
    (text,) = plan.answers[(synth.WORKER, node_path)]
    answers = dict(plan.answers)
    answers[(synth.WORKER, node_path)] = (text.replace("[self.value] * limit", "[self.value] * (limit + 1)"),)
    assert answers[(synth.WORKER, node_path)] != (text,)
    return replace(plan, answers=answers)


def test_corrupted_artifact_counts_as_failed():
    plan = corrupted_chain()
    cases = workloads.chain_large(1, n=8)
    cases[0].make_backend = lambda: synth.SyntheticBackend(plan)
    sample = workloads.run_sample(cases)
    assert sample.runs[0].result.converged  # the engine accepts it; only the oracle objects
    assert not sample.stats().ok


def test_command_exits_non_zero_on_a_failed_check(monkeypatch, capsys):
    def corrupted(seed):
        cases = workloads.chain_large(seed, n=8)
        plan = corrupted_chain(seed)
        cases[0].make_backend = lambda: synth.SyntheticBackend(plan)
        return cases

    monkeypatch.setitem(workloads.WORKLOADS, "chain-large", corrupted)
    monkeypatch.setattr(bench, "FRESH_SETUPS", 0)
    code = bench.main(["--workload", "chain-large", "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sample = workloads.run_sample(workloads.chain_large(1, n=4))
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.end_to_end([sample.stats()], [1.0]))
    per_layer = list(tracing.sample_metrics([], sample)) + ["trace.overhead_s", "trace.overhead_frac"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, bench.unit_of(n)) for n in per_layer]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
