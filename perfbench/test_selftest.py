"""Self-test of the benchmark: each workload runs clean at a tiny size, each
output check fires on a deliberately corrupted result, the traced run wraps
the bindings callers use, and the command keeps its output contract.

    python3 -m pytest -q perfbench/test_selftest.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

spans, workloads = run.import_package()

from physkey import channel  # noqa: E402  (importable once src/ is on the path)
from physkey.quantize import BitString  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"exchange": {"pool_size": 1}, "calibrate": {"n_samples": 2000},
        "analyze": {"samples": 4000}}


def tiny(name, tmp_path):
    return workloads.WORKLOADS[name](1, tmp_path, **TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean(name, tmp_path):
    # two operations: the second repeats the first, so the repeat checks run
    loop = run.run_loop(tiny(name, tmp_path), 0, min_ops=2)
    assert (loop.attempted, loop.failed) == (2, 0), loop.problems
    assert len(loop.ms) == 2


def flip_key_bit(out):
    sim, result = out
    bits = result.alice_key.bits.copy()
    bits[0] ^= 1
    return sim, replace(result, alice_key=BitString(bits))


def wrong_q(config):
    cal = config.calibration
    q = 1.5 * cal["q"]
    bad = channel.family_config(levels=cal["levels"], spread=cal["spread"],
                                band=cal["band"], q=q, n=config.n, seed=config.seed)
    return replace(bad, calibration={**cal, "q": q})


def slope_out_of_tolerance(outputs):
    code, text = outputs["fit-growth"]
    doc = json.loads(text)
    doc["g"]["slope"] = 0.5
    return {**outputs, "fit-growth": (code, json.dumps(doc))}


@pytest.mark.parametrize("name, corrupt", [("exchange", flip_key_bit),
                                           ("calibrate", wrong_q),
                                           ("analyze", slope_out_of_tolerance)])
def test_check_fires_on_corrupted_result(name, corrupt, tmp_path):
    workload = tiny(name, tmp_path)
    op = workload.op
    workload.op = lambda i: corrupt(op(i))
    loop = run.run_loop(workload, 0, min_ops=2)
    assert (loop.attempted, loop.failed) == (2, 2)
    assert not any(loop.successes)


def test_trace_wraps_caller_bindings(tmp_path):
    import physkey.protocol
    original = physkey.protocol.extract
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        loop = run.run_loop(tiny("exchange", tmp_path), 0, min_ops=1, tracer=tracer)
    finally:
        restore()
    assert physkey.protocol.extract is original
    assert loop.failed == 0
    by_id = {s["id"]: s for s in tracer.spans}
    parents = {s["name"]: by_id[s["parent"]]["name"] for s in tracer.spans
               if s["parent"] is not None}
    assert parents["extract.extract"] == "protocol.run_exchange"
    assert parents["coding.ss_recover"] == "protocol.run_exchange"
    assert parents["channel.simulate_run"] == "op"
    metrics = spans.layer_metrics(tracer.spans, loop.scales, loop.counts)
    assert metrics["channel.samples"][0] == 2325
    root = next(s for s in tracer.spans if s["name"] == "op")
    total_ms = (root["end"] - root["start"]) * 1e3 * loop.scales[0]
    assert metrics["trace.self_ms_sum_p50"][0] + metrics["trace.glue_ms"][0] == \
        pytest.approx(total_ms)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_output_contract(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    env = json.loads(lines[0])["env"]
    assert env["seed"] == 5 and env["src_lines"]["total"] > 0 and env["inputs_sha256"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exchange", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench").exists()
