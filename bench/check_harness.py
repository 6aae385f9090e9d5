"""Self-checks of the benchmark harness, kept out of the tier-1 suite.

Run with:  python3 -m pytest -q bench/check_harness.py
"""

import dataclasses
import json
import os

import pytest

import run
import spans
from workloads import WORKLOADS


def _artifact_hashes(tmp_path, command, threads, tag):
    config = tmp_path / f"{command.name}.json"
    config.write_text(json.dumps(command.warmup_config()))
    command = dataclasses.replace(command, args=("--threads", str(threads)))
    raw = run.spawn(command, str(config), str(tmp_path / tag), 3, "run")
    record = run.inspect(raw, None)
    assert record["failures"] == []
    return record["hashes"]


@pytest.mark.parametrize("command", WORKLOADS["certify"], ids=lambda c: c.name)
def test_certify_artifacts_ignore_threads_and_repeat(tmp_path, command):
    """Fixed seed gives byte-identical CSV/xy files whatever --threads is."""
    first = _artifact_hashes(tmp_path, command, 1, "threads1")
    assert any(name.endswith(".csv") for name in first)
    assert _artifact_hashes(tmp_path, command, 2, "threads2") == first
    assert _artifact_hashes(tmp_path, command, 2, "threads2-again") == first


def test_benchmark_json_matches_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, unit, better) for name, unit, better, _ in spans.LAYER_METRICS]


def test_self_time_subtracts_the_union_of_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def outer():
        inner()
        inner()

    tracer.wrap("outer", outer)()
    report = tracer.report()
    assert report["calls"] == {"outer": 1, "inner": 2}
    (_, o_start, o_end, _, _), = [s for s in tracer.spans if s[0] == "outer"]
    inner_total = sum(e - s for n, s, e, _, _ in tracer.spans if n == "inner")
    assert report["self_s"]["outer"] == pytest.approx(
        (o_end - o_start) - inner_total)
    assert spans.covered([(1.0, 3.0), (2.0, 4.0), (6.0, 20.0)], 0.0, 10.0) \
        == pytest.approx(7.0)
