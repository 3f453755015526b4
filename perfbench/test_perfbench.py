"""Tests for the benchmark's own code.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert m["name"] in proc.stdout.split("\n{\"correct\"")[0]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_follow_the_seed():
    for name, workload in workloads.WORKLOADS.items():
        a, b = workload.setup(3, "smoke"), workload.setup(3, "smoke")
        c = workload.setup(4, "smoke")
        assert a == b, name
        assert a != c, name
    seeds = workloads.rep_seeds(3)
    assert len({next(seeds) for _ in range(50)}) == 50


def test_traced_op_self_times_are_nonnegative_and_add_up():
    workload = workloads.WORKLOADS["full-detector"]
    inputs = workload.setup(5, "smoke")
    tracer = Tracer()
    mc = workloads._mod("montecarlo")
    original = mc._complex_normal
    with tracer.installed():
        assert mc._complex_normal is not original
        with tracer.recording():
            workload.op(inputs, 11, 1)
    assert mc._complex_normal is original
    own = tracer.self_times()
    assert tracer.spans and all(s >= 0.0 for s in own)
    for span, s in zip(tracer.spans, own):
        assert s <= span.end - span.start
    roots = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    assert sum(own) == pytest.approx(roots, rel=1e-9, abs=1e-9)
    layers = tracer.layer_self()
    assert set(LAYERS) <= set(layers)
    assert layers["montecarlo"] > 0 and layers["channel"] > 0
    assert sum(layers.values()) == pytest.approx(roots, rel=1e-9, abs=1e-9)


def test_nested_same_name_calls_make_one_span():
    tracer = Tracer()

    def inner():
        return 1

    wrapped_inner = tracer._wrap(inner, "analysis.inner")

    def outer(depth):
        return wrapped_outer(depth - 1) if depth else wrapped_inner() + wrapped_inner()

    wrapped_outer = tracer._wrap(outer, "montecarlo.outer")
    with tracer.recording():
        assert wrapped_outer(2) == 2
    assert [s.name for s in tracer.spans] == ["montecarlo.outer", "analysis.inner",
                                              "analysis.inner"]
    assert tracer.count(["analysis.inner"], {"montecarlo.outer"}) == 2
    assert tracer.total(["montecarlo.outer", "analysis.inner"]) == pytest.approx(
        tracer.spans[0].end - tracer.spans[0].start)


def _row(snr, p, trials):
    return workloads._mod("montecarlo").ResultRow(
        approach="omni-golay", k=1, snr_db=snr, gamma=0.5, p_fa_target=1e-2, p_md_hat=p,
        p_md_stderr=0.01, p_md_asym=None, trials=trials, seed=1)


def test_output_checks_reject_bad_rows():
    config = workloads.WORKLOADS["full-detector"].setup(1, "smoke").config
    n = config.drops * config.frames_per_drop
    snrs = config.snr_db_list
    good = [_row(s, 0.3 - 0.1 * i, n) for i, s in enumerate(snrs)]
    assert workloads.check_md_rows(good, config) == []
    rising = [_row(s, 0.1 + 0.1 * i, n) for i, s in enumerate(snrs)]
    assert workloads.check_md_rows(rising, config)
    zero = good[:-1] + [_row(snrs[-1], 0.0, n)]
    assert workloads.check_md_rows(zero, config)
    short = [_row(s, 0.3 - 0.1 * i, n - 1) for i, s in enumerate(snrs)]
    assert workloads.check_md_rows(short, config)

    inputs = workloads.WORKLOADS["full-detector"].setup(1, "smoke")
    exact = workloads._mod("analysis").fa_closed_form(
        inputs.gamma, config.k, config.l, config.n_r, config.n_t)
    stderr = math.sqrt(exact * (1 - exact) / n)
    fa = workloads._mod("montecarlo").ResultRow(
        approach="omni-golay", k=1, snr_db=math.nan, gamma=inputs.gamma, p_fa_target=1e-2,
        p_md_hat=exact + 5 * stderr, p_md_stderr=stderr, p_md_asym=exact, trials=n, seed=1)
    assert workloads.check_fa_row(fa, config)
