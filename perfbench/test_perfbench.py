"""Tests of the benchmark's own code: tracer, op accounting, import-time parsing.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import fracspde.cli  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def _by_name(spans):
    return {name: (sid, parent, start, end) for sid, parent, name, start, end in spans}


def test_self_time_is_span_minus_children():
    t = tracer.Tracer()

    def inner():
        time.sleep(0.02)

    inner_traced = t.wrap("m.inner", inner)

    def outer():
        time.sleep(0.01)
        inner_traced()
        inner_traced()

    t.wrap("m.outer", outer)()
    stats, idle = tracer.summarize(t.spans, t.pools)
    spans = _by_name(t.spans)
    outer_id, outer_parent, o_start, o_end = spans["m.outer"]
    inner_total = sum(e - s for _, p, n, s, e in t.spans if n == "m.inner")
    assert outer_parent is None
    assert all(p == outer_id for _, p, n, _, _ in t.spans if n == "m.inner")
    assert stats["m.inner"]["calls"] == 2
    assert stats["m.outer"]["busy_s"] == pytest.approx((o_end - o_start) - inner_total, abs=1e-12)
    assert stats["m.inner"]["busy_s"] == pytest.approx(inner_total, abs=1e-12)
    assert stats["m.outer"]["busy_s"] >= 0.009
    assert idle == 0.0


def test_covered_merges_overlapping_children():
    assert tracer._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert tracer._covered([(-1.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert tracer._covered([(1.0, 5.0), (2.0, 3.0), (4.0, 7.0)], 0.0, 6.0) == pytest.approx(5.0)
    assert tracer._covered([], 0.0, 1.0) == 0.0


def test_pool_tasks_run_under_the_pool_span_on_worker_threads():
    t = tracer.Tracer()
    threads_seen = set()
    barrier = threading.Barrier(2, timeout=10)

    def leaf():
        threads_seen.add(threading.get_ident())
        barrier.wait()
        time.sleep(0.01)

    leaf_traced = t.wrap("m.leaf", leaf)
    pool = t.wrap_pool(fracspde.cli._run_parallel)
    t.wrap("m.caller", lambda: pool([leaf_traced, leaf_traced], 2))()

    assert len(threads_seen) == 2
    pool_id = _by_name(t.spans)[tracer.POOL_NAME][0]
    tasks = {sid: parent for sid, parent, name, _, _ in t.spans if name == tracer.TASK_NAME}
    leaves = [parent for _, parent, name, _, _ in t.spans if name == "m.leaf"]
    assert set(tasks.values()) == {pool_id}
    assert sorted(leaves) == sorted(tasks)
    stats, idle = tracer.summarize(t.spans, t.pools)
    # the two tasks overlap in time, so the pool span's self time stays small
    assert stats[tracer.POOL_NAME]["busy_s"] < stats[tracer.POOL_NAME]["total_s"] / 2
    assert 0.0 <= idle < stats[tracer.POOL_NAME]["total_s"]


def _package_bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "fracspde" or name.startswith("fracspde.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_every_binding_is_wrapped_then_restored():
    before = _package_bindings()
    picard = sys.modules["fracspde.picard"]
    regularity = sys.modules["fracspde.regularity"]
    original_solve = picard.solve
    t = tracer.Tracer()
    assert t.install() > 0
    try:
        # one wrapper per function, seen through every module that imported it
        assert picard.solve is not original_solve
        assert fracspde.cli.solve is picard.solve
        assert regularity.build_geometry is picard.build_geometry
        assert picard.noise_slabs.__wrapped__ is not None
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.uninstall()
    assert _package_bindings() == before


def test_traced_run_restores_bindings_and_counts_raising_ops(tmp_path):
    before = _package_bindings()

    def exploding_main(argv):
        raise KeyError("boom")

    result = worker.run_workload(exploding_main, "holder", 0, 0.0, str(tmp_path), tracer.Tracer())
    assert _package_bindings() == before
    assert result["attempted"] == 1 + 2 * worker.MIN_REPS
    assert len(result["failures"]) == result["attempted"]


def test_usage_error_and_failed_check_both_count_as_failed(tmp_path):
    r = worker.Run(fracspde.cli.main, str(tmp_path))
    *_, ok_usage = r.op(["gronwall", "--mc-samples", "10"])
    *_, ok_check = r.op(["gronwall", "--g", "power:-0.7"])
    *_, ok_fine = r.op(["peszat"])
    assert (ok_usage, ok_check, ok_fine) == (False, False, True)
    assert r.attempted == 3
    assert [f["why"].split(":")[0] for f in r.failures] == ["exit 1", "exit 2"]
    assert {f["kind"] for f in r.failures} == {"exit"}


def test_output_check_counts_as_an_attempted_op(tmp_path):
    r = worker.Run(fracspde.cli.main, str(tmp_path))
    r.check("always", True, "never shown")
    r.check("never", False, "shown")
    assert r.attempted == 2
    assert r.failures == [{"op": "never", "kind": "output", "why": "shown"}]


def test_same_tree_ignores_only_the_config_echo(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, echo in ((a, "out = a\n"), (b, "out = b\n")):
        d.mkdir()
        (d / "report.json").write_text("[]\n")
        (d / worker.CONFIG_ECHO).write_text(echo)
    assert worker.same_tree(str(a), str(b))
    (b / "report.json").write_text("[1]\n")
    assert not worker.same_tree(str(a), str(b))
    assert not worker.same_tree(str(tmp_path / "missing"), str(tmp_path / "missing"))


def test_parse_importtime_sums_outermost_scipy_entries():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy._lib",
            "import time:       200 |        300 |   scipy",
            "import time:        50 |         50 |     scipy.special._ufuncs",
            "import time:       400 |        450 |   scipy.special",
            "import time:        10 |         10 |   fracspde.report",
            "import time:       500 |       1260 | fracspde.cli",
            "import time:        70 |         70 | scipy.integrate",
        ]
    )
    cli_s, scipy_s = run.parse_importtime(text)
    assert cli_s == pytest.approx(1260e-6)
    assert scipy_s == pytest.approx((300 + 450 + 70) * 1e-6)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
    assert set(run.DOMINANT_LAYER) == set(worker.WORKLOADS)
