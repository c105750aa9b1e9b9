"""Tests for ``benchmarks/compare_perfbench.py`` — the paired grid perf
gate's exit-code contract: 0 ok, 1 regression (a gated median ratio
outside the parent's ``BENCHMARK.json`` bound, any failed reference
check, or a change run that crashes), 2 nothing compared or bad input.

The gate is a standalone script (not part of the ``repro`` package), so
it is loaded by file path.  Most tests replace its ``run_bench`` with a
canned sequence of perfbench results; one drives the real subprocess
path against stub ``perfbench/run.py`` scripts.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import textwrap
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_GATE_PATH = _ROOT / "benchmarks" / "compare_perfbench.py"
_spec = importlib.util.spec_from_file_location("compare_perfbench", _GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

BENCH = _ROOT / "BENCHMARK.json"


def _result(wall=10.0, rate=1e6, correct=True, failed=0, **extra):
    metrics = {"wall_cal_s": wall, "sim_instr_per_cal_s": rate,
               "setup_s": 0.5, "peak_rss_mb": 50.0, **extra}
    return {"correct": correct, "attempted": 36, "failed": failed,
            "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}


def _tree(root: Path, bench: dict = None) -> Path:
    """A checkout with a ``BENCHMARK.json`` (the repo's, or ``bench``)."""
    root.mkdir(parents=True, exist_ok=True)
    if bench is None:
        shutil.copy(BENCH, root / "BENCHMARK.json")
    else:
        (root / "BENCHMARK.json").write_text(json.dumps(bench))
    return root


def _bench_doc() -> dict:
    return json.loads(BENCH.read_text())


class _FakeBench:
    """Stands in for ``run_bench``: answers by side and trace flag; a
    traced answer that is an exception is raised."""

    def __init__(self, parent, change, traced=None):
        self.by_side = {"parent": parent, "change": change}
        self.traced = traced or {}
        self.calls = []

    def __call__(self, tree, workload, seconds, trace):
        side = Path(tree).name
        self.calls.append((side, workload, trace))
        if trace:
            answer = self.traced[side]
            if isinstance(answer, Exception):
                raise answer
            return answer
        return self.by_side[side]


def _run(monkeypatch, tmp_path, fake, *args):
    monkeypatch.setattr(gate, "run_bench", fake)
    parent = tmp_path / "parent"
    if not (parent / "BENCHMARK.json").exists():
        _tree(parent)
    return gate.main([str(parent), str(tmp_path / "change"), *args])


def test_equal_docs_pass(monkeypatch, tmp_path, capsys):
    fake = _FakeBench(_result(), _result())
    assert _run(monkeypatch, tmp_path, fake, "--pairs", "3") == 0
    out = capsys.readouterr().out
    assert "[ok] wall_cal_s" in out and "[ok] sim_instr_per_cal_s" in out
    assert "paired perf gate: ok" in out


def test_speedup_passes(monkeypatch, tmp_path):
    fake = _FakeBench(_result(wall=10.0, rate=1e6), _result(wall=5.0, rate=2e6))
    assert _run(monkeypatch, tmp_path, fake) == 0


def test_slowdown_within_bound_passes(monkeypatch, tmp_path):
    fake = _FakeBench(_result(wall=10.0), _result(wall=11.5))  # +15% < 20%
    assert _run(monkeypatch, tmp_path, fake) == 0


def test_pairs_alternate_which_side_runs_first(monkeypatch, tmp_path):
    fake = _FakeBench(_result(), _result())
    assert _run(monkeypatch, tmp_path, fake, "--pairs", "2",
                "--workload", "grid-serial") == 0
    assert [side for side, _, _ in fake.calls] == [
        "parent", "change", "change", "parent"]


def test_wall_ratio_beyond_bound_fails_and_names_the_layer(
        monkeypatch, tmp_path, capsys):
    traced = {
        "parent": _result(**{"engine.drain_s.unfused": 4.0,
                             "workloads.generate_s": 0.5}),
        "change": _result(**{"engine.drain_s.unfused": 6.0,
                             "workloads.generate_s": 0.5}),
    }
    fake = _FakeBench(_result(wall=10.0), _result(wall=13.0), traced)
    assert _run(monkeypatch, tmp_path, fake, "--workload", "grid-serial") == 1
    out = capsys.readouterr().out
    assert "[FAIL] wall_cal_s" in out
    layers = out.split("moved most:")[1].strip().splitlines()
    assert layers[0].startswith("engine.drain_s.unfused")
    assert [t for _, _, t in fake.calls].count(1) == 2  # one traced per side
    assert "REGRESSION in grid-serial" in out


def test_throughput_drop_beyond_bound_fails(monkeypatch, tmp_path, capsys):
    fake = _FakeBench(_result(rate=1e6), _result(rate=7e5),
                      {"parent": _result(), "change": _result()})
    assert _run(monkeypatch, tmp_path, fake, "--workload", "grid-serial") == 1
    assert "[FAIL] sim_instr_per_cal_s" in capsys.readouterr().out


def test_reference_failure_is_a_hard_regression(monkeypatch, tmp_path, capsys):
    fake = _FakeBench(_result(), _result(wall=5.0, correct=False, failed=1),
                      {"parent": _result(), "change": _result()})
    assert _run(monkeypatch, tmp_path, fake, "--workload", "figures-cold") == 1
    assert "reference checks" in capsys.readouterr().out


def test_failed_traced_pass_keeps_the_regression(monkeypatch, tmp_path, capsys):
    crash = gate.NoResult("traced run crashed", tmp_path / "change", 1)
    fake = _FakeBench(_result(wall=10.0), _result(wall=13.0),
                      {"parent": _result(), "change": crash})
    assert _run(monkeypatch, tmp_path, fake, "--workload", "grid-serial") == 1
    out = capsys.readouterr().out
    assert "traced pass failed: traced run crashed" in out
    assert "REGRESSION in grid-serial" in out


def test_bad_input_after_a_regression_keeps_exit_1(monkeypatch, tmp_path, capsys):
    broken = _result()
    del broken["metrics"]["wall_cal_s"]

    def fake(tree, workload, seconds, trace):
        if Path(tree).name == "parent" or trace:
            return _result()
        return _result(wall=13.0) if workload == "grid-serial" else broken

    assert _run(monkeypatch, tmp_path, fake, "--workload", "grid-serial",
                "--workload", "figures-cold") == 1
    captured = capsys.readouterr()
    assert "metric wall_cal_s is None" in captured.err
    assert "REGRESSION in grid-serial" in captured.out


def test_bounds_come_from_the_parent_not_the_change(monkeypatch, tmp_path):
    loosened = _bench_doc()
    for m in loosened["end_to_end"]:
        m["bound"] = 10.0
    _tree(tmp_path / "change", loosened)
    fake = _FakeBench(_result(wall=10.0), _result(wall=13.0),
                      {"parent": _result(), "change": _result()})
    assert _run(monkeypatch, tmp_path, fake, "--workload", "grid-serial") == 1


def test_unreadable_input_is_config_error(monkeypatch, tmp_path, capsys):
    fake = _FakeBench(_result(), _result())
    monkeypatch.setattr(gate, "run_bench", fake)
    _tree(tmp_path / "change")  # only the parent's file counts
    rc = gate.main([str(tmp_path / "parent"), str(tmp_path / "change")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err
    assert fake.calls == []


def test_bench_without_gated_bound_is_config_error(monkeypatch, tmp_path):
    doc = _bench_doc()
    doc["end_to_end"] = [m for m in doc["end_to_end"]
                         if m["name"] != "sim_instr_per_cal_s"]
    _tree(tmp_path / "parent", doc)
    assert _run(monkeypatch, tmp_path, _FakeBench(_result(), _result())) == 2


def test_nothing_compared_is_config_error(monkeypatch, tmp_path):
    fake = _FakeBench(_result(), _result())
    assert _run(monkeypatch, tmp_path, fake, "--pairs", "0") == 2
    assert fake.calls == []


def test_missing_gated_metric_is_config_error(monkeypatch, tmp_path):
    broken = _result()
    del broken["metrics"]["wall_cal_s"]
    assert _run(monkeypatch, tmp_path, _FakeBench(_result(), broken)) == 2


@pytest.mark.parametrize("bad", [0, 0.0, -5.0, None, "fast"])
def test_non_positive_parent_metric_is_config_error(monkeypatch, tmp_path, bad):
    parent = _result()
    parent["metrics"]["sim_instr_per_cal_s"]["value"] = bad
    assert _run(monkeypatch, tmp_path, _FakeBench(parent, _result())) == 2


# ---------------------------------------------------- the real subprocess


def _stub_tree(root: Path, body: str) -> Path:
    _tree(root)
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(textwrap.dedent(body))
    return root


_CRASH = """
    import sys
    sys.exit("perfbench: no simulator sources")
"""


def _stub_printing(result: dict) -> str:
    return f"""
        import json, sys
        print("perfbench table ...")
        print(json.dumps({result!r}))
        sys.exit(0 if {result['correct']!r} else 1)
    """


def test_real_runs_are_parsed_from_the_result_line(tmp_path, capsys):
    parent = _stub_tree(tmp_path / "p", _stub_printing(_result()))
    change = _stub_tree(tmp_path / "c", _stub_printing(_result(wall=9.0)))
    rc = gate.main([str(parent), str(change),
                    "--workload", "grid-serial", "--pairs", "1",
                    "--record", str(tmp_path / "runs.json")])
    assert rc == 0
    record = json.loads((tmp_path / "runs.json").read_text())
    run = record["grid-serial"][0]
    assert run["first"] == "parent"
    assert run["change"]["metrics"]["wall_cal_s"]["value"] == 9.0


def test_crashing_change_is_a_regression_and_still_recorded(tmp_path, capsys):
    parent = _stub_tree(tmp_path / "p", _stub_printing(_result()))
    change = _stub_tree(tmp_path / "c", _CRASH)
    runs = tmp_path / "runs.json"
    rc = gate.main([str(parent), str(change), "--workload", "grid-serial",
                    "--pairs", "1", "--record", str(runs)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "[FAIL] grid-serial in" in out and "without a result line" in out
    assert "traced pass failed" in out
    assert json.loads(runs.read_text()) == {"grid-serial": []}


def test_run_without_result_line_is_config_error(tmp_path, capsys):
    parent = _stub_tree(tmp_path / "p", _CRASH)
    change = _stub_tree(tmp_path / "c", _stub_printing(_result()))
    rc = gate.main([str(parent), str(change),
                    "--workload", "grid-serial", "--pairs", "1"])
    assert rc == 2
    assert "without a result line" in capsys.readouterr().err


def test_change_exiting_zero_without_result_line_is_config_error(tmp_path):
    parent = _stub_tree(tmp_path / "p", _stub_printing(_result()))
    change = _stub_tree(tmp_path / "c", "print('no json here')\n")
    assert gate.main([str(parent), str(change), "--workload", "grid-serial",
                      "--pairs", "1"]) == 2


def test_tree_without_perfbench_is_config_error(tmp_path, capsys):
    parent = _stub_tree(tmp_path / "p", _stub_printing(_result()))
    rc = gate.main([str(parent), str(tmp_path / "empty"),
                    "--workload", "grid-serial", "--pairs", "1"])
    assert rc == 2
    assert "no perfbench/run.py" in capsys.readouterr().err
