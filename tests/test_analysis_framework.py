"""Tests for the shared analyzer plumbing (repro.analysis.framework),
run over the whole tool table: suppression, --select case handling and
the guarantee that simulating never imports an analyzer."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.framework import tools
from repro.cli import main

TOOLS = tools()

#: Per tool: a rule and a source with exactly one finding of that rule.
FIXTURES = {
    "simlint": ("SL101", """
        import time

        stamp = time.time()
        """),
    "simrace": ("SR201", """
        class Node:
            def _dispatch(self, req):
                t1 = self.topo.hop(self.engine.now, req.src)
                if req.bypass:
                    self.engine.schedule(t1, self._release, req)
                else:
                    self.engine.schedule(t1, self._access, req)

            def _release(self, req):
                self.mshr.release(req.line)

            def _access(self, req):
                self.mshr.allocate(req.line, req)
        """),
    "simflow": ("SF301", """
        class Node:
            def start(self, req):
                self.engine.schedule(0.0, self._grab, req)

            def _grab(self, req):
                self.mshrs.allocate(req.line, req)
                self.engine.schedule(1.0, self._finish, req)

            def _finish(self, req):
                req.done = True
        """),
    "simpure": ("SP401", """
        import os

        def tick(self):
            return os.getenv("REPRO_LIMIT")
        """),
    "simshard": ("SD501", """
        def build(runner, specs):
            return runner.run_many([(lambda: 1, spec) for spec in specs])
        """),
}


def _fixture(tool):
    rule, src = FIXTURES[tool.name]
    return rule, textwrap.dedent(src)


def _finding_line(tool, src, rule):
    lines = [f.line for f in tool.analyze_source(src) if f.rule_id == rule]
    assert len(lines) == 1, lines
    return lines[0]


def _mark(src, line, comment):
    lines = src.splitlines()
    lines[line - 1] += f"  # {comment}"
    return "\n".join(lines) + "\n"


def test_table_covers_every_tool_and_rule():
    assert set(FIXTURES) == {t.name for t in TOOLS}
    assert sum(len(t.rules) for t in TOOLS) == 23


@pytest.mark.parametrize("tool", TOOLS, ids=lambda t: t.name)
@pytest.mark.parametrize("spelling", ["upper", "lower", "all", "ALL"])
def test_own_marker_silences_finding(tool, spelling):
    rule, src = _fixture(tool)
    line = _finding_line(tool, src, rule)
    target = {"upper": rule, "lower": rule.lower()}.get(spelling, spelling)
    marked = _mark(src, line, f"{tool.name}: disable={target}")
    assert rule not in {f.rule_id for f in tool.analyze_source(marked)}


@pytest.mark.parametrize("tool", TOOLS, ids=lambda t: t.name)
def test_other_tools_marker_does_not_silence(tool):
    rule, src = _fixture(tool)
    line = _finding_line(tool, src, rule)
    for other in TOOLS:
        if other is tool:
            continue
        marked = _mark(src, line, f"{other.name}: disable=all")
        assert _finding_line(tool, marked, rule) == line


@pytest.mark.parametrize("tool", TOOLS, ids=lambda t: t.name)
def test_lower_case_select_is_accepted_by_every_command(tool, tmp_path, capsys):
    rule, src = _fixture(tool)
    # Under repro/sim so the layer-scoped tools (SimPure, SimShard) apply.
    path = tmp_path / "repro" / "sim" / "fixture.py"
    path.parent.mkdir(parents=True)
    path.write_text(src)
    assert main([tool.command, "--strict", "--select", rule.lower(), str(path)]) == 1
    assert f" {rule}: " in capsys.readouterr().out


def test_simulator_stack_does_not_import_the_analyzers():
    code = (
        "import sys\n"
        "import repro.experiments.base, repro.experiments.registry, repro.sim.fleet\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "('repro.analysis.sim', 'repro.analysis.framework'))))\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
