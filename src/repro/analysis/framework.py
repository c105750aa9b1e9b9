"""The shared plumbing of the five static analyzers.

SimLint, SimRace, SimFlow, SimPure and SimShard each keep only
their rules, manifests and confirmer, and describe themselves with one
:class:`Tool` record.  Everything they have in common lives here, once:

* :class:`Severity` and the frozen :class:`Finding` with its ``format()``;
* :func:`iter_python_files`, the deterministic file walk;
* ``# <tool>: disable=RULE[,RULE...]`` / ``disable=all`` suppression,
  generic over the tool's marker (:class:`SourceContext`);
* rule tables, ``--select`` normalization (rule IDs are
  case-insensitive) and the ``--strict`` exit-code tally;
* the parse-failure finding, under each tool's own rule ID;
* the confirm vocabulary: one :class:`Probe` record and the three grades
  :data:`CONFIRMED` / :data:`BENIGN` / :data:`UNOBSERVED`.

The ``repro`` CLI generates one subcommand per record in :func:`tools`
and ``repro analyze`` iterates the same table; neither knows any tool by
name.  Importing this module never imports the simulator; the analyzer
modules themselves are only imported by :func:`tools`.  See
``docs/analysis.md`` ("Common conventions").
"""

from __future__ import annotations

import argparse
import ast
import enum
import importlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

__all__ = [
    "Severity",
    "Finding",
    "Rule",
    "SourceContext",
    "ModuleContext",
    "Collector",
    "Confirmer",
    "Tool",
    "Probe",
    "UsageError",
    "CONFIRMED",
    "BENIGN",
    "UNOBSERVED",
    "TOOL_MODULES",
    "tools",
    "iter_python_files",
    "normalize_select",
    "sort_findings",
    "tally",
    "is_classvar",
    "class_fields",
    "add_grid_arguments",
    "parse_grid",
]


class Severity(enum.Enum):
    WARNING = "warning"
    ERROR = "error"


#: One rule-table row: ``(rule_id, severity, title)``.
Rule = Tuple[str, Severity, str]

#: Confirm grades for a static finding: the replay changed results and
#: exercised the finding's code, it exercised it and results held, or it
#: never reached it.
CONFIRMED = "CONFIRMED"
BENIGN = "BENIGN"
UNOBSERVED = "UNOBSERVED"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.  Tools whose confirmer
    needs more context subclass it with defaulted extra fields."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: Severity
    message: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity.value} {self.rule_id}: {self.message}"
        )


class UsageError(Exception):
    """Bad command-line input; the CLI prints it and exits 2."""


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Yield .py files under each path, depth-first and sorted (so output
    and exit codes are deterministic across filesystems)."""
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def normalize_select(select: Optional[Iterable[str]]) -> Optional[Set[str]]:
    """The selected rule IDs, upper-cased; None selects every rule."""
    return {r.upper() for r in select} if select is not None else None


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule_id))


def tally(findings: Sequence[Finding], strict: bool) -> Tuple[int, int, bool]:
    """``(errors, warnings, failed)``: a run fails on any error, and on
    any finding at all under ``--strict``."""
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    return errors, len(findings) - errors, bool(errors or (strict and findings))


# ----------------------------------------------------------- source context


_SUPPRESS_RES: Dict[str, "re.Pattern[str]"] = {}


class SourceContext:
    """One file's physical lines plus its ``# <marker>: disable=...``
    comments (comma list of rule IDs or ``all``, any case)."""

    def __init__(self, marker: str, path: str, source: str):
        self.path = path
        self.lines = source.splitlines()
        pattern = _SUPPRESS_RES.get(marker)
        if pattern is None:
            pattern = re.compile(rf"#\s*{re.escape(marker)}:\s*disable=([A-Za-z0-9_,\s]+)")
            _SUPPRESS_RES[marker] = pattern
        self._pattern = pattern

    def suppressed(self, lines: Union[int, Iterable[int]], rule_id: str) -> bool:
        """True when any of ``lines`` carries a marker naming ``rule_id``."""
        for line in (lines,) if isinstance(lines, int) else lines:
            if not (1 <= line <= len(self.lines)):
                continue
            m = self._pattern.search(self.lines[line - 1])
            if m is None:
                continue
            rules = {r.strip().upper() for r in m.group(1).split(",")}
            if "ALL" in rules or rule_id.upper() in rules:
                return True
        return False


class ModuleContext:
    """Per-module AST facts several tools share: import aliases for call
    resolution and parent links for scope checks."""

    def __init__(self, tree: ast.Module):
        self.tree = tree
        # local name -> dotted module/object path it is bound to.
        self.aliases: Dict[str, str] = {}
        # child node -> parent node, for enclosing-scope queries.
        self.parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name != "*":
                        self.aliases[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )

    def resolve_call(self, func: ast.AST) -> Optional[str]:
        """Dotted path of a call target, with import aliases expanded
        (``dt.now`` after ``from datetime import datetime as dt`` resolves
        to ``datetime.datetime.now``).  None when the base is not an
        imported name (e.g. a local variable or attribute chain on self).
        """
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        cur = self.parents.get(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cur
            cur = self.parents.get(cur)
        return None


def is_classvar(annotation: ast.AST) -> bool:
    """True for ``ClassVar[...]`` annotations — not dataclass fields."""
    return any(
        (isinstance(n, ast.Name) and n.id == "ClassVar")
        or (isinstance(n, ast.Attribute) and n.attr == "ClassVar")
        for n in ast.walk(annotation)
    )


def class_fields(cls: ast.ClassDef) -> Dict[str, int]:
    """Dataclass field name -> definition line (``ClassVar``\\ s excluded)."""
    return {
        stmt.target.id: stmt.lineno
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and not is_classvar(stmt.annotation)
    }


class Collector:
    """Accumulates one file's findings for one tool, dropping rules the
    selection excludes and lines a suppression comment covers."""

    def __init__(self, tool: "Tool", ctx: SourceContext, wanted: Optional[Set[str]]):
        self.tool = tool
        self.ctx = ctx
        self.wanted = wanted
        self.findings: List[Finding] = []

    @property
    def path(self) -> str:
        return self.ctx.path

    def wants(self, rule_id: str) -> bool:
        return self.wanted is None or rule_id in self.wanted

    def add(self, rule_id: str, line: int, message: str, *, col: int = 0,
            severity: Optional[Severity] = None, also: Iterable[int] = (),
            **extra: Any) -> bool:
        """Record a finding at ``line`` unless unselected or suppressed on
        ``line`` or any of the ``also`` lines; True when recorded."""
        if not self.wants(rule_id) or self.ctx.suppressed((line, *also), rule_id):
            return False
        self.findings.append(self.tool.finding(
            self.ctx.path, line, col, rule_id,
            severity or self.tool.severity(rule_id), message, **extra,
        ))
        return True

    def at(self, node: Any, rule_id: str, message: str, **kw: Any) -> bool:
        """:meth:`add` anchored at an AST node's position."""
        return self.add(rule_id, getattr(node, "lineno", 1), message,
                        col=getattr(node, "col_offset", 0), **kw)


# --------------------------------------------------------------- the record


@dataclass(frozen=True)
class Confirmer:
    """A tool's dynamic confirm mode: ``add_arguments`` adds its flags to
    the tool's subcommand, and ``run(args, findings)`` returns a report
    with an ``ok`` verdict and ``render(findings)`` text."""

    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace, List[Finding]], Any]


@dataclass(frozen=True)
class Tool:
    """Everything the CLI and ``repro analyze`` need to know about one
    analyzer.  ``name`` is also the suppression marker and the stderr
    prefix; ``command`` is the ``repro`` subcommand."""

    name: str
    command: str
    checks: str
    help: str
    rules: Sequence[Rule]
    #: Rule ID of the finding reported for a file that fails to parse.
    parse_rule: str
    #: Per-file pass: reports into the collector.
    check: Callable[[ast.Module, Collector], None]
    finding: Type[Finding] = Finding
    #: Whole-tree pass replacing the per-file loop of :meth:`analyze_paths`
    #: (for rules that need every file at once).
    run: Optional[Callable[[Sequence[str], Optional[Set[str]]], List[Finding]]] = None
    confirm: Optional[Confirmer] = None

    def rule_table(self) -> List[Tuple[str, str, str]]:
        """(rule_id, severity, title) for every rule."""
        return [(rid, sev.value, title) for rid, sev, title in self.rules]

    def severity(self, rule_id: str) -> Severity:
        return next(sev for rid, sev, _ in self.rules if rid == rule_id)

    def selection(self, select: Optional[Iterable[str]]) -> Optional[Set[str]]:
        """Normalized ``--select``; :class:`UsageError` names unknown IDs."""
        wanted = normalize_select(select)
        known = {rid for rid, _, _ in self.rules}
        unknown = [r for r in select or () if r.upper() not in known]
        if unknown:
            raise UsageError(
                f"unknown rule(s) {', '.join(unknown)} "
                f"(see `repro {self.command} --list-rules`)"
            )
        return wanted

    def parse(self, source: str, path: str,
              wanted: Optional[Set[str]]) -> Tuple[Optional[ast.Module], Collector]:
        """Parse one source; a syntax error becomes the tool's parse-failure
        finding (never deselected or suppressed) and a None tree."""
        out = Collector(self, SourceContext(self.name, path, source), wanted)
        try:
            return ast.parse(source, filename=path), out
        except SyntaxError as exc:
            out.findings.append(self.finding(
                path, exc.lineno or 1, exc.offset or 0, self.parse_rule,
                Severity.ERROR, f"syntax error: {exc.msg}",
            ))
            return None, out

    def scan(self, paths: Sequence[str],
             wanted: Optional[Set[str]]) -> Iterator[Tuple[Optional[ast.Module], Collector]]:
        """:meth:`parse` every Python file under ``paths``, in order."""
        for file in iter_python_files(paths):
            yield self.parse(file.read_text(encoding="utf-8"), str(file), wanted)

    def analyze_source(self, source: str, path: str = "<string>",
                       select: Optional[Iterable[str]] = None) -> List[Finding]:
        """Run the per-file pass over one source string."""
        tree, out = self.parse(source, path, normalize_select(select))
        if tree is not None:
            self.check(tree, out)
        return sort_findings(out.findings)

    def check_paths(self, paths: Sequence[str],
                    wanted: Optional[Set[str]]) -> List[Finding]:
        """The per-file pass over every file: each file's findings sorted,
        files in walk order."""
        findings: List[Finding] = []
        for tree, out in self.scan(paths, wanted):
            if tree is not None:
                self.check(tree, out)
            findings.extend(sort_findings(out.findings))
        return findings

    def analyze_paths(self, paths: Sequence[str],
                      select: Optional[Iterable[str]] = None) -> List[Finding]:
        """Run the tool over every Python file under ``paths``."""
        wanted = normalize_select(select)
        if self.run is not None:
            return self.run(paths, wanted)
        return self.check_paths(paths, wanted)


#: The analyzer modules, in ``repro analyze`` order; each defines ``TOOL``.
TOOL_MODULES: Tuple[str, ...] = (
    "repro.analysis.simlint",
    "repro.analysis.simrace",
    "repro.analysis.simflow",
    "repro.analysis.simpure",
    "repro.analysis.simshard",
)


def tools() -> List[Tool]:
    """The tool table: every analyzer's :class:`Tool` record."""
    return [importlib.import_module(m).TOOL for m in TOOL_MODULES]


# ------------------------------------------------------------ confirm modes


@dataclass(frozen=True)
class Probe:
    """One dynamic confirm check and its verdict."""

    kind: str
    target: str
    ok: bool
    detail: str = ""

    def format(self, kind_width: int = 24) -> str:
        verdict = "ok" if self.ok else "FAIL"
        tail = f" ({self.detail})" if self.detail and not self.ok else ""
        return f"  {self.kind:<{kind_width}} {self.target:<44} {verdict}{tail}"


def add_grid_arguments(parser: argparse.ArgumentParser,
                       default: Sequence[Tuple[str, str]]) -> None:
    """The ``--grid APP/DESIGN`` and ``--scale`` flags of a grid confirmer."""
    parser.add_argument(
        "--grid", action="append", metavar="APP/DESIGN",
        help=f"grid point for --confirm, e.g. {'/'.join(default[0])} "
             f"(repeatable; default: {', '.join('/'.join(p) for p in default)})")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="workload scale for --confirm")


def parse_grid(entries: Optional[Sequence[str]],
               default: Sequence[Tuple[str, str]]) -> List[Tuple[str, str]]:
    """``--grid`` entries as (app, design-label) pairs, or ``default``
    when none are given.  :class:`UsageError` names an entry that is not
    ``APP/DESIGN`` with a known app and a design ``parse_design`` accepts."""
    if not entries:
        return list(default)
    # Lazy imports: this module must not pull in the simulator.
    from repro.cli import parse_design
    from repro.workloads.suite import APP_NAMES

    grid: List[Tuple[str, str]] = []
    for entry in entries:
        app, _, design = entry.partition("/")
        problem = ""
        if design and app not in APP_NAMES:
            problem = f"unknown app {app!r}"
        elif design:
            try:
                parse_design(design)
            except argparse.ArgumentTypeError as exc:
                problem = str(exc)
        if problem or not design:
            raise UsageError(
                f"bad --grid entry {entry!r}{': ' + problem if problem else ''} "
                "(expected APP/DESIGN, e.g. P-2MM/Pr40)"
            )
        grid.append((app, design))
    return grid
