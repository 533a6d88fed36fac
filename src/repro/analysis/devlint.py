"""Nondeterminism lint for repro's own source (``repro devlint``).

The golden-trace suite can only prove determinism for the inputs it
replays; this linter goes after the *sources* of nondeterminism before
they reach a trace.  It walks Python ASTs looking for the patterns that
have historically broken bit-identical replays of task-based runtimes:

* **DL001** — iterating a ``set``/``frozenset`` without ``sorted()``.
  Set iteration order depends on insertion history and hash seeding;
  feeding it into scheduling decisions reorders dispatches run to run.
* **DL002** — ``id()`` inside a sort key or heap entry.  CPython ids
  are addresses; two runs allocate differently, so ties break
  differently.
* **DL003** — ``heapq.heappush`` without a tie-break counter in the
  entry.  Heap order among equal priorities falls through to comparing
  payloads (or crashing on uncomparable ones); a monotonic sequence
  number makes ties FIFO and total.
* **DL004** — the module-global ``random`` API (or an unseeded
  ``random.Random()``).  Simulation randomness must come from seeded
  generator instances so runs replay.
* **DL005** — wall-clock reads (``time.time``, ``datetime.now``, ...).
  Simulated time is the only clock allowed to influence results;
  ``time.perf_counter`` is exempt because benchmarks measure with it.
* **DL006** — a blocking ``queue.get()`` or ``process.join()`` without
  a timeout.  A dead or hung peer turns the bare call into a permanent
  wedge; supervised code must wake up periodically to check liveness
  (the lesson behind the shard pool's hang-detection layer).

Findings are suppressed inline with ``# repro: disable=DL001`` (or
``disable=all``) on the offending line, or collectively through a
committed baseline file (:mod:`repro.analysis.baseline`).  Fingerprints
use the enclosing function/class qualname, not the line number, so
unrelated edits do not invalidate the baseline.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.diagnostics import RULES, Severity

#: ``# repro: disable=DL001,DL003`` or ``# repro: disable=all``.
_DISABLE_RE = re.compile(r"#\s*repro:\s*disable=([A-Za-z0-9_,\s]+)")

#: Names whose presence in a heap entry marks a deliberate tie-breaker.
_COUNTERISH = re.compile(r"seq|count|counter|tie|index|order", re.IGNORECASE)

#: Wall-clock calls (module attribute -> flagged function names).
_WALL_CLOCK = {
    "time": {"time", "time_ns", "localtime", "gmtime", "ctime"},
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}

#: Receiver names whose ``.get()`` reads a blocking queue (DL006).
_QUEUEISH = re.compile(r"queue", re.IGNORECASE)

#: Receiver names whose ``.join()`` waits on a process/worker (DL006).
#: ``thread`` is deliberately excluded: daemon threads die with the
#: process, and ``os.path.join``/``str.join`` receivers never match.
_PROCESSISH = re.compile(r"^(proc|process|worker|child)", re.IGNORECASE)


@dataclass(frozen=True)
class LintFinding:
    """One devlint hit in one source file."""

    path: str
    line: int
    code: str
    #: Enclosing function/class qualname ("<module>" at top level).
    symbol: str
    message: str

    @property
    def severity(self) -> Severity:
        """The code's severity, as the rule table states it."""
        return RULES[self.code].severity

    def fingerprint(self) -> str:
        """Baseline key, stable across line drift: ``path|code|symbol``."""
        return f"{self.path}|{self.code}|{self.symbol}"

    def render(self) -> str:
        """One-line ``path:line: CODE message [symbol]`` form."""
        return (
            f"{self.path}:{self.line}: {self.code} {self.message} "
            f"[{self.symbol}]"
        )

    def to_dict(self) -> dict:
        """JSON-ready representation (``repro devlint --format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "code": self.code,
            "symbol": self.symbol,
            "message": self.message,
            "severity": self.severity.value,
            "fingerprint": self.fingerprint(),
        }


def _disabled_codes(source_line: str) -> set[str]:
    match = _DISABLE_RE.search(source_line)
    if not match:
        return set()
    return {token.strip().upper() for token in match.group(1).split(",")}


def _is_set_expr(node: ast.expr) -> bool:
    """Whether an expression evaluates to a set/frozenset syntactically."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra (a | b, a - b, ...) yields a set when either side is.
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _contains_id_call(node: ast.expr) -> bool:
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "id"
        ):
            return True
    return False


def _names_counterish(node: ast.expr) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            fn = child.func
            if isinstance(fn, ast.Name) and fn.id == "next":
                return True
        name = None
        if isinstance(child, ast.Name):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        if name is not None and _COUNTERISH.search(name):
            return True
    return False


class _Linter(ast.NodeVisitor):
    """One pass over one module's AST."""

    def __init__(self, path: str, lines: list[str]) -> None:
        self.path = path
        self.lines = lines
        self.findings: list[LintFinding] = []
        self._symbols: list[str] = []
        #: Local names bound to set expressions, per function scope.
        self._set_locals: list[set[str]] = [set()]
        #: ``self.x`` attributes assigned a set anywhere in the module.
        self._set_attrs: set[str] = set()

    # -------------------------------------------------------------- helpers
    @property
    def symbol(self) -> str:
        return ".".join(self._symbols) if self._symbols else "<module>"

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        source = self.lines[line - 1] if 0 < line <= len(self.lines) else ""
        disabled = _disabled_codes(source)
        if "ALL" in disabled or code in disabled:
            return
        self.findings.append(
            LintFinding(
                path=self.path,
                line=line,
                code=code,
                symbol=self.symbol,
                message=message,
            )
        )

    def _is_known_set(self, node: ast.expr) -> bool:
        if _is_set_expr(node):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._set_locals)
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            if node.value.id == "self" and node.attr in self._set_attrs:
                return True
        return False

    # ------------------------------------------------------- scope tracking
    def _visit_scoped(self, node: ast.AST, name: str, new_locals: bool) -> None:
        self._symbols.append(name)
        if new_locals:
            self._set_locals.append(set())
        self.generic_visit(node)
        if new_locals:
            self._set_locals.pop()
        self._symbols.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scoped(node, node.name, new_locals=True)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scoped(node, node.name, new_locals=True)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scoped(node, node.name, new_locals=False)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_locals[-1].add(target.id)
                elif isinstance(target, ast.Attribute) and isinstance(
                    target.value, ast.Name
                ):
                    if target.value.id == "self":
                        self._set_attrs.add(target.attr)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and _is_set_expr(node.value):
            if isinstance(node.target, ast.Name):
                self._set_locals[-1].add(node.target.id)
            elif isinstance(node.target, ast.Attribute) and isinstance(
                node.target.value, ast.Name
            ):
                if node.target.value.id == "self":
                    self._set_attrs.add(node.target.attr)
        self.generic_visit(node)

    # ------------------------------------------------------------ the rules
    def _check_iteration(self, iter_node: ast.expr) -> None:
        if self._is_known_set(iter_node):
            self._emit(
                iter_node,
                "DL001",
                "iteration over a set without sorted(); order depends on "
                "hashing and insertion history",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension_iters(self, node) -> None:
        for generator in node.generators:
            self._check_iteration(generator.iter)
        self.generic_visit(node)

    visit_ListComp = visit_comprehension_iters
    visit_SetComp = visit_comprehension_iters
    visit_DictComp = visit_comprehension_iters
    visit_GeneratorExp = visit_comprehension_iters

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        fn_name = None
        fn_module = None
        if isinstance(fn, ast.Name):
            fn_name = fn.id
        elif isinstance(fn, ast.Attribute):
            fn_name = fn.attr
            if isinstance(fn.value, ast.Name):
                fn_module = fn.value.id

        # DL002: id() inside sort keys.
        if fn_name in ("sorted", "min", "max") or (
            fn_name == "sort" and isinstance(fn, ast.Attribute)
        ):
            for keyword in node.keywords:
                if keyword.arg == "key" and _contains_id_call(keyword.value):
                    self._emit(
                        node,
                        "DL002",
                        "id() in a sort key: CPython ids are addresses, so "
                        "tie-breaks differ between runs",
                    )

        # DL003 (and DL002 inside heap entries).
        if fn_name == "heappush" and len(node.args) >= 2:
            entry = node.args[1]
            if _contains_id_call(entry):
                self._emit(
                    node,
                    "DL002",
                    "id() in a heap entry: address-based ordering is not "
                    "replayable",
                )
            if isinstance(entry, ast.Tuple):
                if not any(_names_counterish(el) for el in entry.elts):
                    self._emit(
                        node,
                        "DL003",
                        "heap entry tuple has no sequence counter; equal "
                        "priorities fall through to comparing payloads",
                    )
            elif not _names_counterish(entry):
                self._emit(
                    node,
                    "DL003",
                    "heappush without a (priority, seq, item) entry; ties "
                    "among equal items are not FIFO",
                )

        # DL004: module-global random API / unseeded Random().
        if fn_module == "random" and fn_name not in ("Random", "SystemRandom"):
            self._emit(
                node,
                "DL004",
                f"random.{fn_name}() uses the shared module-global RNG; "
                "draw from a seeded random.Random(seed) instance",
            )
        if fn_name == "Random" and not node.args and not node.keywords:
            self._emit(
                node,
                "DL004",
                "Random() without a seed cannot be replayed; pass an "
                "explicit seed",
            )

        # DL005: wall clock.
        if fn_module in _WALL_CLOCK and fn_name in _WALL_CLOCK[fn_module]:
            self._emit(
                node,
                "DL005",
                f"{fn_module}.{fn_name}() reads the wall clock; simulated "
                "time is the only clock allowed to influence results",
            )

        # DL006: unbounded blocking on a queue or a process.  The
        # receiver is judged by name (``task_queue.get``,
        # ``worker.process.join``), so attribute receivers count too.
        if isinstance(fn, ast.Attribute):
            receiver = fn_module
            if receiver is None and isinstance(fn.value, ast.Attribute):
                receiver = fn.value.attr
            keyword_names = {kw.arg for kw in node.keywords}
            bounded = bool(node.args) or "timeout" in keyword_names
            if (
                fn_name == "get"
                and receiver is not None
                and _QUEUEISH.search(receiver)
                and not bounded
            ):
                self._emit(
                    node,
                    "DL006",
                    f"{receiver}.get() without a timeout blocks forever if "
                    "the producer dies; poll with a timeout and re-check "
                    "liveness",
                )
            if (
                fn_name == "join"
                and receiver is not None
                and _PROCESSISH.search(receiver)
                and not bounded
            ):
                self._emit(
                    node,
                    "DL006",
                    f"{receiver}.join() without a timeout waits forever on "
                    "a wedged process; join with a timeout, then escalate "
                    "terminate -> kill",
                )

        self.generic_visit(node)


def lint_source(source: str, path: str = "<string>") -> list[LintFinding]:
    """Lint one module's source text; findings in (line, code) order."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(path, source.splitlines())
    linter.visit(tree)
    return sorted(linter.findings, key=lambda f: (f.line, f.code, f.symbol))


def _iter_py_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            yield from sorted(entry.rglob("*.py"))
        else:
            yield entry


def lint_paths(
    paths: Iterable[str | Path], root: str | Path | None = None
) -> list[LintFinding]:
    """Lint files and directories (recursively); deterministic order.

    ``root`` relativizes the recorded paths so fingerprints are stable
    across checkouts (defaults to the current working directory when the
    file lies under it).
    """
    root = Path(root) if root is not None else Path.cwd()
    findings: list[LintFinding] = []
    for file_path in _iter_py_files(paths):
        try:
            shown = file_path.resolve().relative_to(root.resolve())
        except ValueError:
            shown = file_path
        findings.extend(
            lint_source(
                file_path.read_text(encoding="utf-8"), path=shown.as_posix()
            )
        )
    return sorted(findings, key=lambda f: (f.path, f.line, f.code, f.symbol))
