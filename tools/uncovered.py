"""List the statements of the package that a pytest run never executes.

    python3 tools/uncovered.py [pytest args]

Runs pytest in this process, with the given arguments, under a
``sys.settrace`` line tracer that records the lines executed in
``src/transferopt/*.py``. It then prints every statement of those files
that never ran, as ``file:line: source``, and one count per module. A
statement is an ``ast`` statement; docstrings, ``def`` and ``class``
headers (their bodies count) and imports are not counted. A compound
statement counts as run when a line of its header ran, a simple one when
any of its lines did. Code that runs only in a subprocess is not seen. Exits with pytest's exit
code. It uses the standard library and pytest only.
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "transferopt"

_SKIPPED = (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _is_docstring(node, parent):
    return (isinstance(parent, (ast.Module, ast.FunctionDef, ast.ClassDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _header_end(node):
    """Last line of a statement's own text: the line before its body for
    a compound statement, else its last line."""
    body = getattr(node, "body", None)
    return body[0].lineno - 1 if body else node.end_lineno


def statements(path):
    """``(first line, last header line)`` of every counted statement in
    the file at ``path``, in source order."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    spans = []
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if (isinstance(node, ast.stmt) and not isinstance(node, _SKIPPED)
                    and not _is_docstring(node, parent)):
                spans.append((node.lineno, max(node.lineno,
                                               _header_end(node))))
    return sorted(spans)


def run_traced(args):
    """pytest's exit code on ``args`` and ``{file: lines run}`` for the
    package's files."""
    executed = defaultdict(set)
    mine = {}

    def local(frame, event, _arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in mine:
            mine[name] = Path(name).resolve().parent == PACKAGE
        return local if mine[name] else None

    sys.settrace(trace)
    try:
        code = pytest.main(list(args))
    finally:
        sys.settrace(None)
    return int(code), {Path(name).resolve(): lines
                       for name, lines in executed.items()}


def main(argv):
    code, executed = run_traced(argv)
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        spans = statements(path)
        ran = executed.get(path, set())
        missed = [first for first, last in spans
                  if not ran.intersection(range(first, last + 1))]
        rel = path.relative_to(ROOT)
        for first in missed:
            print(f"{rel}:{first}: {lines[first - 1].strip()}")
        counts.append(f"{rel}: {len(missed)} of {len(spans)} statements "
                      f"missed")
    print("\n".join(counts))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
