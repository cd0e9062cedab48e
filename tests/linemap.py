"""Line map of the tier-1 suite: the `src/tempcert` statements it never executes.

Run from the repository root, with any pytest arguments after the script:

    python tests/linemap.py            # the whole tier-1 suite
    python tests/linemap.py -x tests/test_linalg.py

It runs pytest in this process under ``sys.settrace``, traces lines only in
frames whose code lives in ``src/tempcert``, and prints each statement with a
line that carries bytecode and was never reached, as ``file:line: source``.
Code run in a subprocess (the demos) is not seen. It needs only the standard
library and pytest, which does not collect it (its name does not match
``test_*.py``).
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tempcert"


def executable_lines(code) -> set:
    """Lines that carry bytecode in a code object and those nested in it, less
    each function's own first line, whose entry instruction reports no line event."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def statement_starts(tree: ast.AST) -> dict:
    """Each line of the file mapped to the first line of the innermost
    statement or ``except`` clause that spans it."""
    starts = {}
    nodes = (n for n in ast.walk(tree) if isinstance(n, (ast.stmt, ast.excepthandler)))
    for node in sorted(nodes, key=lambda n: (n.lineno, -n.end_lineno)):
        for line in range(node.lineno, node.end_lineno + 1):
            starts[line] = node.lineno
    return starts


def main(argv: list) -> int:
    import pytest

    hit = {}
    src = str(SRC)

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(src):
            return None
        hit.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        starts = statement_starts(ast.parse(text))
        unexecuted = executable_lines(compile(text, str(path), "exec"))
        unexecuted -= hit.get(str(path), set())
        for line in sorted({starts.get(k, k) for k in unexecuted}):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} unexecuted statement(s)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
