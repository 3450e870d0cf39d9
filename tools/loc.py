"""Count code lines in Python sources, per package and in total.

A code line is a source line that holds at least one token other than
a comment or a docstring: blank lines, comment-only lines and the
lines of module, class and function docstrings are not counted.  A
multi-line expression counts every line it spans, a multi-line string
that is not a docstring too.

Packages are the first two dotted components of each module under a
root (``repro.engine`` for ``src/repro/engine/jobs.py``; a module
directly inside a top-level package counts under that package).

Usage::

    python tools/loc.py [ROOT ...]        # default root: src
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize
from collections import Counter
from typing import Iterator, List, Set, Tuple

#: Token types that never make a line a code line.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_spans(tree: ast.AST) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """``((row, col), (end_row, end_col))`` of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            doc = body[0].value
            spans.append(
                ((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset))
            )
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    spans = _docstring_spans(ast.parse(source))

    def in_docstring(start: Tuple[int, int]) -> bool:
        return any(lo <= start < hi for lo, hi in spans)

    rows: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        if token.type == tokenize.STRING and in_docstring(token.start):
            continue
        rows.update(range(token.start[0], token.end[0] + 1))
    return len(rows)


def _modules(root: str) -> Iterator[Tuple[str, str]]:
    """``(package, path)`` for every ``.py`` file under ``root``."""
    for folder, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            parts = os.path.relpath(path, root).split(os.sep)
            package = ".".join(parts[:2]) if len(parts) > 2 else parts[0]
            if package.endswith(".py"):
                package = package[: -len(".py")]
            yield package, path


def count(roots: List[str]) -> Counter:
    """Code lines per package across ``roots``."""
    totals: Counter = Counter()
    for root in roots:
        for package, path in _modules(root):
            with open(path, encoding="utf-8") as handle:
                totals[package] += code_lines(handle.read())
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", default=["src"], help="source roots")
    args = parser.parse_args(argv)
    totals = count(args.roots)
    width = max((len(p) for p in totals), default=5)
    for package in sorted(totals):
        print(f"{package:<{width}}  {totals[package]:>7,}")
    print(f"{'total':<{width}}  {sum(totals.values()):>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
