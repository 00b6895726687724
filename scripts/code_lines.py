"""Count the code lines of a Python package: a line counts if it holds a
code token (not a comment) and lies outside every module, class and
function docstring.  Blank lines, comment lines and docstrings are left out.

    python scripts/code_lines.py [DIR]

DIR defaults to src/boxkb.  Prints one JSON line: the directory, the total,
and the count of each module, keyed by its path relative to DIR.
"""
from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's ``source``."""
    lines = {line
             for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type not in _NOT_CODE
             for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", nargs="?", default=str(ROOT / "src" / "boxkb"))
    root = Path(parser.parse_args().dir)
    modules = {str(path.relative_to(root)): code_lines(path.read_text(encoding="utf-8"))
               for path in sorted(root.rglob("*.py"))}
    print(json.dumps({"dir": str(root), "total": sum(modules.values()),
                      "modules": modules}))


if __name__ == "__main__":
    main()
