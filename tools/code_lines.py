"""Code lines of the library, as the project's line counts report them.

Run from the repository root:

    python3 tools/code_lines.py

It prints one line per module of ``src/multifilt`` and a total.  A code
line is a source line that holds part of a token other than a comment or a
docstring; blank lines, comment lines and docstring lines are not counted,
and a statement written over several lines counts each of them.  A
docstring is a string literal standing alone as a statement (a module,
class or function docstring, or any other bare string).
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "multifilt"

# tokens past comments and blank-line breaks that carry no code: layout and
# the end of the file
_SKIP = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
# tokens after which a string starts a statement of its own
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    previous = tokenize.NEWLINE
    for k, tok in enumerate(tokens):
        if tok.type not in _SKIP:
            docstring = (
                tok.type == tokenize.STRING
                and previous in _STATEMENT_START
                and tokens[k + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
            )
            if not docstring:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        previous = tok.type
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:<16} {n:>5}")
    print(f"{'total':<16} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
