"""Count the code lines of the ``vo_authz`` package.

A code line is a source line that holds at least one code token.
Blank lines, comments and docstrings (a statement that is only a
string literal) do not count. Prints each module's count and the
total.

Usage: python tools/count_code_lines.py [package-directory]
"""

from __future__ import annotations

import glob
import os
import sys
import tokenize

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "vo_authz")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    """The number of lines in ``path`` that hold a code token."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with open(path, "rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type == tokenize.ENCODING:
                continue
            if token.type not in _LAYOUT:
                statement.append(token)
            elif token.type == tokenize.NEWLINE and statement:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    package = argv[1] if len(argv) > 1 else PACKAGE
    counts = {
        os.path.basename(path)[:-3]: code_lines(path)
        for path in sorted(glob.glob(os.path.join(package, "*.py")))
    }
    for module, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print("%-12s %5d" % (module, count))
    print("%-12s %5d" % ("total", sum(counts.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
