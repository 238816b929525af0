"""Print the size of the crossflips library, module by module.

For each module of ``src/crossflips`` it prints the ``wc -l`` line count
and the number of code lines by ``tokenize``: lines holding a token that
is neither a comment, a blank line nor a docstring (a string standing
alone as a statement).  The totals come last.  It reports only; no count
is a threshold.

    python tools/library_size.py [PACKAGE_DIR]
"""

from __future__ import annotations

import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: pathlib.Path) -> int:
    """The number of lines of *path* that hold code."""
    lines, statement = set(), []  # statement: the code tokens of a logical line
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NEWLINE:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _LAYOUT:
                statement.append(tok)
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(args[0]) if args else pathlib.Path(__file__).parents[1] / "src" / "crossflips"
    total_wc = total_code = 0
    print("%-16s %6s %6s" % ("module", "wc -l", "code"))
    for path in sorted(root.glob("*.py")):
        wc = len(path.read_bytes().splitlines())
        code = code_lines(path)
        total_wc += wc
        total_code += code
        print("%-16s %6d %6d" % (path.name, wc, code))
    print("%-16s %6d %6d" % ("total", total_wc, total_code))
    return 0


if __name__ == "__main__":
    sys.exit(main())
