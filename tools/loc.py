"""Print the code, docstring-or-comment and blank lines of each src/carl/*.py file, and their totals.

Run from the root of the repository: ``python3 tools/loc.py``. A line holding
any token but a comment or a docstring is code, even with a comment after it.
"""

import glob
import tokenize

LAYOUT = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(path):
    with open(path, "rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type != tokenize.NL]
    code, doc = set(), set()
    for prev, tok, nxt in zip(tokens, tokens[1:], tokens[2:]):
        # a docstring is a string standing as a statement of its own
        docstring = tok.type == tokenize.STRING and prev.type in LAYOUT and nxt.type in (tokenize.NEWLINE, tokenize.COMMENT)
        if tok.type not in LAYOUT:
            (doc if docstring or tok.type == tokenize.COMMENT else code).update(range(tok.start[0], tok.end[0] + 1))
    total = tokens[-1].start[0] - 1  # the end marker sits on the line after the last
    return len(code), len(doc - code), total - len(code | doc)


rows = [(path, *count(path)) for path in sorted(glob.glob("src/carl/*.py"))]
rows.append(("total", *(sum(r[k] for r in rows) for k in (1, 2, 3))))
print(f"{'code':>6} {'doc':>6} {'blank':>6}  file")
for path, *counts in rows:
    print(*(f"{n:6d}" for n in counts), "", path)
