"""Front-end golden data: what `parse_program` makes of every catalog asset
and of seeded token-level mutants of them.

A mutant is an asset with 1-3 token edits: a token deleted, a token
inserted before another, a token replaced, or two tokens swapped. The
edits are stored with the data (token indices into the asset as this
module's own splitter cuts it), so the inputs do not depend on the
scanner under test. For each input the data holds either the
`RnlSyntaxError` message and span, or the pretty-printed program, a
digest of every IR node's span, the `validate` diagnostics and, for a
valid program, the pretty-printed inverse of each function.

    PYTHONPATH=src python tests/frontend_golden.py   # rewrites the .json

`tests/test_frontend_golden.py` checks the front end against the file.
"""

import hashlib
import json
import random
import re
from pathlib import Path

from revlang.errors import RnlSyntaxError
from revlang.ir import Program, validate
from revlang.parser import parse_program, pretty_print
from revlang.reverser import invert_function
from revlang.stdlib import CATALOG, asset_text

GOLDEN = Path(__file__).with_name("frontend_golden.json")
SEED = 20240811
MUTANTS = 500

# blanks and comments, then one token
_PIECE = re.compile(r"""((?:\s|\#[^\n]*)*)
    ( [^\W\d]\w*!* | [0-9.]+(?:[eE][+-]?[0-9]+)?[A-Za-z]* | ~?@\w+
    | <- | -> | [-+*/=!<>]= | && | \|\| | \|> | :: | \S )""", re.VERBOSE)

# tokens a mutant may insert besides those of the assets
_EXTRA = ["@bad", "$", "1e", "1e400fx", "2fx", "3im", "⊻", "٣",
          "xor=", "true", "else", "while", "@safe", "~", "|>", "::"]


def pieces(text):
    """`text` as [blank, token] pairs and the trailing blank."""
    out, pos = [], 0
    for m in _PIECE.finditer(text):
        out.append([m.group(1), m.group(2)])
        pos = m.end()
    return out, text[pos:]


def apply_edits(text, edits):
    toks, tail = pieces(text)
    for edit in edits:
        op, i = edit[0], edit[1]
        if op == "delete":
            toks[i][1] = ""
        elif op == "insert":
            toks[i][1] = edit[2] + " " + toks[i][1]
        elif op == "replace":
            toks[i][1] = edit[2]
        else:   # swap
            j = edit[2]
            toks[i][1], toks[j][1] = toks[j][1], toks[i][1]
    return "".join(a + b for a, b in toks) + tail


def assets():
    return sorted({filename for filename, _ in CATALOG.values()})


def make_mutants(seed=SEED, n=MUTANTS):
    rng = random.Random(seed)
    names = assets()
    vocab = sorted({t for f in names for _, t in pieces(asset_text(f))[0]})
    vocab += _EXTRA
    mutants = []
    for _ in range(n):
        filename = rng.choice(names)
        count = len(pieces(asset_text(filename))[0])
        at = rng.sample(range(count), rng.randint(1, 3))
        edits = []
        for i in at:
            op = rng.choice(["delete", "insert", "replace", "swap"])
            if op == "delete":
                edits.append([op, i])
            elif op == "swap":
                edits.append([op, i, rng.randrange(count)])
            else:
                edits.append([op, i, rng.choice(vocab)])
        mutants.append({"asset": filename, "edits": edits})
    return mutants


def _spans(node, out):
    """Every span below `node`, depth first, in field order."""
    if isinstance(node, tuple):
        for x in node:
            _spans(x, out)
        return
    fields = getattr(type(node), "__match_args__", None)
    if fields is None:
        return
    s = node.span
    out.append(f"{type(node).__name__}@{s.line}:{s.col}")
    for f in fields:
        if f != "span":
            _spans(getattr(node, f), out)


def outcome(text, filename):
    try:
        program = parse_program(text, filename)
    except RnlSyntaxError as err:
        s = err.span
        return {"error": err.message,
                "span": [s.file, s.line, s.col, s.end_line, s.end_col]}
    spans = []
    for fdef in program:
        _spans(fdef, spans)
    result = {"text": pretty_print(program),
              "spans": hashlib.sha256(" ".join(spans).encode()).hexdigest()}
    diags = validate(program)
    result["diagnostics"] = [str(d) for d in diags]
    if not diags:
        result["inverse"] = pretty_print(
            Program([invert_function(f) for f in program]))
    return result


def inputs(mutants):
    """(label, filename, text) of every asset and mutant."""
    for filename in assets():
        yield filename, filename, asset_text(filename)
    for k, m in enumerate(mutants):
        yield f"mutant {k}", m["asset"], apply_edits(asset_text(m["asset"]),
                                                     m["edits"])


def build():
    mutants = make_mutants()
    return {"seed": SEED, "mutants": mutants,
            "outcomes": [outcome(text, filename)
                         for _, filename, text in inputs(mutants)]}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(build(), indent=0, ensure_ascii=False,
                                 sort_keys=True) + "\n", encoding="utf-8")
