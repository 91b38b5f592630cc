"""The front end reproduces its golden data (`frontend_golden.py`): the
catalog assets and seeded token-level mutants of them parse, print,
validate and invert as they did when the data was written."""

import json
from collections import Counter

import pytest

from frontend_golden import GOLDEN, inputs, outcome

DATA = json.loads(GOLDEN.read_text(encoding="utf-8"))
CASES = list(zip(inputs(DATA["mutants"]), DATA["outcomes"]))


def test_the_data_reaches_every_outcome():
    kinds = Counter("error" if "error" in want else
                    "invalid" if want["diagnostics"] else "valid"
                    for _, want in CASES)
    assert len(DATA["mutants"]) == 500
    assert kinds["error"] >= 400 and kinds["valid"] >= 25 \
        and kinds["invalid"] >= 5, kinds


@pytest.mark.parametrize("case", range(0, len(CASES), 50))
def test_front_end_matches_the_golden_data(case):
    for (label, filename, text), want in CASES[case:case + 50]:
        assert outcome(text, filename) == want, label
