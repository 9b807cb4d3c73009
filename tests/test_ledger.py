"""The fast-path ledger, scripts/ablate.py, switches each fast path off by
one exact source edit; each row's `old` text must occur exactly once in its
file, so a source edit that strands a row fails here and not in a ledger
run."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from ablate import ROWS  # noqa: E402


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_ledger_row_applies_once(row):
    name, file, old, _new = row
    assert (ROOT / "src" / "sharpwt" / file).read_text().count(old) == 1, name
