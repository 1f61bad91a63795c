import json
from pathlib import Path

import golden_cli
import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = json.loads(golden_cli.GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("SUTOR_COLOR", "0")


def test_golden_file_covers_every_command(at_root):
    assert [r["argv"] for r in RECORDS] == golden_cli.commands()


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: " ".join(r["argv"]))
def test_cli_output_is_golden(record, at_root):
    assert golden_cli.run(record["argv"]) == record
