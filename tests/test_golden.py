"""Every recorded CLI invocation on ``tests/data`` (see ``golden.py``) keeps
its exit code, stdout and stderr byte for byte."""

import json

import pytest

import golden

RECORD = json.loads(golden.RECORD.read_text(encoding="utf-8"))


def test_the_record_covers_every_case():
    assert set(RECORD) == {golden.key(argv) for argv in golden.cases()}


@pytest.mark.parametrize("command", sorted(RECORD))
def test_cli_output_matches_the_record(monkeypatch, command):
    monkeypatch.chdir(golden.DATA)
    assert golden.run(command.split(" ")) == RECORD[command]
