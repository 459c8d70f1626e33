"""The CLI output pins of cli_pins.json that tests/test_cli.py does not
run, run through cli.main in process, and the guards that keep every pin
in that one table."""

import re
from pathlib import Path

import cli_pins

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def test_every_other_pin_holds_in_process(capsys, tmp_path):
    named = list(cli_pins.enumerate_rows().values())
    for rows in cli_pins.group_rows().values():
        named += rows
    rows = [row for row in cli_pins.load_rows() if row not in named]
    assert cli_pins.check(cli_pins.in_process(capsys), tmp_path, rows) == []


def test_the_workflow_holds_no_digest():
    assert re.findall(r"[0-9a-fA-F]{64}", WORKFLOW.read_text(encoding="utf-8")) == []


def test_no_two_rows_share_a_command():
    # A command is its argv with the named inputs in it; a name is
    # saved once, so each name stands for one file.
    commands = [row["argv"] for row in cli_pins.load_rows()]
    saves = [row["save"] for row in cli_pins.load_rows() if "save" in row]
    assert len(set(commands)) == len(commands)
    assert len(set(saves)) == len(saves)
