"""``python -m repro.experiments --fast`` prints the same bytes as the
committed golden file, bar its final wall-time line. Every table and
figure of the paper goes through the simulator's virtual clock, so a
change that moves any of them shows up here."""

from pathlib import Path

from repro.experiments.__main__ import main

GOLDEN = Path(__file__).with_name("fast_golden.txt")


def test_fast_pass_matches_golden(capsys):
    assert main(["--fast"]) == 0
    out = capsys.readouterr().out
    body, last = out.rstrip("\n").rsplit("\n", 1)
    assert last.startswith("all artifacts regenerated in ")
    assert body + "\n" == GOLDEN.read_text()
