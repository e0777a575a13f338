import pathlib
import runpy
import sys

ROOT = pathlib.Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden" / "reproduce_counts_quick.txt"


def _without_elapsed(out):
    # census rows are n, constraint, class_count, raw_count, elapsed_ms; the
    # simple-solution and conjugacy rows have three fields and no timing
    return "".join(line.rsplit("\t", 1)[0] + "\n" if line.count("\t") == 4 else line + "\n"
                   for line in out.splitlines())


def test_reproduce_counts_quick_set_matches_golden(capsys, monkeypatch):
    script = runpy.run_path(str(ROOT / "scripts" / "reproduce_counts.py"))
    monkeypatch.setattr(sys, "argv", ["reproduce_counts.py"])
    assert script["main"]() == 0
    assert _without_elapsed(capsys.readouterr().out) == GOLDEN.read_text()
