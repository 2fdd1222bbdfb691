"""The examples stay runnable: each demo script and the README quick-start.

Each runs in this process with its stdout captured and must finish and
print its headline line, so a changed signature that an example calls
fails here rather than in a reader's hands.
"""

import re
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# The line each demo must print, as a regular expression.
HEADLINES = {
    "run_benchmark1.py": r"regionally discovered 3 of 3; false flags \d+ \(\d+ near the source\)",
    "subsampling_sweep.py": r"full sampling: 3 of 3 defects regionally discovered",
    "wavenumber_view.py": r"bench1_ci: final snapshot 129x129",
}


@pytest.mark.parametrize("script", sorted(HEADLINES))
def test_demo_runs_to_its_headline(script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(str(ROOT / "demos" / script), run_name="__main__")
    out = capsys.readouterr().out
    assert re.search(HEADLINES[script], out), out


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "__main__"})
    # the flagged regions of bench1_ci, printed as a sorted list of pairs
    assert re.fullmatch(r"\[\(\d+, \d+\)(, \(\d+, \d+\))*\]\n", capsys.readouterr().out)
