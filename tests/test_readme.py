"""The README's library quick start runs and prints what the README says.

Each print line of the quick start carries the output it states as a
trailing comment; a comment ending in "..." states a prefix.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_prints_what_it_states():
    code = _quick_start()
    stated = re.findall(r"^print\(.*\)[ \t]+# (.+)$", code, re.M)
    assert stated == ["(1+0j)", "0.7352..."]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(stated)
    for got, want in zip(printed, stated):
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, want)
        else:
            assert got == want
