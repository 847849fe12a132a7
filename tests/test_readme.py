"""README's Quick start runs as printed."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The python block under README's "## Quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Quick start\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "Quick start has no python block"
    return match.group(1)


def test_quick_start_prints_two_rates():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), str(README), "exec"), {})
    rates = [float(x) for x in out.getvalue().split()]
    assert len(rates) == 2
    assert all(0.0 <= r <= 1.0 for r in rates)
