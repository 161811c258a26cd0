"""Every demo script runs to completion, and the documented examples print
what they say."""

import contextlib
import io
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cflr

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def _printed(code: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "<example>", "exec"), {})
    return out.getvalue()


def test_documented_quick_starts_print_their_pairs():
    """README's library quick start prints the pairs its comment gives, and
    the quick start in the package docstring, the same example, prints
    them too."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    want = re.search(r"^print\(.*#\s*(.+)$", block, re.MULTILINE).group(1) + "\n"
    assert want == "[(0, 4), (1, 3)]\n"
    assert _printed(block) == want
    assert _printed(textwrap.dedent(cflr.__doc__.split("Quick start::", 1)[1])) == want
