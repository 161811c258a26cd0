"""The suite's own pytest settings keep a failing property test readable."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_test_reports_its_example_and_the_run_goes_on(tmp_path):
    """A failing ``@given`` test is reported as a failure with its
    falsifying example, and the tests after it still run: the warnings
    filter turns no warning raised while hypothesis writes its report
    into an internal error."""
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
        "\n"
        "def test_passes():\n"
        "    pass\n"
    )
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(CONFIG), "--rootdir", str(tmp_path), str(tmp_path / "test_probe.py"),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out and "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out
