"""The suite's own pytest settings."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pyproject.toml")


def run_pytest(tmp_path, name):
    """Run the test file tmp_path/name under the suite's settings."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", PYPROJECT, "--rootdir", str(tmp_path), name],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)


def test_failing_property_test_fails_without_internal_error(tmp_path):
    """A failing hypothesis test is reported as one failure. Printing its
    patch imports libcst, whose DeprecationWarning the warning filters
    must not turn into an INTERNALERROR that ends the session."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n")
    out = run_pytest(tmp_path, "test_fails.py")
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed" in out.stdout


def test_exception_in_a_thread_fails(tmp_path):
    """An exception that escapes a worker thread fails the test that
    started the thread, instead of passing with a warning."""
    (tmp_path / "test_thread.py").write_text(
        "import threading\n\n"
        "def test_thread_raises():\n"
        "    thread = threading.Thread(target=lambda: 1 / 0)\n"
        "    thread.start()\n"
        "    thread.join(timeout=60)\n")
    out = run_pytest(tmp_path, "test_thread.py")
    assert "1 failed" in out.stdout


def test_unclosed_file_fails(tmp_path):
    """A file a test opens and never closes fails that test: its
    ResourceWarning is raised when the file is collected, and reaches
    pytest as an unraisable exception."""
    (tmp_path / "data.txt").write_text("x\n")
    (tmp_path / "test_leak.py").write_text(
        "def test_leaks_a_file():\n"
        "    assert open('data.txt').read() == 'x\\n'\n")
    out = run_pytest(tmp_path, "test_leak.py")
    assert "1 failed" in out.stdout
