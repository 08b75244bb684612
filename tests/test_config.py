"""The test configuration: its warning filters, and the pins that CI installs."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# a failing @given test and a passing test after it
PROBE = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_given_test_leaves_the_run_going(tmp_path):
    # where libcst is installed, hypothesis's explain phase raises a
    # DeprecationWarning from mypy_extensions, which filterwarnings =
    # ["error"] alone turns into an INTERNALERROR that ends the run
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in proc.stdout, out


def test_ci_installs_the_test_extra():
    # no tomllib on Python 3.10, so both files are read with a regex
    extra = re.search(r"^test = \[(.*)\]$", (ROOT / "pyproject.toml").read_text(), re.M)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    install = re.search(r"pip install (.+)$", workflow, re.M)
    pins = re.findall(r'"([^"]+)"', extra.group(1))
    assert pins and sorted(install.group(1).split()) == sorted(pins)
