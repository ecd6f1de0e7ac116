import os
import re
import subprocess
import sys

import pytest

import fissile

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)


def _run_marked_under_optimize(*paths, cwd):
    """The exit code of one ``python -O -m pytest -m optimized`` run over
    paths, the ids of its passed tests, the ids of its failed and erroring
    tests, and its output."""
    src = os.path.dirname(os.path.dirname(fissile.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-rfEp", "-p", "no:cacheprovider",
         "-m", "optimized", *paths],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    passed = re.findall(r"^PASSED (.+)$", proc.stdout, re.M)
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return proc.returncode, passed, failed, proc.stdout + proc.stderr


@pytest.fixture(scope="session")
def run_marked_under_optimize():
    return _run_marked_under_optimize


@pytest.fixture(scope="session")
def optimized_run():
    """The one ``python -O`` run of every test of this suite marked
    ``optimized``, where assert statements are stripped; made on first use."""
    return _run_marked_under_optimize(TESTS, cwd=ROOT)


@pytest.fixture
def run_optimized(optimized_run):
    """Fail unless each given test (``path::name``, every parametrization of
    it) passed in the one ``python -O`` run and none of it failed there."""
    _rc, passed, failed, output = optimized_run

    def run(*test_ids):
        for test_id in test_ids:
            path, name = test_id.split("::")
            node = f"{os.path.relpath(path, ROOT)}::{name}"
            ran = [t for t in passed + failed if t == node or t.startswith(node + "[")]
            assert ran, f"{node} did not run under python -O\n{output}"
            assert set(ran) <= set(passed), f"failed under python -O: {sorted(set(ran) - set(passed))}"

    return run
