import os
import subprocess
import sys

import pytest

import fissile


@pytest.fixture
def run_optimized():
    """Run the given tests of this suite in a ``python -O`` subprocess, where
    assert statements are stripped, and fail unless they all pass."""

    def run(*test_ids):
        src = os.path.dirname(os.path.dirname(fissile.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *test_ids],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    return run
