"""Every simulator example runs to completion.

Each script is a documented end-to-end drive of the library, so each
runs here in its own interpreter, from the repository root, as a reader
would run it.  The threaded ``spc_runtime_demo.py`` runs real worker
threads for several times longer than all of these together; CI's
``tests`` job runs it as a smoke step instead.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted(
    path.name for path in (ROOT / "examples").glob("*.py")
    if path.name != "spc_runtime_demo.py"
)


def test_every_example_is_listed():
    assert EXAMPLES == [
        "controller_playground.py",
        "fraud_detection_farm.py",
        "quickstart.py",
        "sensor_network_query.py",
        "video_analytics_pipeline.py",
    ]


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    run = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
