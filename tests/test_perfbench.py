"""The benchmark under perfbench/ still runs against this source tree.

The traced benchmark wraps relalg functions by name, so a rename or a
deletion here would otherwise only show in a traced benchmark run.
"""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_selfcheck_passes():
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "selfcheck.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_tracer_wraps_every_named_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import spans

    from relalg import networks

    original = networks.coherent
    tracer = spans.Tracer()
    try:
        run.install(tracer)
        assert networks.coherent is not original
    finally:
        tracer.unpatch()
    assert networks.coherent is original
