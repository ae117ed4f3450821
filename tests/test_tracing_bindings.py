"""The benchmark's tracer patches the library at named bindings; a rename
that drops one must fail here, not only in a minutes-long traced run."""
import sys
from pathlib import Path

import wzwcat.currents

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    original = wzwcat.currents.current_action
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert wzwcat.currents.current_action is not original
    finally:
        tracer.uninstall()
    assert wzwcat.currents.current_action is original
