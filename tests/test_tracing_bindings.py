"""The benchmark's tracer patches the library at named bindings; a rename
that drops one must fail here, not only in a minutes-long traced run."""
import sys
from pathlib import Path

import wzwcat.currents
from wzwcat.modular import ModularData

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing.Tracer()


def test_tracer_installs_and_uninstalls():
    original = wzwcat.currents.current_action
    tracer = _tracer()
    try:
        tracer.install()
        assert wzwcat.currents.current_action is not original
    finally:
        tracer.uninstall()
    assert wzwcat.currents.current_action is original


def test_smatrix_counts_weyl_terms_once():
    # one rho orbit per S-matrix, through the binding the tracer wraps:
    # the counter reads |W(B2)| = 8
    tracer = _tracer()
    try:
        tracer.install()
        ModularData("B", 2, 3).smatrix
    finally:
        tracer.uninstall()
    assert tracer.counts["modular.weyl_terms"] == 8
