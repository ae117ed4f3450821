"""The benchmark's tracer patches the library at named bindings; a rename
that drops one must fail here, not only in a minutes-long traced run."""
import sys
from pathlib import Path

import pytest

import wzwcat.cli
import wzwcat.currents
from wzwcat.localmods import LocalCategoryData
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


def test_fold_route_counts_rows_and_folds():
    # each of the 55 rows of B2 k3 (10 simples) is one fuse_weights call, and
    # the folds run inside it, where the tracer counts them as fold terms
    tracer = _tracer()
    try:
        tracer.install()
        table = list(ModularData("B", 2, 3).fusion.triples())
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert len({(i, j) for i, j, _, _ in table}) == 55
    assert metrics["fusion.rows"] == 55
    assert metrics["fusion.fold_terms"] > 0
    assert metrics["alcove.fold_calls"] > 0


def test_every_row_read_is_one_fold_span():
    # the tensor keeps no rows: the 55 rows of triples() and the 10 x 10 rows
    # of the ten matrices are each one fuse_weights call
    tracer = _tracer()
    try:
        tracer.install()
        ft = ModularData("B", 2, 3).fusion
        list(ft.triples())
        for i in range(ft.alcove.rank):
            ft.matrix(i)
    finally:
        tracer.uninstall()
    assert ft.alcove.rank == 10
    assert tracer.metrics()["fusion.rows"] == 55 + 100


def test_local_census_builds_no_smatrix():
    # the four currents of A3 level 4 act by affine Dynkin diagram
    # automorphisms: no Weyl sum, no Verlinde matrix, no fusion row
    tracer = _tracer()
    try:
        tracer.install()
        LocalCategoryData(ModularData("A", 3, 4))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["currents.current_action_calls"] == 4
    assert metrics["modular.weyl_terms"] == 0
    assert metrics["modular.verlinde_matrix_calls"] == 0
    assert metrics["fusion.rows"] == 0


@pytest.mark.parametrize("argv, checks", [
    (["verify", "thm1", "--range", "C"], 2),    # sp6 and sp8 at level 3
    (["verify", "witt", "--range", "emb"], 1),
])
def test_verify_counts_each_selected_check(argv, checks, capsys):
    # the tracer wraps the checks that cli._thm1_checks and cli._witt_checks
    # return; each selected check that runs is one span
    tracer = _tracer()
    try:
        tracer.install()
        assert wzwcat.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.metrics()["verifier.checks"] == checks


def test_each_verify_run_wraps_fresh_checks(capsys):
    # cmd_verify calls through cli._thm1_checks, and each call returns new
    # check dicts: a second run under the same tracer is two more spans, not
    # two spans wrapped twice
    tracer = _tracer()
    try:
        tracer.install()
        for _ in range(2):
            assert wzwcat.cli.main(["verify", "thm1", "--range", "C"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.metrics()["verifier.checks"] == 4
