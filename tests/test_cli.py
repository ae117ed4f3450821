import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wzwcat import alcove, cli, wittlab
from wzwcat.fusion import FusionTensor
from wzwcat.localmods import LocalCategoryData
from wzwcat.modular import ModularData

# child processes import this checkout's package, installed or not
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(cli.__file__).resolve().parents[1]),
    os.environ.get("PYTHONPATH")])))


def test_data_table(capsys):
    assert cli.main(["data", "B", "2", "4"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("C(B2,4): 15 simple objects")
    rows = [ln for ln in lines if ln and ln.lstrip()[0].isdigit()]
    assert len(rows) == 15
    assert any(ln.startswith("pointed:") for ln in lines)


def test_data_minimal_alcove(capsys):
    assert cli.main(["data", "A", "1", "1"]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines() if ln and ln.lstrip()[0].isdigit()]
    assert len(rows) == 2


def test_data_json_roundtrip(capsys):
    assert cli.main(["data", "A", "3", "4", "--format", "json"]) == 0
    text = capsys.readouterr().out
    bundle = cli.bundle_from_json(text)
    assert bundle["g"] == ("A", 3)
    assert bundle["k"] == 4
    assert len(bundle["labels"]) == 35
    assert len(bundle["fusion"]) == 2044
    # serialization is lossless and byte-stable
    assert cli.bundle_to_json(bundle) == text.strip()
    direct = cli.build_bundle(ModularData("A", 3, 4))
    assert cli.bundle_to_json(direct) == text.strip()


def _reference_data_json(md, local=None):
    # the bundle as first built and written: S as tuples of complex, and
    # every table copied into lists before json.dumps
    fusion = (tuple(md.fusion.triples()) if md.rank <= cli.FUSION_RANK_CAP
              else None)
    loc = local.census() if local is not None else None
    if loc is not None:
        loc = dict(loc)
        loc["global_dim"] = cli._fmt(loc["global_dim"])
        loc["closure_residual"] = cli._fmt(loc["closure_residual"])
        loc["simples"] = [dict(s, qdim=cli._fmt(s["qdim"]))
                          for s in loc["simples"]]
    smatrix = tuple(tuple(complex(z) for z in row) for row in md.smatrix)
    payload = {
        "schema_version": cli.SCHEMA_VERSION,
        "g": [md.rs.series, md.rs.rank],
        "k": md.k,
        "labels": [list(w) for w in md.weights],
        "dims": [cli._fmt(float(d)) for d in md.qdims],
        "twists": [[a.t.numerator, a.t.denominator] for a in md.twists],
        "smatrix": [[[cli._fmt(z.real), cli._fmt(z.imag)] for z in row]
                    for row in smatrix],
        "fusion": None if fusion is None else [list(t) for t in fusion],
        "local": loc,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("g", ["A 3 4", "C 3 4", "D 4 4", "G 2 10",
                               "A 3 8", "B 2 10", "A 1 50"])
def test_data_json_matches_the_list_copying_reference(g, capsys):
    series, rank, k = g.split()
    assert cli.main(["data", series, rank, k, "--format", "json"]) == 0
    md = ModularData(series, int(rank), int(k))
    assert capsys.readouterr().out == _reference_data_json(md) + "\n"


def test_local_json_matches_the_list_copying_reference(capsys):
    assert cli.main(["local", "A", "3", "4", "--format", "json"]) == 0
    md = ModularData("A", 3, 4)
    expected = _reference_data_json(md, local=LocalCategoryData(md))
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("g", ["B 2 6", "E 8 2"])
def test_fusion_json_matches_the_list_copying_reference(g, capsys):
    series, rank, k = g[0], int(g[2]), int(g[4])
    assert cli.main(["fusion", *g.split(), "--format", "json"]) == 0
    md = ModularData(series, rank, k)
    expected = json.dumps(
        {"g": [series, rank], "k": k,
         "labels": [list(w) for w in md.weights],
         "fusion": [list(t) for t in md.fusion.triples()]},
        sort_keys=True, separators=(",", ":"))
    assert capsys.readouterr().out == expected + "\n"


def test_bundle_smatrix_round_trips_bit_for_bit():
    bundle = cli.build_bundle(ModularData("A", 3, 4))
    built = bundle["smatrix"]
    read = cli.bundle_from_json(cli.bundle_to_json(bundle))["smatrix"]
    # S of A3 k4 has negative zeros; a product of the pairs with [1, 1j]
    # would turn them into +0.0
    parts = built.view(np.float64)
    assert ((parts == 0) & np.signbit(parts)).any()
    assert read.dtype == built.dtype and read.shape == built.shape
    assert (read.view(np.int64) == built.view(np.int64)).all()


def test_out_of_memory_exits_capacity_in_one_line(monkeypatch, capsys):
    def exhausted(md, local=None):
        raise MemoryError

    monkeypatch.setattr(cli, "build_bundle", exhausted)
    assert cli.main(["data", "A", "1", "2", "--format", "json"]) == \
        cli.EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("out of memory")


def test_fusion_json_fits_300_mib_of_address_space():
    # the 926 513 triples of A3 level 10 are written as the tensor yields
    # them, with no per-entry list copies; BLAS threads are pinned so that
    # the interpreter's own reservation does not grow with the core count
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))

    env = dict(CHILD_ENV, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "wzwcat.cli", "fusion",
                           "A", "3", "10", "--format", "json"],
                          capture_output=True, text=True, env=env,
                          preexec_fn=limit_memory)
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout.startswith('{"fusion":[[0,0,0,1],')


def test_rank_past_the_root_table_cap_exits_at_once():
    # A2000 would hold 2 001 000 positive roots of 2000 labels; the
    # closed-form count refuses it before any root is built
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))

    env = dict(CHILD_ENV, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "wzwcat.cli", "data",
                           "A", "2000", "1"],
                          capture_output=True, text=True, env=env,
                          preexec_fn=limit_memory)
    assert time.perf_counter() - start < 2
    assert proc.returncode == cli.EXIT_CAPACITY, proc.stderr[-300:]
    assert proc.stderr.startswith("capacity exceeded: A2000")
    assert len(proc.stderr.splitlines()) == 1


def test_fusion_table(capsys):
    assert cli.main(["fusion", "A", "1", "2"]) == 0
    out = capsys.readouterr().out
    # ising: seven upper-triangle structure constants
    rows = [ln for ln in out.splitlines() if ln.startswith("(")]
    assert len(rows) == 7
    assert "(1) * (1) -> (2)  x1" in rows


def test_local_command(capsys):
    assert cli.main(["local", "A", "3", "4"]) == 0
    out = capsys.readouterr().out
    assert "rank 14" in out
    assert "structure Z2" in out
    assert "adjoint rank 8" in out


def test_local_no_subgroup_exit():
    assert cli.main(["local", "B", "2", "3"]) == cli.EXIT_NO_SUBGROUP


def test_explicit_subgroup(capsys):
    code = cli.main(["local", "A", "1", "4", "--subgroup", "4"])
    assert code == 0
    assert "rank 3" in capsys.readouterr().out
    # a non-Tannakian choice is a usage error
    assert cli.main(["local", "A", "1", "2", "--subgroup", "2"]) == cli.EXIT_USAGE
    # a label that is no integer is one too, and the message names the option
    capsys.readouterr()
    assert cli.main(["local", "A", "3", "4", "--subgroup", "x"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "bad --subgroup 'x' (want auto or labels like '0,4,0;0,0,0')\n")


def test_capacity_gate(monkeypatch):
    # A2 level 100 has 5151 simples
    monkeypatch.setattr(alcove, "ALCOVE_CAP", 1000)
    code = cli.main(["data", "A", "2", "100"])
    assert code == cli.EXIT_CAPACITY


@pytest.mark.parametrize("argv", [
    "data A 1 20",
    "fusion A 1 20",
    "local A 1 20",
    "fingerprint A 1 20",
    "fingerprint A 1 1 --vs A:1:20",   # the target too
])
def test_every_command_obeys_the_alcove_cap(argv, monkeypatch, capsys):
    # A1 level 20 has 21 simples, over a cap of 10; refused before any
    # fingerprint, the --vs target's too
    def refuse(data):
        raise AssertionError("fingerprint built before the refusal")
    monkeypatch.setattr(alcove, "ALCOVE_CAP", 10)
    monkeypatch.setattr(wittlab, "fingerprint", refuse)
    assert cli.main(argv.split()) == cli.EXIT_CAPACITY
    assert "21 weights, over the cap 10" in capsys.readouterr().err


def test_oversized_smatrix_exits_capacity(capsys):
    # A7 level 8 has 6435 simples, under the alcove cap, but its S-matrix
    # sums 40320 * 6435 * 6436 / 2 Weyl terms; refused before any of it
    t0 = time.perf_counter()
    assert cli.main(["data", "A", "7", "8", "--format", "json"]) \
        == cli.EXIT_CAPACITY
    assert time.perf_counter() - t0 < 10
    assert "capacity exceeded" in capsys.readouterr().err


def test_smatrix_over_weyl_group_cap_exits_capacity(capsys):
    # A100 level 1 has 101 simples, but |W| = 101! is over WEYL_GROUP_CAP;
    # refused before any current action is built
    t0 = time.perf_counter()
    assert cli.main(["data", "A", "100", "1", "--format", "json"]) \
        == cli.EXIT_CAPACITY
    assert time.perf_counter() - t0 < 10
    assert "capacity exceeded" in capsys.readouterr().err


def test_local_census_at_large_rank_walks_only_generators():
    # A100 level 1: 101 currents, Z101 with every nontrivial twist != 1;
    # one Levi walk besides w0 builds every action
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "wzwcat.cli",
                           "local", "A", "100", "1"],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert time.perf_counter() - t0 < 5
    assert proc.returncode == cli.EXIT_NO_SUBGROUP
    assert "no nontrivial Tannakian subgroup" in proc.stderr


def test_refused_smatrix_builds_no_fusion(monkeypatch, capsys):
    # A12 level 1 has 13 simples, under FUSION_RANK_CAP, and |W| = 13! over
    # WEYL_GROUP_CAP: the bundle is refused before its fusion table is built
    def refuse(self):
        raise AssertionError("fusion built for a refused bundle")
    monkeypatch.setattr(FusionTensor, "triples", refuse)
    assert cli.main(["data", "A", "12", "1", "--format", "json"]) \
        == cli.EXIT_CAPACITY
    assert "capacity exceeded" in capsys.readouterr().err


def test_smatrix_over_the_text_cap_is_refused_before_it_is_built(
        monkeypatch, capsys):
    # A3 level 40 has 12341 simples, within every other cap; its S text
    # would be about 7.6 GB
    def refuse(self):
        raise AssertionError("S built for a refused bundle")
    monkeypatch.setattr(ModularData, "smatrix", property(refuse))
    assert cli.main(["data", "A", "3", "40", "--format", "json"]) \
        == cli.EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err.startswith("capacity exceeded: S of 12341 simples")
    assert err.count("\n") == 1


def test_local_census_past_int64_codes_is_exact():
    # the mixed-radix codes of A41 level 2 pass int64; as floats they
    # merged, and a current's action failed its bijection check
    assert cli.main(["local", "A", "41", "2"]) == cli.EXIT_NO_SUBGROUP


def test_local_census_needs_no_smatrix(capsys):
    # the currents of A7 level 8 are J^m = 8 omega_m, of order N = 8, with
    # h_{J^m} = k m (N - m) / (2N); the largest subgroup with every h
    # integral is the Tannakian one
    k, n = 8, 8
    h = {m: Fraction(k * m * (n - m), 2 * n) for m in range(n)}
    order = max(n // d for d in range(1, n + 1) if n % d == 0
                and all(h[m].denominator == 1 for m in range(0, n, d)))
    assert order == 4
    assert cli.main(["local", "A", "7", "8"]) == cli.EXIT_OK
    assert f"(order {order})" in capsys.readouterr().out


def test_e8_level2_current_is_not_tannakian():
    # the one current of E8 level 2 has h = 3/2 (the Ising fermion), so
    # no nontrivial subgroup has every twist 1
    h = Fraction(3, 2)
    want = cli.EXIT_OK if h.denominator == 1 else cli.EXIT_NO_SUBGROUP
    assert cli.main(["local", "E", "8", "2"]) == want


def test_internal_check_failure_exits_one_line():
    # a fold that may take no step fails its termination check inside the
    # fold route; the CLI reports it in one line, without a traceback
    code = ("import sys, wzwcat.alcove, wzwcat.cli; "
            "wzwcat.alcove._FOLD_ITER_CAP = 0; "
            "sys.exit(wzwcat.cli.main(['fusion', 'B', '2', '3']))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == cli.EXIT_CHECK
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "fold did not terminate" in proc.stderr


@pytest.mark.parametrize("argv,code", [
    ("data A 1 -1", cli.EXIT_USAGE),                     # negative level
    ("local A 1 -2", cli.EXIT_USAGE),
    ("data A 1 0", cli.EXIT_USAGE),                      # level 0
    ("data E 5 1", cli.EXIT_USAGE),                      # unsupported rank
    ("data G 2 3 --max-alcove 5", cli.EXIT_USAGE),       # no such option
    ("verify thm1 --range A:k<", cli.EXIT_USAGE),
    ("local A 3 4 --subgroup 9,9,9", cli.EXIT_USAGE),
    ("local A 3 4 --subgroup x", cli.EXIT_USAGE),
    ("fingerprint A 1 2 --vs A:1", cli.EXIT_USAGE),
    ("data A 1 1000000000", cli.EXIT_CAPACITY),          # level near 1e9
    ("fingerprint A 1 1 --vs A:1:1000000000", cli.EXIT_CAPACITY),
    ("fingerprint D 4 4 --format json", cli.EXIT_USAGE),  # no such options
    ("local A 3 4 --cache-dir X", cli.EXIT_USAGE),
    ("fusion A 1 2 --cache-dir X", cli.EXIT_USAGE),
])
def test_malformed_input_exits_in_one_line(argv, code):
    # 1 GiB of address space: a gate that lists the level would need ~8 GB
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "wzwcat.cli", *argv.split()],
                          capture_output=True, text=True, env=CHILD_ENV,
                          preexec_fn=limit_memory)
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.endswith("\n")
    assert "Traceback" not in proc.stderr


def test_malformed_vs_is_refused_before_any_work(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "ModularData", lambda *args: built.append(args))
    argv = ["fingerprint", "A", "3", "12", "--vs", "junk"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert built == []
    assert "bad --vs spec 'junk'" in capsys.readouterr().err


def test_unwritable_out_is_refused_before_any_work(tmp_path, monkeypatch,
                                                  capsys):
    built = []
    monkeypatch.setattr(cli, "ModularData", lambda *args: built.append(args))
    missing = str(tmp_path / "missing" / "x")
    for argv in (["fingerprint", "A", "3", "12", "--out", missing],
                 ["data", "A", "3", "12", "--format", "json", "--out", missing],
                 ["local", "A", "3", "12", "--out", missing],
                 ["fusion", "A", "3", "12", "--out", str(tmp_path)]):
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "--out" in err
    assert built == []


def test_out_file_is_kept_when_the_command_fails(tmp_path):
    # C(A1,1) has no nontrivial Tannakian subgroup (h = 1/4), which is
    # found after the --out check: the file is not truncated before that
    out = tmp_path / "x"
    out.write_text("kept")
    assert cli.main(["local", "A", "1", "1", "--out", str(out)]) == \
        cli.EXIT_NO_SUBGROUP
    assert out.read_text() == "kept"


def test_unwritable_outputs_exit_usage_in_one_line(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    missing = str(tmp_path / "missing" / "out.txt")
    for argv in (["data", "A", "1", "2", "--out", missing],
                 ["verify", "witt", "--range", "emb", "--out", missing],
                 ["data", "A", "1", "2", "--format", "json",
                  "--cache-dir", str(not_a_dir)],
                 ["data", "A", "1", "2", "--format", "json",
                  "--cache-dir", str(not_a_dir / "sub")]):
        assert cli.main(argv) == cli.EXIT_USAGE
        assert len(capsys.readouterr().err.splitlines()) == 1
    assert not_a_dir.read_text() == ""


@pytest.mark.parametrize("no_fd1", [False, True])
def test_closed_stdout_exits_quietly(no_fd1):
    # the pipe's reading end is closed before the command starts, so its
    # first write to stdout fails with EPIPE; with no fd 1 at all, Python
    # starts with sys.stdout None
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "wzwcat.cli",
                               "local", "A", "3", "4"],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=CHILD_ENV,
                              preexec_fn=(lambda: os.close(1)) if no_fd1
                              else None)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_OK
    assert proc.stderr == ""


def test_readme_documents_exactly_the_accepted_options():
    # each subcommand's options are the flags of its lines in the fenced
    # synopsis under "## CLI", and no others
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    synopsis = {}
    for line in section.split("```")[1].strip().splitlines():
        if line.startswith("wzwcat "):
            name = line.split()[1]
            synopsis[name] = line
        else:
            synopsis[name] += line
    (commands,) = [a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(synopsis) == set(commands.choices)
    for name, sub in commands.choices.items():
        accepted = {opt for a in sub._actions
                    if not isinstance(a, argparse._HelpAction)
                    for opt in a.option_strings}
        documented = set(re.findall(r"--[a-z][a-z-]*", synopsis[name]))
        assert accepted == documented, name


def test_usage_errors():
    assert cli.main(["data", "Q", "2", "4"]) == cli.EXIT_USAGE
    assert cli.main(["data", "B", "0", "4"]) == cli.EXIT_USAGE


def test_cache_reuse(tmp_path, capsys, monkeypatch):
    args = ["data", "B", "2", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    cached = list(tmp_path.glob("B2-k2*"))
    assert [p.name for p in cached] == ["B2-k2.json"]
    assert cli.main(args) == 0
    assert capsys.readouterr().out == first
    # same via environment variable
    env_dir = tmp_path / "env"
    monkeypatch.setenv(cli.CACHE_ENV, str(env_dir))
    assert cli.main(["data", "B", "2", "2", "--format", "json"]) == 0
    assert capsys.readouterr().out == first
    assert [p.name for p in env_dir.iterdir()] == ["B2-k2.json"]


def test_data_json_serialises_each_bundle_once(tmp_path, capsys,
                                               monkeypatch):
    # a miss serialises the fresh bundle once, for the cache file and stdout
    # alike; a hit emits the stored text without serialising again
    args = ["data", "B", "2", "2", "--format", "json"]
    assert cli.main(args) == 0
    uncached = capsys.readouterr().out
    calls = []
    to_json = cli.bundle_to_json
    monkeypatch.setattr(cli, "bundle_to_json",
                        lambda bundle: calls.append(1) or to_json(bundle))
    args += ["--cache-dir", str(tmp_path)]
    assert cli.main(args) == 0
    assert capsys.readouterr().out == uncached
    assert len(calls) == 1
    assert cli.main(args) == 0
    assert capsys.readouterr().out == uncached
    assert len(calls) == 1


def test_leftover_temporary_cache_entry_is_replaced(tmp_path, capsys):
    # a run killed while writing leaves its temporary entry behind; a later
    # run with the same pid writes over it
    args = ["data", "B", "2", "3", "--format", "json"]
    assert cli.main(args) == 0
    uncached = capsys.readouterr().out
    (tmp_path / f"B2-k3.json.{os.getpid()}.tmp").write_text("partial")
    args += ["--cache-dir", str(tmp_path)]
    assert cli.main(args) == 0
    assert capsys.readouterr().out == uncached
    assert [p.name for p in tmp_path.iterdir()] == ["B2-k3.json"]
    assert cli.load_or_build_bundle("B", 2, 3, tmp_path) == (
        uncached.rstrip("\n").encode(), True)


def test_cache_hit_reaches_every_output_alike(tmp_path, capsys):
    # a hit is bytes: written undecoded to a byte stdout, decoded for a
    # text-only stdout and for --out, with the same text in each
    args = ["data", "B", "2", "3", "--format", "json"]
    assert cli.main(args) == 0
    uncached = capsys.readouterr().out
    args += ["--cache-dir", str(tmp_path)]
    assert cli.main(args) == 0
    assert capsys.readouterr().out == uncached
    assert cli.main(args) == 0
    assert capsys.readouterr().out == uncached
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert cli.main(args) == 0
    assert text.getvalue() == uncached
    out = tmp_path / "out.json"
    assert cli.main(args + ["--out", str(out)]) == 0
    assert out.read_text() == uncached


def test_corrupt_cache_entry_is_rebuilt(tmp_path, capsys):
    args = ["data", "B", "2", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    (cached,) = tmp_path.glob("B2-k2*")
    whole = cached.read_text()
    cached.write_text(whole[: len(whole) // 2])
    assert cli.main(args) == 0
    assert capsys.readouterr().out == first
    assert cached.read_text() == whole


def test_cache_entry_changed_in_one_digit_is_rebuilt(tmp_path, capsys):
    # the changed entry still decodes as a bundle of the same length
    args = ["data", "B", "2", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    (cached,) = tmp_path.glob("B2-k2*")
    whole = cached.read_text()
    at = whole.index('"smatrix":[[["') + 14
    digit = "1" if whole[at] == "0" else "0"
    cached.write_text(whole[:at] + digit + whole[at + 1:])
    assert cli.main(args) == 0
    assert capsys.readouterr().out == first
    assert cached.read_text() == whole


def test_cache_entry_without_digest_is_rewritten(tmp_path, capsys,
                                                 monkeypatch):
    # an entry of the text alone, with no digest line, is a miss
    args = ["data", "B", "2", "2", "--format", "json"]
    assert cli.main(args) == 0
    text = capsys.readouterr().out
    args += ["--cache-dir", str(tmp_path)]
    (tmp_path / "B2-k2.json").write_text(text.strip())
    calls = []
    to_json = cli.bundle_to_json
    monkeypatch.setattr(cli, "bundle_to_json",
                        lambda bundle: calls.append(1) or to_json(bundle))
    assert cli.main(args) == 0
    assert capsys.readouterr().out == text
    assert len(calls) == 1
    (cached,) = tmp_path.glob("B2-k2*")
    head, text_line = cached.read_text().split("\n")
    assert text_line == text.strip()
    assert head == (f"{cli._code_version()} "
                    f"{hashlib.sha256(text_line.encode()).hexdigest()}")


def test_cache_entry_of_other_sources_is_replaced(tmp_path, capsys,
                                                  monkeypatch):
    # the source hash is on the entry's first line, not in its name: an
    # entry of other sources is a miss, and its rewrite replaces it
    args = ["data", "B", "2", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    calls = []
    to_json = cli.bundle_to_json
    monkeypatch.setattr(cli, "bundle_to_json",
                        lambda bundle: calls.append(1) or to_json(bundle))
    outs = []
    for version in ("0123456789ab", "ba9876543210"):
        monkeypatch.setattr(cli, "_code_version", lambda: version)
        assert cli.main(args) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert len(calls) == 2
    (cached,) = tmp_path.iterdir()
    assert cached.read_text().startswith("ba9876543210 ")


def test_cache_entry_takes_the_umask_mode(tmp_path, capsys):
    # readable by the other users of a shared cache directory
    args = ["data", "B", "2", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    old = os.umask(0o022)
    try:
        assert cli.main(args) == 0
    finally:
        os.umask(old)
    (cached,) = tmp_path.iterdir()
    assert cached.stat().st_mode & 0o777 == 0o666 & ~0o022


def test_cache_hit_decodes_no_json(tmp_path, capsys, monkeypatch):
    args = ["data", "B", "2", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    assert cli.main(args) == 0
    first = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("a cache hit decoded its entry")
    monkeypatch.setattr(json, "loads", refuse)
    monkeypatch.setattr(cli, "bundle_from_json", refuse)
    assert cli.main(args) == 0
    assert capsys.readouterr().out == first


def test_verify_witt(capsys):
    assert cli.main(["verify", "witt"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_verify_thm1(capsys):
    assert cli.main(["verify", "thm1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 32
    assert "FAIL" not in out


def test_verify_range_and_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert cli.main(["verify", "thm1", "--range", "E6",
                     "--out", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["suite"] == "thm1"
    assert all(c["passed"] for c in data["results"])
    names = {c["name"] for c in data["results"]}
    assert any("123" in n for n in names)
    # level filter prunes everything below the cutoff
    assert cli.main(["verify", "thm1", "--range", "E6:k<60"]) == 0
    out = capsys.readouterr().out
    assert "0 checks" in out.splitlines()[-1]


@pytest.mark.parametrize("argv, families", [
    ("verify witt --range so7", "so5, g2, emb"),
    ("verify thm1 --range so5", "A, B, C, D, E6, E7"),
])
def test_verify_range_family_outside_the_suite_is_refused(argv, families,
                                                          capsys):
    # a typo or another suite's family selects nothing: a usage error in
    # one line that lists the suite's families, not "0 checks" and exit 0
    assert cli.main(argv.split()) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and f"(families: {families})" in err


def test_fingerprint_vs(capsys):
    assert cli.main(["fingerprint", "G", "2", "7",
                     "--vs", "B:2:8:local"]) == 0
    out = capsys.readouterr().out
    assert "central_charge" in out
    assert "rank 20" in out


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "wzwcat.cli",
                           "data", "A", "1", "2"],
                          capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert "C(A1,2)" in proc.stdout
