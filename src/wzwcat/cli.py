"""Command-line driver: JSON export, census reports, check suites, cache.

Subcommands
    data         modular data of one C(g,k): weights, dims, twists, S, fusion
    fusion       sparse fusion coefficients N_ij^l
    local        local-module census over a Tannakian subgroup of currents
    verify       named check suites (thm1 | witt | all) with range filtering
    fingerprint  Witt-invariant fingerprint, optionally compared to another

Exit codes: 0 ok, 1 check failure (a verification check, or an internal
consistency check, reported in one line), 2 usage, 3 capacity, 4 no
nontrivial Tannakian subgroup.  Bundles round-trip losslessly: floats are
written as 17-significant-digit decimals and JSON key order is fixed, so
equal inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import verifier, wittlab
from .alcove import count_alcove  # noqa: F401 -- re-exported
from .localmods import LocalCategoryData
from .modular import ModularData
from .rootsys import CapacityError

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_NO_SUBGROUP = 4

SCHEMA_VERSION = "1"
FUSION_RANK_CAP = 64          # bundles omit the tensor above this rank
SMATRIX_TEXT_CAP = 1 << 28    # bytes of S text in a bundle: about 50 an entry
CACHE_ENV = "WZWCAT_CACHE_DIR"


class NoSubgroupError(Exception):
    """The category has no nontrivial Tannakian subgroup of currents."""


class ChecksFailed(Exception):
    """A verify suite had failing checks; the message names them."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# DataBundle: typed dict <-> deterministic JSON


def build_bundle(md: ModularData, local: LocalCategoryData | None = None) -> dict:
    """Typed in-memory bundle for one C(g,k); S is the complex ndarray,
    built before fusion: its caps refuse at once, the fold route may not.
    A bundle whose S text would pass SMATRIX_TEXT_CAP is refused first."""
    size = 50 * md.rank ** 2
    if size > SMATRIX_TEXT_CAP:
        raise CapacityError(f"S of {md.rank} simples would be about {size} "
                            f"bytes of JSON, over the cap {SMATRIX_TEXT_CAP}")
    return {
        "schema_version": SCHEMA_VERSION,
        "g": (md.rs.series, md.rs.rank),
        "k": md.k,
        "labels": md.weights,
        "dims": tuple(float(d) for d in md.qdims),
        "twists": tuple(a.t for a in md.twists),
        "smatrix": md.smatrix,
        "fusion": (tuple(md.fusion.triples()) if md.rank <= FUSION_RANK_CAP
                   else None),
        "local": local.census() if local is not None else None,
    }


def _smatrix_json(s: np.ndarray) -> str:
    """S as rows of ["re","im"] string pairs, each distinct 64-bit pattern
    formatted once: by bits, since np.unique on floats merges -0.0 with
    0.0, and filled into one template for the whole matrix."""
    patterns, inverse = np.unique(
        np.ascontiguousarray(s).view(np.uint64), return_inverse=True)
    texts = np.array([_fmt(x) for x in patterns.view(np.float64).tolist()],
                     dtype=object)
    row = "[" + ",".join(['["%s","%s"]'] * s.shape[1]) + "]"
    return ("[" + ",".join([row] * s.shape[0]) + "]") % tuple(
        texts[inverse.ravel()])


def bundle_to_json(bundle: dict) -> str:
    """Deterministic JSON text; tuples are written as arrays, so the
    tables go out as the bundle holds them.  S is spliced in between the
    sorted keys before and after it."""
    loc = bundle["local"]
    if loc is not None:
        loc = dict(loc)
        loc["global_dim"] = _fmt(loc["global_dim"])
        loc["closure_residual"] = _fmt(loc["closure_residual"])
        loc["simples"] = [dict(s, qdim=_fmt(s["qdim"])) for s in loc["simples"]]
    payload = {
        "schema_version": bundle["schema_version"],
        "g": bundle["g"],
        "k": bundle["k"],
        "labels": bundle["labels"],
        "dims": [_fmt(d) for d in bundle["dims"]],
        "twists": [[t.numerator, t.denominator] for t in bundle["twists"]],
        "fusion": bundle["fusion"],
        "local": loc,
    }
    dump = functools.partial(json.dumps, sort_keys=True,
                             separators=(",", ":"))
    head = dump({key: v for key, v in payload.items() if key < "smatrix"})
    tail = dump({key: v for key, v in payload.items() if key > "smatrix"})
    return (head[:-1] + ',"smatrix":' + _smatrix_json(bundle["smatrix"])
            + "," + tail[1:])


def bundle_from_json(text: str) -> dict:
    raw = json.loads(text)
    loc = raw["local"]
    if loc is not None:
        loc = dict(loc)
        loc["global_dim"] = float(loc["global_dim"])
        loc["closure_residual"] = float(loc["closure_residual"])
        loc["simples"] = [dict(s, qdim=float(s["qdim"]))
                          for s in loc["simples"]]
    return {
        "schema_version": raw["schema_version"],
        "g": (raw["g"][0], raw["g"][1]),
        "k": raw["k"],
        "labels": tuple(tuple(w) for w in raw["labels"]),
        "dims": tuple(float(d) for d in raw["dims"]),
        "twists": tuple(Fraction(n, d) for n, d in raw["twists"]),
        # the (re, im) pairs as complex128, bit for bit (negative zeros too)
        "smatrix": np.array(raw["smatrix"], np.float64
                            ).view(np.complex128)[..., 0],
        "fusion": None if raw["fusion"] is None
        else tuple(tuple(t) for t in raw["fusion"]),
        "local": loc,
    }


# ---------------------------------------------------------------------------
# cache


@functools.cache
def _code_version() -> str:
    h = hashlib.sha256()
    pkg = Path(__file__).parent
    for p in sorted(pkg.glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:12]


def _cache_dir(ns) -> Path | None:
    path = ns.cache_dir or os.environ.get(CACHE_ENV)
    return Path(path) if path else None


def _header(text: bytes) -> bytes:
    return f"{_code_version()} {hashlib.sha256(text).hexdigest()}".encode()


def load_or_build_bundle(series, rank, k, cache_dir=None):
    """Returns (json_text, from_cache).  A cache entry, one per case, holds
    the source hash and the SHA-256 hex of the text on its first line,
    then the text; a hit is the stored ASCII bytes, undecoded, once both
    match, and a miss the fresh str."""
    path = None
    if cache_dir is not None:
        cache_dir.mkdir(parents=True, exist_ok=True)    # unusable: fail early
        path = cache_dir / f"{series}{rank}-k{k}.json"
        if path.exists():
            # unbuffered: the text is read into one object, not copied
            with open(path, "rb", buffering=0) as f:
                head, text = f.readline(), f.readall()
            if head == _header(text) + b"\n":  # else truncated, corrupt or stale
                return text, True
            del text                # not held while the bundle is built
    text = bundle_to_json(build_bundle(ModularData(series, rank, k)))
    if path is not None:
        data = text.encode("ascii")
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.unlink(missing_ok=True)     # left by a run killed while writing
        with open(tmp, "xb") as f:      # the umask's mode, as any new file
            f.write(_header(data) + b"\n")   # no copy of the text
            f.write(data)
        os.replace(tmp, path)     # atomic publish
    return text, False


# ---------------------------------------------------------------------------
# shared helpers


def _twist_str(t: Fraction) -> str:
    return str(t.numerator) if t.denominator == 1 else f"{t.numerator}/{t.denominator}"


def _label_str(w) -> str:
    return "(" + ",".join(str(x) for x in w) + ")"


def _check_out(path: str) -> None:
    """OSError unless an --out file at path could be written: its
    directory exists and is writable, and path is no directory.  Nothing is
    created or truncated; _emit writes the file once the text is ready."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise OSError(f"--out {path!r}: no directory {parent!r}")
    target = path if os.path.exists(path) else parent
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise OSError(f"--out {path!r} cannot be written")


def _emit(ns, text) -> None:
    """text and a newline to --out or stdout.  ASCII bytes, a cache hit,
    go out undecoded wherever the target takes bytes (a StringIO stdout
    does not), so the entry is held once."""
    if isinstance(text, bytes) and not ns.out and hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()          # what was printed before comes first
        sys.stdout.buffer.write(text)
        sys.stdout.buffer.write(b"\n")
    elif isinstance(text, bytes) and ns.out:
        Path(ns.out).write_bytes(text + b"\n")
    elif ns.out:
        Path(ns.out).write_text(text + "\n")
    else:
        print(text if isinstance(text, str) else text.decode("ascii"))


def _parse_subgroup(md: ModularData, spec: str):
    """auto -> None; otherwise semicolon-separated label tuples."""
    if spec == "auto":
        return None
    idxs = []
    for part in spec.split(";"):
        try:
            labels = tuple(int(x) for x in part.strip("() ").split(","))
        except ValueError:
            raise ValueError(f"bad --subgroup {spec!r} (want auto or "
                             "labels like '0,4,0;0,0,0')") from None
        if labels not in md.alcove.index:
            raise ValueError(f"{labels} is not an alcove weight")
        idxs.append(md.alcove.index[labels])
    unit = md.alcove.index[(0,) * md.rs.rank]
    if unit not in idxs:
        idxs.append(unit)
    return tuple(sorted(set(idxs)))


def _local_data(md: ModularData, subgroup=None) -> LocalCategoryData:
    loc = LocalCategoryData(md, subgroup=subgroup)
    if loc.subgroup_order == 1:
        raise NoSubgroupError("no nontrivial Tannakian subgroup of simple "
                              f"currents in C({md.rs.name},{md.k})")
    return loc


# ---------------------------------------------------------------------------
# subcommands: each writes its output and returns; main maps a failure,
# raised as an exception, to its exit code and one line on stderr


def cmd_data(ns) -> None:
    if ns.format == "json":
        text, _ = load_or_build_bundle(ns.series, ns.rank, ns.k,
                                       _cache_dir(ns))
        _emit(ns, text)
        return
    md = ModularData(ns.series, ns.rank, ns.k)
    lines = [f"C({md.rs.name},{md.k}): {md.rank} simple objects",
             f"{'i':>4}  {'label':<14}{'dim':<22}twist"]
    for i, w in enumerate(md.weights):
        lines.append(f"{i:>4}  {_label_str(w):<14}"
                     f"{format(float(md.qdims[i]), '.12g'):<22}"
                     f"{_twist_str(md.twists[i].t)}")
    lines.append("pointed: " + " ".join(_label_str(md.weights[i])
                                        for i in md.pointed_indices))
    _emit(ns, "\n".join(lines))


def cmd_fusion(ns) -> None:
    md = ModularData(ns.series, ns.rank, ns.k)
    triples = md.fusion.triples()
    if ns.format == "json":
        _emit(ns, json.dumps(
            {"g": [ns.series, ns.rank], "k": ns.k,
             "labels": md.weights, "fusion": list(triples)},
            sort_keys=True, separators=(",", ":")))
        return
    names = [_label_str(w) for w in md.weights]
    lines = [f"{names[i]} * {names[j]} -> {names[l]}  x{n}"
             for i, j, l, n in triples]
    _emit(ns, "\n".join([f"C({md.rs.name},{md.k}) fusion, {len(lines)} "
                         "nonzero coefficients (i <= j)", *lines]))


def _structure_str(struct) -> str:
    if struct is None:
        return "undetermined"
    return " x ".join(f"Z{n}" for n in struct) or "trivial"


def cmd_local(ns) -> None:
    md = ModularData(ns.series, ns.rank, ns.k)
    loc = _local_data(md, subgroup=_parse_subgroup(md, ns.subgroup))
    if ns.format == "json":
        _emit(ns, bundle_to_json(build_bundle(md, local=loc)))
        return
    pp = loc.pointed_part()
    try:
        ad = str(loc.adjoint_rank())
    except ValueError:
        ad = "-"
    sub = " ".join(_label_str(md.weights[j]) for j in loc.subgroup)
    lines = [
        f"C({md.rs.name},{md.k}) local modules over {{{sub}}} "
        f"(order {loc.subgroup_order})",
        f"rank {loc.rank} from {loc.local_weight_count} local weights; "
        f"global dim {loc.global_dim:.12g}; "
        f"closure residual {loc.closure_residual:.2e}",
        f"pointed rank {pp['rank']}, structure {_structure_str(pp['structure'])}; "
        f"adjoint rank {ad}",
        f"{'i':>4}  {'orbit rep':<14}{'dim':<22}{'twist':<10}split piece",
    ]
    for i, s in enumerate(loc.simples):
        lines.append(f"{i:>4}  {_label_str(md.weights[s.rep]):<14}"
                     f"{format(s.qdim, '.12g'):<22}"
                     f"{_twist_str(s.twist.t):<10}{s.split:>5} {s.piece:>5}")
    _emit(ns, "\n".join(lines))


def _fingerprint_of(md: ModularData, local: bool):
    return wittlab.fingerprint(_local_data(md) if local else md)


_VS_RE = re.compile(r"^([A-G]):(\d+):(\d+)(:local)?$")


def cmd_fingerprint(ns) -> None:
    vs = ns.vs and _VS_RE.match(ns.vs)
    if ns.vs and not vs:
        raise ValueError(
            f"bad --vs spec {ns.vs!r} (want SERIES:RANK:K[:local])")
    # both alcoves are built, and so refused, before the first fingerprint
    md = ModularData(ns.series, ns.rank, ns.k)
    other = vs and ModularData(vs[1], int(vs[2]), int(vs[3]))
    fp = _fingerprint_of(md, ns.local)
    lines = [f"{fp.label}: rank {fp.rank}",
             f"charge exponent {_twist_str(fp.charge_exponent)} "
             f"(xi = exp(i pi t))",
             f"pointed rank {fp.pointed_rank}; "
             f"self-dual objects {fp.self_dual_count}; "
             f"multiplicity-free "
             f"{'unknown' if fp.multiplicity_free is None else fp.multiplicity_free}"]
    if vs:
        ofp = _fingerprint_of(other, bool(vs[4]))
        lines.append(f"vs {ofp.label}: verdict "
                     f"{wittlab.coincidence_test(fp, ofp)}")
    _emit(ns, "\n".join(lines))


# ---------------------------------------------------------------------------
# verify: the suites of verifier, called through these module bindings

_thm1_checks = verifier.thm1_checks
_witt_checks = verifier.witt_checks

_RANGE_RE = re.compile(r"^([A-Za-z0-9]+)(?::k<(\d+))?$")


def _parse_range(spec: str):
    if spec == "default":
        return None
    m = _RANGE_RE.match(spec)
    if not m:
        raise ValueError(f"bad --range {spec!r} (want default or FAMILY[:k<N])")
    return m.group(1), None if m.group(2) is None else int(m.group(2))


def _selected(checks, flt, suite) -> list:
    if flt is None:
        return checks
    family, bound = flt
    families = list(dict.fromkeys(c["family"] for c in checks))
    if family.lower() not in map(str.lower, families):      # a typo
        raise ValueError(f"--range {family!r}: no {suite} check has that "
                         f"family (families: {', '.join(families)})")
    return [c for c in checks if c["family"].lower() == family.lower()
            and (bound is None or c["level"] < bound)]


def cmd_verify(ns) -> None:
    flt = _parse_range(ns.range)
    checks = []
    if ns.suite in ("thm1", "all"):
        checks += _thm1_checks()
    if ns.suite in ("witt", "all"):
        checks += _witt_checks()
    results = [{"family": c["family"], "level": c["level"],
                "name": c["name"], "passed": bool(c["fn"]())}
               for c in _selected(checks, flt, ns.suite)]
    failures = [r["name"] for r in results if not r["passed"]]
    lines = [f"{'PASS' if r['passed'] else 'FAIL'}  "
             f"{r['family']:<4} {r['name']}" for r in results]
    lines.append(f"{len(results)} checks, {len(failures)} failures")
    if ns.out:
        Path(ns.out).write_text(json.dumps(
            {"suite": ns.suite, "results": results},
            sort_keys=True, separators=(",", ":")) + "\n")
    print("\n".join(lines))
    if failures:
        raise ChecksFailed("; ".join(failures))


# ---------------------------------------------------------------------------
# parser and exit codes


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # main reports it in one line, exit 2
        raise ValueError(f"{self.prog}: {message} (see {self.prog} -h)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="wzwcat",
        description="Modular data, local-module censuses, and Witt "
        "fingerprints of affine Lie algebra fusion categories.")
    sp = p.add_subparsers(dest="command", required=True)
    gk = argparse.ArgumentParser(add_help=False)    # SERIES RANK K commands
    gk.add_argument("series", choices=list("ABCDEFG"))
    gk.add_argument("rank", type=int)
    gk.add_argument("k", type=int)
    gk.add_argument("--out")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "table"), default="table")

    d = sp.add_parser("data", parents=[gk, fmt],
                      help="dims, twists, S-matrix, fusion bundle")
    d.add_argument("--cache-dir", dest="cache_dir")
    d.set_defaults(fn=cmd_data)

    f = sp.add_parser("fusion", parents=[gk, fmt],
                      help="sparse fusion coefficients")
    f.set_defaults(fn=cmd_fusion)

    l = sp.add_parser("local", parents=[gk, fmt],
                      help="local-module census over a Tannakian subgroup")
    l.add_argument("--subgroup", default="auto",
                   help="auto, or weight labels like '0,4,0;0,0,0'")
    l.set_defaults(fn=cmd_local)

    v = sp.add_parser("verify", help="run a named check suite")
    v.add_argument("suite", choices=("thm1", "witt", "all"))
    v.add_argument("--range", default="default")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    fp = sp.add_parser("fingerprint", parents=[gk],
                       help="Witt-invariant fingerprint")
    fp.add_argument("--local", action="store_true")
    fp.add_argument("--vs", help="compare against SERIES:RANK:K[:local]")
    fp.set_defaults(fn=cmd_fingerprint)
    return p


# each failure's exit code and the prefix of its one stderr line; the first
# matching class wins, so each class comes before its bases.  A reader that
# closes stdout early is no failure of the command and prints nothing.
_FAILURES = (
    (BrokenPipeError, EXIT_OK, None),
    (CapacityError, EXIT_CAPACITY, "capacity exceeded: "),
    (MemoryError, EXIT_CAPACITY, "out of memory: "),
    (NoSubgroupError, EXIT_NO_SUBGROUP, ""),
    (ChecksFailed, EXIT_CHECK, "failing: "),
    (AssertionError, EXIT_CHECK, "internal check failed: "),  # a bug
    (ValueError, EXIT_USAGE, ""),
    (OSError, EXIT_USAGE, ""),      # an --out or cache path not writable
)


def main(argv=None) -> int:
    code = EXIT_OK
    try:
        ns = _build_parser().parse_args(argv)
        if ns.out:          # refused before the work, not after it
            _check_out(ns.out)
        ns.fn(ns)
    except SystemExit as e:         # -h, once argparse has printed the help
        code = int(e.code or 0)
    except tuple(cls for cls, _, _ in _FAILURES) as e:
        code, prefix = next((c, p) for cls, c, p in _FAILURES
                            if isinstance(e, cls))
        if prefix is not None:
            print(f"{prefix}{e}", file=sys.stderr)
    try:
        if sys.stdout is not None:      # None if started without an fd 1
            sys.stdout.flush()      # a closed reader shows here, not at exit
    except BrokenPipeError:
        # what is left unwritten goes to devnull, so the exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
