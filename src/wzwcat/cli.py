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
import tempfile
from fractions import Fraction
from pathlib import Path

from . import verifier, wittlab
from .localmods import LocalCategoryData
from .modular import ModularData, RationalAngle
from .rootsys import DimensionCapError, build_root_system

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_NO_SUBGROUP = 4

SCHEMA_VERSION = "1"
DEFAULT_MAX_ALCOVE = 200_000
FUSION_RANK_CAP = 64          # bundles omit the tensor above this rank
CACHE_ENV = "WZWCAT_CACHE_DIR"


def count_alcove(series: str, rank: int, k: int) -> int:
    """Number of level-<=k dominant weights, by coin-change DP (no
    enumeration, so the capacity gate itself is cheap)."""
    rs = build_root_system(series, rank)
    if k < 1:
        raise ValueError("level must be a positive integer")
    ways = [0] * (k + 1)
    ways[0] = 1
    for c in rs.comarks:
        for j in range(c, k + 1):
            ways[j] += ways[j - c]
    return sum(ways)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# DataBundle: typed dict <-> deterministic JSON


def build_bundle(md: ModularData, local: LocalCategoryData | None = None) -> dict:
    """Typed in-memory bundle for one C(g,k)."""
    s = md.smatrix
    fusion = tuple(md.fusion.triples()) if md.rank <= FUSION_RANK_CAP else None
    return {
        "schema_version": SCHEMA_VERSION,
        "g": (md.rs.series, md.rs.rank),
        "k": md.k,
        "labels": tuple(md.weights),
        "dims": tuple(float(d) for d in md.qdims),
        "twists": tuple(a.t for a in md.twists),
        "smatrix": tuple(tuple(complex(z) for z in row) for row in s),
        "fusion": fusion,
        "local": local.census() if local is not None else None,
    }


def bundle_to_json(bundle: dict) -> str:
    loc = bundle["local"]
    if loc is not None:
        loc = dict(loc)
        loc["global_dim"] = _fmt(loc["global_dim"])
        loc["closure_residual"] = _fmt(loc["closure_residual"])
        loc["simples"] = [dict(s, qdim=_fmt(s["qdim"])) for s in loc["simples"]]
    payload = {
        "schema_version": bundle["schema_version"],
        "g": list(bundle["g"]),
        "k": bundle["k"],
        "labels": [list(w) for w in bundle["labels"]],
        "dims": [_fmt(d) for d in bundle["dims"]],
        "twists": [[t.numerator, t.denominator] for t in bundle["twists"]],
        "smatrix": [[[_fmt(z.real), _fmt(z.imag)] for z in row]
                    for row in bundle["smatrix"]],
        "fusion": None if bundle["fusion"] is None
        else [list(t) for t in bundle["fusion"]],
        "local": loc,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


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
        "smatrix": tuple(tuple(complex(float(re_), float(im_))
                               for re_, im_ in row)
                         for row in raw["smatrix"]),
        "fusion": None if raw["fusion"] is None
        else tuple(tuple(t) for t in raw["fusion"]),
        "local": loc,
    }


# ---------------------------------------------------------------------------
# cache


def _code_version() -> str:
    h = hashlib.sha256()
    pkg = Path(__file__).parent
    for p in sorted(pkg.glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:12]


def _cache_dir(ns) -> Path | None:
    explicit = getattr(ns, "cache_dir", None)
    if explicit:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else None


def cache_path(cache_dir: Path, series: str, rank: int, k: int) -> Path:
    return cache_dir / f"{series}{rank}-k{k}-{_code_version()}.json"


def load_or_build_bundle(series, rank, k, cache_dir=None):
    """Returns (json_text, from_cache); a hit is the stored text, once it
    parses as a bundle."""
    path = None
    if cache_dir is not None:
        path = cache_path(cache_dir, series, rank, k)
        if path.exists():
            try:
                text = path.read_text()
                bundle_from_json(text)
                return text, True
            except (ValueError, LookupError, TypeError):
                pass    # a truncated or corrupt entry is a miss: rebuild it
    text = bundle_to_json(build_bundle(ModularData(series, rank, k)))
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)     # atomic publish
    return text, False


# ---------------------------------------------------------------------------
# shared helpers


def _twist_str(t: Fraction) -> str:
    return str(t.numerator) if t.denominator == 1 else f"{t.numerator}/{t.denominator}"


def _label_str(w) -> str:
    return "(" + ",".join(str(x) for x in w) + ")"


def _capacity_gate(series: str, rank: int, k: int, limit: int) -> int | None:
    # n lambda_j lies in the alcove for 0 <= n <= k // a_j: a bound that can
    # pass the cap only if k >= limit, and refuses without count_alcove's list
    n = (k // min(build_root_system(series, rank).comarks) + 1
         if k >= max(limit, 1) else 0)
    if n <= max(limit, 0):
        n = count_alcove(series, rank, k)
    if n > limit:
        print(f"alcove has at least {n} weights, over the cap {limit}",
              file=sys.stderr)
        return EXIT_CAPACITY
    return None

def _emit(ns, text: str) -> None:
    out = getattr(ns, "out", None)
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _parse_subgroup(md: ModularData, spec: str):
    """auto -> None; otherwise semicolon-separated label tuples."""
    if spec == "auto":
        return None
    idxs = []
    for part in spec.split(";"):
        labels = tuple(int(x) for x in part.strip("() ").split(","))
        if labels not in md.alcove.index:
            raise ValueError(f"{labels} is not an alcove weight")
        idxs.append(md.alcove.index[labels])
    unit = md.alcove.index[(0,) * md.rs.rank]
    if unit not in idxs:
        idxs.append(unit)
    return tuple(sorted(set(idxs)))


# ---------------------------------------------------------------------------
# subcommands


def cmd_data(ns) -> int:
    if ns.format == "json":
        text, _ = load_or_build_bundle(ns.series, ns.rank, ns.k,
                                       _cache_dir(ns))
        _emit(ns, text)
        return EXIT_OK
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
    return EXIT_OK


def cmd_fusion(ns) -> int:
    md = ModularData(ns.series, ns.rank, ns.k)
    triples = list(md.fusion.triples())
    if ns.format == "json":
        _emit(ns, json.dumps(
            {"g": [ns.series, ns.rank], "k": ns.k,
             "labels": [list(w) for w in md.weights],
             "fusion": [list(t) for t in triples]},
            sort_keys=True, separators=(",", ":")))
        return EXIT_OK
    lines = [f"C({md.rs.name},{md.k}) fusion, {len(triples)} nonzero "
             "coefficients (i <= j)"]
    for i, j, l, n in triples:
        lines.append(f"{_label_str(md.weights[i])} * "
                     f"{_label_str(md.weights[j])} -> "
                     f"{_label_str(md.weights[l])}  x{n}")
    _emit(ns, "\n".join(lines))
    return EXIT_OK


def _structure_str(struct) -> str:
    if struct is None:
        return "undetermined"
    return " x ".join(f"Z{n}" for n in struct) or "trivial"


def cmd_local(ns) -> int:
    md = ModularData(ns.series, ns.rank, ns.k)
    try:
        subgroup = _parse_subgroup(md, ns.subgroup)
        loc = LocalCategoryData(md, subgroup=subgroup)
    except DimensionCapError:
        raise                   # capacity, not usage: main exits 3
    except ValueError as e:
        print(f"invalid subgroup: {e}", file=sys.stderr)
        return EXIT_USAGE
    if loc.subgroup_order == 1:
        print("no nontrivial Tannakian subgroup of simple currents",
              file=sys.stderr)
        return EXIT_NO_SUBGROUP
    if ns.format == "json":
        bundle = build_bundle(md, local=loc)
        _emit(ns, bundle_to_json(bundle))
        return EXIT_OK
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
    return EXIT_OK


def _fingerprint_of(spec_series, spec_rank, spec_k, want_local) -> tuple:
    """(fingerprint, exit_code | None)."""
    md = ModularData(spec_series, spec_rank, spec_k)
    if not want_local:
        return wittlab.fingerprint(md), None
    loc = LocalCategoryData(md)
    if loc.subgroup_order == 1:
        return None, EXIT_NO_SUBGROUP
    return wittlab.fingerprint(loc), None


_VS_RE = re.compile(r"^([A-G]):(\d+):(\d+)(:local)?$")


def cmd_fingerprint(ns) -> int:
    fp, err = _fingerprint_of(ns.series, ns.rank, ns.k, ns.local)
    if err is not None:
        print("no nontrivial Tannakian subgroup of simple currents",
              file=sys.stderr)
        return err
    lines = [f"{fp.label}: rank {fp.rank}",
             f"charge exponent {_twist_str(fp.charge_exponent)} "
             f"(xi = exp(i pi t))",
             f"pointed rank {fp.pointed_rank}; "
             f"self-dual objects {fp.self_dual_count}; "
             f"multiplicity-free "
             f"{'unknown' if fp.multiplicity_free is None else fp.multiplicity_free}"]
    if ns.vs:
        m = _VS_RE.match(ns.vs)
        if not m:
            print(f"bad --vs spec {ns.vs!r} (want SERIES:RANK:K[:local])",
                  file=sys.stderr)
            return EXIT_USAGE
        series, rank, k = m.group(1), int(m.group(2)), int(m.group(3))
        bad = _capacity_gate(series, rank, k, ns.max_alcove)
        if bad is not None:
            return bad
        other, err = _fingerprint_of(series, rank, k, bool(m.group(4)))
        if err is not None:
            print("no nontrivial Tannakian subgroup for --vs target",
                  file=sys.stderr)
            return err
        lines.append(f"vs {other.label}: verdict "
                     f"{wittlab.coincidence_test(fp, other)}")
    _emit(ns, "\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: registered checks


_eseries = functools.cache(verifier.check_E_series_thresholds)

# the categories whose Gauss phases the closed-form exponents predict
_GAUSS_FAMILIES = {
    "so5": lambda k: ModularData("B", 2, k),
    "g2": lambda k: ModularData("G", 2, k),
    "so5_local_even": lambda m: LocalCategoryData(ModularData("B", 2, 2 * m)),
}


def _phases_match(family: str) -> bool:
    """Closed-form xi against the Gauss sum over wittlab.NUMERIC_RANGES."""
    build = _GAUSS_FAMILIES[family]
    return all(
        abs(build(p).gauss_sum_phase
            - RationalAngle(wittlab.closed_form_exponent(family, p)).value())
        < 1e-9 for p in wittlab.NUMERIC_RANGES[family])


def _thm1_checks():
    ck = []

    def add(family, level, name, fn):
        ck.append({"family": family, "level": level, "name": name, "fn": fn})

    for n in range(10, 19):
        add("A", n, f"type A midweight ratio exceeds n at (n,k)=({n},{n})",
            lambda n=n: verifier.check_typeA_midweight_ratio(n, n)[1])
    add("A", 9, "type A n=9 midweight ratio first exceeds 9 at k=13",
        lambda: [k for k in range(9, 17)
                 if verifier.check_typeA_midweight_ratio(9, k)[1]][0] == 13)
    add("A", 9, "type A n=9 non-free minimum blocks levels 9 and 12",
        lambda: all(verifier.check_typeA_nonfree_minimum(9, k)["passed"]
                    for k in (9, 12)))
    add("A", 31, "type A n=8 ratio exceeds 8 at k=31",
        lambda: verifier.check_typeA_midweight_ratio(8, 31)[0] > 8)
    add("A", 8, "sl4 level-8 fixed-point census matches the closed form",
        lambda: all(verifier.check_sl4_fixed_census(1, numeric=True)
                    ["numeric"][key] for key in
                    ("fixed_matches", "halffixed_matches",
                     "nonfree_matches", "rank_exceeds_cap")))
    add("B", 5, "type B dim(beta) exceeds 4 at so7 level 5",
        lambda: verifier.check_typeB_threshold(3, 5)["exceeds_4"])
    add("B", 5, "type B bracket form matches the product formula",
        lambda: verifier.check_typeB_threshold(3, 5)["bracket_residual"] < 1e-9)
    add("B", 5, "so7 level 5 factorization verdict is blocked",
        lambda: verifier.check_factorization_obstruction("B", 3, 5).verdict
        == verifier.VERDICT_BLOCKED)
    for n in (3, 4):
        add("C", 3, f"type C candidate minimum exceeds 4 at sp{2*n} level 3",
            lambda n=n: verifier.check_typeC_threshold(n, 3)["exceeds_4"])
    for n, k, thr in ((5, 4, 5), (5, 8, 18), (4, 4, 5), (4, 10, 16),
                      (6, 8, 16)):
        add("D", k, f"type D candidate minimum exceeds {thr} at so{2*n} "
            f"level {k}",
            lambda n=n, k=k, thr=thr:
            verifier.check_typeD_threshold(n, k)["candidate_min"] > thr)
    for n in range(2, 7):
        add("B", 4, f"level-4 so({2*n+1}) global dim matches csc^4 closed form",
            lambda n=n: verifier.check_global_dim_identity(n)["passed"])
    add("E6", 123, "E6 classical threshold onset at level 123",
        lambda: _eseries("E6")["first_level"] == 123
        and _eseries("E6")["onset_any_k"] == 123)
    add("E6", 63, "E6 direct window holds strictly inside (60,123)",
        lambda: all(ok for k, ok in _eseries("E6")["direct_window"]
                    if k != 60)
        and not dict(_eseries("E6")["direct_window"])[60])
    add("E7", 15, "E7 classical threshold onset at level 15",
        lambda: _eseries("E7")["onset_any_k"] == 15)
    add("E7", 4, "E7 direct checks pass at levels 4, 8, 12",
        lambda: all(ok for _, ok in _eseries("E7")["direct_window"]))
    return ck


def _witt_checks():
    ck = []

    def add(family, level, name, fn):
        ck.append({"family": family, "level": level, "name": name, "fn": fn})

    add("so5", 12, "so5 closed-form xi matches Gauss sums, k=1..12",
        lambda: _phases_match("so5"))
    add("g2", 10, "g2 closed-form xi matches Gauss sums, k=1..10",
        lambda: _phases_match("g2"))
    add("so5", 14, "so5 local xi equals the ambient xi, k=2..14 even",
        lambda: _phases_match("so5_local_even"))
    add("g2", 40, "g2 charge window (3,7/2) is exactly k>=25",
        lambda: all(e["in_window"] == (e["param"] >= 25) for e in
                    wittlab.central_charge_sweep("g2",
                                                 range(5, 41))["entries"]))
    add("so5", 40, "so5 local charge window (2,5/2) is exactly m>=7",
        lambda: all(e["in_window"] == (e["param"] >= 7) for e in
                    wittlab.central_charge_sweep("so5_local_even",
                                                 range(1, 21))["entries"]))
    add("emb", 1, "conformal embedding central charges are additive",
        lambda: all(e["matches"]
                    for e in wittlab.verify_conformal_embeddings()))
    add("g2", 7, "rank-20 pair g2 level 7 / so5 level 8 local excluded "
        "by central charge",
        lambda: wittlab.coincidence_test(
            wittlab.fingerprint(ModularData("G", 2, 7)),
            wittlab.fingerprint(LocalCategoryData(ModularData("B", 2, 8))))
        == "central_charge")
    return ck


_RANGE_RE = re.compile(r"^([A-Za-z0-9]+)(?::k<(\d+))?$")


def _parse_range(spec: str):
    if spec == "default":
        return None
    m = _RANGE_RE.match(spec)
    if not m:
        raise ValueError(f"bad --range {spec!r} (want default or FAMILY[:k<N])")
    return m.group(1), None if m.group(2) is None else int(m.group(2))


def _selected(check, flt) -> bool:
    if flt is None:
        return True
    family, bound = flt
    if check["family"].lower() != family.lower():
        return False
    return bound is None or check["level"] < bound


def cmd_verify(ns) -> int:
    try:
        flt = _parse_range(ns.range)
    except ValueError as e:
        print(e, file=sys.stderr)
        return EXIT_USAGE
    checks = []
    if ns.suite in ("thm1", "all"):
        checks += _thm1_checks()
    if ns.suite in ("witt", "all"):
        checks += _witt_checks()
    results, failures = [], []
    for c in checks:
        if not _selected(c, flt):
            continue
        ok = bool(c["fn"]())
        results.append({"family": c["family"], "level": c["level"],
                        "name": c["name"], "passed": ok})
        if not ok:
            failures.append(c["name"])
    lines = [f"{'PASS' if r['passed'] else 'FAIL'}  "
             f"{r['family']:<4} {r['name']}" for r in results]
    lines.append(f"{len(results)} checks, {len(failures)} failures")
    if ns.out:
        Path(ns.out).write_text(json.dumps(
            {"suite": ns.suite, "results": results},
            sort_keys=True, separators=(",", ":")) + "\n")
    print("\n".join(lines))
    if failures:
        print("failing: " + "; ".join(failures), file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_gk(sub, local_flags=False):
    sub.add_argument("series", choices=list("ABCDEFG"))
    sub.add_argument("rank", type=int)
    sub.add_argument("k", type=int)
    sub.add_argument("--out")
    sub.add_argument("--format", choices=("json", "table"), default="table")
    sub.add_argument("--cache-dir", dest="cache_dir")
    sub.add_argument("--max-alcove", dest="max_alcove", type=int,
                     default=DEFAULT_MAX_ALCOVE)
    if local_flags:
        sub.add_argument("--subgroup", default="auto",
                         help="auto, or weight labels like '0,4,0;0,0,0'")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wzwcat",
        description="Modular data, local-module censuses, and Witt "
        "fingerprints of affine Lie algebra fusion categories.")
    sp = p.add_subparsers(dest="command", required=True)

    d = sp.add_parser("data", help="dims, twists, S-matrix, fusion bundle")
    _add_gk(d)
    d.set_defaults(fn=cmd_data)

    f = sp.add_parser("fusion", help="sparse fusion coefficients")
    _add_gk(f)
    f.set_defaults(fn=cmd_fusion)

    l = sp.add_parser("local", help="local-module census over a Tannakian "
                      "subgroup")
    _add_gk(l, local_flags=True)
    l.set_defaults(fn=cmd_local)

    v = sp.add_parser("verify", help="run a named check suite")
    v.add_argument("suite", choices=("thm1", "witt", "all"))
    v.add_argument("--range", default="default")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    fp = sp.add_parser("fingerprint", help="Witt-invariant fingerprint")
    _add_gk(fp)
    fp.add_argument("--local", action="store_true")
    fp.add_argument("--vs", help="compare against SERIES:RANK:K[:local]")
    fp.set_defaults(fn=cmd_fingerprint)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:         # argparse uses 2 for usage errors
        return int(e.code or 0)
    try:
        if hasattr(ns, "series"):       # every subcommand but verify
            bad = _capacity_gate(ns.series, ns.rank, ns.k, ns.max_alcove)
            if bad is not None:
                return bad
        return ns.fn(ns)
    except (verifier.CapacityError, DimensionCapError) as e:
        print(f"capacity exceeded: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as e:     # an internal consistency check failed
        print(f"internal check failed: {e}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
