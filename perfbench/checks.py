"""Output records of operations, and their comparison with the goldens.

A record splits an operation's output into an exact part (labels, twists and
charges as fractions, fusion coefficients, census integers, verdicts, exit
codes) and its floats (qdims, S, residuals, dimensions).  The exact part must
equal the golden.  The floats are compared within FLOAT_TOL, so a rewrite of
the S-matrix that is exact to rounding still passes: each float x is mapped
to asinh(x), which is absolute below 1 and relative above, and the vector is
reduced to N_PROJ fixed random +-1 projections; a golden holds only those.
One entry off by e moves every projection by e, so it fails once e exceeds
FLOAT_TOL.  Errors spread over all n entries add up like random signs, so
they fail once they reach about FLOAT_TOL / sqrt(n) each (1.5e-12 for the
427 000 reals of A5 k6's S-matrix); rounding differences are near 1e-16.
"""
from __future__ import annotations

import gzip
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

FLOAT_TOL = 1e-9
N_PROJ = 8
_SIGN_SEED = 20181022
_CHUNK = 1 << 14

# A float as the CLI prints it: any number in quotes (JSON bundles write
# floats as strings), or bare digits with a point or an exponent.
FLOAT_TOKEN = re.compile(r'"(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)"'
                         r"|(-?\d+\.\d+(?:e[-+]?\d+)?|-?\d+e[-+]?\d+)")

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def split_floats(obj, floats: list):
    """Copy of obj in JSON types with every float replaced by None and
    appended to `floats` in walk order.  Fractions become [numerator,
    denominator]; float arrays go to `floats` whole and leave their shape."""
    if isinstance(obj, np.ndarray):
        floats.append(obj)
        return ["array", list(obj.shape)]
    if isinstance(obj, (float, complex, np.floating, np.complexfloating)):
        floats.append(obj)
        return None
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if isinstance(obj, dict):
        return {str(k): split_floats(v, floats) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [split_floats(v, floats) for v in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"no record form for {type(obj).__name__}")


def _reals(values) -> np.ndarray:
    a = np.asarray(values)
    if np.iscomplexobj(a):
        a = np.stack((a.real, a.imag), axis=-1)
    return np.ravel(a).astype(np.float64)


def float_summary(floats: list) -> dict:
    """n and the N_PROJ projections of asinh(floats): arrays first, in
    order, then the scalars."""
    parts = [_reals(v) for v in floats if isinstance(v, np.ndarray)]
    parts.append(_reals([v for v in floats if not isinstance(v, np.ndarray)]))
    x = np.arcsinh(np.concatenate(parts))
    rng = np.random.default_rng(_SIGN_SEED)
    proj = np.zeros(N_PROJ)
    for start in range(0, x.size, _CHUNK):
        chunk = x[start:start + _CHUNK]
        signs = rng.integers(0, 2, size=(N_PROJ, chunk.size)) * 2.0 - 1.0
        proj += signs @ chunk
    return {"n": int(x.size), "proj": [float(p) for p in proj]}


def record(key: str, exact, floats=(), problems=()) -> dict:
    """Record of one operation's output, in JSON types only."""
    found = []
    exact = split_floats(exact, found)
    return {"key": key, "exact": exact,
            "floats": float_summary(list(floats) + found),
            "problems": list(problems)}


def error_record(key: str, exc: BaseException) -> dict:
    return {"key": key, "error": f"{type(exc).__name__}: {exc}"}


def text_output(text: str):
    """(skeleton, floats) of a command's stdout, its float tokens cut out."""
    floats = [float(quoted or bare) for quoted, bare in FLOAT_TOKEN.findall(text)]
    return FLOAT_TOKEN.sub("#", text), floats


def compare(golden: dict | None, rec: dict) -> str | None:
    """None when rec matches golden; otherwise why it does not."""
    if "error" in rec:
        return rec["error"]
    if rec["problems"]:
        return "; ".join(rec["problems"])
    if golden is None:
        return "no golden for this operation"
    if rec["exact"] != golden["exact"]:
        return "exact output differs from the golden"
    got, want = rec["floats"], golden["floats"]
    if got["n"] != want["n"]:
        return f"{got['n']} floats, golden has {want['n']}"
    worst = max((abs(a - b) for a, b in zip(got["proj"], want["proj"])),
                default=0.0)
    if not worst <= FLOAT_TOL:          # also catches NaN
        return f"floats differ: projection off by {worst:.3g} > {FLOAT_TOL:.3g}"
    return None


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json.gz"


def load_goldens(workload: str) -> dict:
    with gzip.open(golden_path(workload), "rt") as f:
        return json.load(f)


def save_goldens(workload: str, goldens: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    text = json.dumps(goldens, sort_keys=True, separators=(",", ":"))
    # mtime 0 keeps the file byte-identical when the outputs are
    with open(golden_path(workload), "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as f:
        f.write(text.encode())
