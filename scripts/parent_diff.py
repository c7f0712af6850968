"""Compare the working tree's numbers and CLI bytes with those of a parent revision.

    python3 scripts/parent_diff.py --parent HEAD~1

Extracts REV's committed ``src/`` into a temporary directory (``git
archive``, so the repository's ``.git`` is left as it was), runs one fixed
probe against it and against the working tree's ``src/``, each in a fresh
interpreter, removes the directory and prints, item by item,
"bit-identical" or what moved:

- pool: the point-scan pool (``bench/data/point_scan_oracle.jsonl`` of the
  working tree), one ``evaluate_on_cover`` per point at target 1e-10: value,
  estimate, method or exception class, and the pass's ``quadrature.integrate``
  calls and panels;
- fuzz: 1500 seeded ``evaluate_principal`` points in a fixed box, with their
  exception classes and whether numpy warned;
- extreme: 1500 seeded ``evaluate_on_cover`` points far out in s, a and c,
  on sheets of up to two windings per axis, recorded as the fuzz is;
- left: 1200 seeded ``evaluate_principal`` points with Re s in [-12, 0], on
  both sides of the integral's strip Re s > -4, a quarter within 1e-3 of a
  pole s = -k of Gamma(s) and a quarter with c within 1e-3 of 1, where the
  transform takes its c = 1 formula and its Taylor series about c = 1;
  recorded as the fuzz is;
- verify: the stdout and exit code of ``lerchz verify --suite all --samples 3
  --seed 1``;
- monodromy: the stdout, stderr and exit code of ``lerchz monodromy`` for 500
  seeded words;
- algebra: 800 seeded pairs of words, a quarter each at moderate,
  nonpositive-integer, extreme and steep s, through ``monodromy_of_word``,
  ``word_fold_monodromy``, ``compose_check`` and ``fe_monodromy_residual`` of
  both kinds, and ``monodromy_generator`` and ``monodromy_power`` of the first
  word's first syllable: each value, or its exception class; and as text, the
  abelianization of each of those words and what ``Word.parse`` makes of a
  fixed list of malformed words (exception class and message);
- cover: at the first 12 draws of ``suites._sample_cover_point`` and
  ``_sample_branch`` from ``random.Random(606)``, ``dde_lower_residual``,
  ``dde_raise_residual``, ``pde_residual`` and ``dde_shift`` (lower, then
  raise; value and estimate) as ``float.hex``, or the exception class
  where a call raises; ``verify`` prints 4 digits, these show a last-bit
  move in the cover layer;
- funceq: at 150 seeded ``suites._sample_polycylinder`` draws, ``fe_residual``
  and both ``fe_iterated_residual`` variants, each of both kinds, and
  ``three_term_residual`` at an sp drawn after each point as the funceq suite
  draws it, all at target 1e-10: each residual as ``float.hex``, or the
  exception class where a call raises; reported relation by relation;
- gamma: ``complex_gamma`` and ``reciprocal_gamma`` at 600 seeded points with
  Re s in [-8, 8], a third each with |Im s| in [0, 5], [5, 40] and [40, 120],
  as ``float.hex`` or the exception class, with the largest relative move.

The fuzz, extreme and left items also count their ``NonConvergence`` raises
by message family (``FAMILIES``), for REV and the working tree.

A moved value reports the largest absolute move, the largest relative move
|new - old| / |old|, the largest relative move of the estimate and, where
the records carry estimates, the largest move as a fraction of the old
estimate plus the new one.  Each item that moved counts its records by
kind: answers whose estimate grew, answers that became raises, raises that
changed class, answers that moved by more than the old estimate plus the
new one, raises that became answers, and label-only moves (same value and
estimate, another method).  The exit
code is 0 when every item is bit-identical, 1 when one moved and 2 when
git cannot extract REV.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOL_FILE = ROOT / "bench" / "data" / "point_scan_oracle.jsonl"
TARGET = 1e-10
FUZZ_SEED, FUZZ_POINTS = 7, 1500
EXTREME_SEED, EXTREME_POINTS = 11, 1500
LEFT_SEED, LEFT_POINTS = 17, 1200
WORD_SEED, WORDS = 5, 500
ALGEBRA_SEED, ALGEBRA_CASES = 13, 800
COVER_SEED, COVER_POINTS = 606, 12
FUNCEQ_SEED, FUNCEQ_DRAWS = 29, 150
GAMMA_SEED, GAMMA_POINTS = 31, 600
VERIFY_ARGS = ["verify", "--suite", "all", "--samples", "3", "--seed", "1"]
# the last one has a non-ASCII digit, which the grammar's ASCII \d refuses
MALFORMED_WORDS = ("X", "Z1", "x1", "X1^", "X1^0", "X1.5", "X1^-0", "Y--1", "X+1", "XY1", "X1^1.0", "X0 Y1^",
                   "X1 Y", "X\u0661")
SHOWN = 5  # changed records printed per item
# counted in every item that moved: the first four are regressions, a label-only move keeps value and estimate
KINDS = ("estimate grew", "answer became raise", "raise changed class", "moved past estimates", "raise became answer",
         "label only")
# NonConvergence message families, each the substrings its message holds; a message in none is "other"
FAMILIES = {
    "value (nan": ("value (nan",),
    "three-term transformation overflows": ("three-term transformation overflows",),
    "integral overflows": ("integral overflows",),
    "index shift ... overflows": ("index shift", "overflows"),
    "monodromy ... overflows": ("monodromy", "overflows"),
    "Gamma(s) underflows": ("Gamma(s) underflows",),
}


# -- probe: runs in a fresh interpreter against one tree's src/ ----------------------------------


def _lerch_row(lv) -> list:
    return [lv.value.real, lv.value.imag, lv.abs_err_estimate, lv.method.value]


def _family(exc: Exception) -> str | None:
    """The FAMILIES entry of a NonConvergence message, "other" if none fits; None for other classes."""
    if type(exc).__name__ != "NonConvergence":
        return None
    return next((name for name, parts in FAMILIES.items() if all(p in str(exc) for p in parts)), "other")


def _outcome(fn, as_row=_lerch_row) -> list:
    """as_row(fn()) + [warned]: by default [re, im, estimate, method, warned]; or
    ["raise", class name, NonConvergence family or None, None, warned]."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            row = as_row(fn())
        except Exception as exc:  # a class the parent raised and the change does not is a finding
            row = ["raise", type(exc).__name__, _family(exc), None]
    return row + [bool(caught)]


def _fuzz_points(seed: int, n: int) -> list[tuple[complex, complex, complex]]:
    """|Re s| <= 6, |Im s| <= 30, |Re a| <= 2, |Im a| <= 1, |Re c| <= 50, |Im c| <= 3; 15% of c on or within 1e-5 of an integer Re c."""
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        s = complex(rng.uniform(-6, 6), rng.uniform(-30, 30))
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        c = complex(rng.uniform(-50, 50), rng.uniform(-3, 3))
        if rng.random() < 0.15:
            c = complex(round(c.real) + rng.choice([0.0, 1e-9, -1e-9, 1e-5, -1e-5]), rng.choice([0.0, 1e-3, -1e-3, c.imag]))
        points.append((s, a, c))
    return points


def _extreme_points(seed: int, n: int) -> list[tuple[complex, complex, complex, dict, dict]]:
    """|Re s| <= 200, |Im s| = 10^U(-2, 2.8), |Re a| <= 2, |Im a| = 10^U(-6, 0.5), |Re c| = 10^U(-3, 5), |Im c| <= 3, (kx, ky).

    The box and seed of the extreme sweep in tests/test_continuation.py, which takes its first 500 points.
    """
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        s = complex(rng.uniform(-200, 200), rng.choice((-1, 1)) * 10 ** rng.uniform(-2, 2.8))
        a = complex(rng.uniform(-2, 2), rng.choice((-1, 1)) * 10 ** rng.uniform(-6, 0.5))
        c = complex(rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 5), rng.uniform(-3, 3))
        kx = {rng.randint(-1, 2): rng.randint(-2, 2) for _ in range(rng.randint(0, 2))}
        ky = {rng.randint(-2, 1): rng.randint(-2, 2) for _ in range(rng.randint(0, 2))}
        points.append((s, a, c, kx, ky))
    return points


def _left_points(seed: int, n: int) -> list[tuple[complex, complex, complex]]:
    """-12 <= Re s <= 0, |Im s| <= 10, |Re a| <= 2, |Im a| <= 0.5, -3 <= Re c <= 5, |Im c| <= 1; every fourth s
    within 1e-9 to 1e-3 of s = -k, k <= 12, and every fourth c (another quarter) within 1e-3 of 1: exactly 1,
    on Re c = 1, or anywhere in that disk."""
    rng = random.Random(seed)
    points = []
    for i in range(n):
        s = complex(rng.uniform(-12, 0), rng.uniform(-10, 10))
        a = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        c = complex(rng.uniform(-3, 5), rng.uniform(-1, 1))
        gap = 10 ** rng.uniform(-9, -3) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        if i % 4 == 0:
            s = -rng.randint(0, 12) + gap
        elif i % 4 == 1:
            c = rng.choice((1 + 0j, complex(1.0, gap.imag), 1 + gap))
        points.append((s, a, c))
    return points


def _word_text(rng: random.Random) -> str:
    """1-6 letters X_k or Y_k, k in [-3, 3], exponent in +-[1, 3]."""
    letters = []
    for _ in range(rng.randint(1, 6)):
        e = rng.choice([-3, -2, -1, 1, 2, 3])
        letters.append(f"{rng.choice('XY')}{rng.randint(-3, 3)}" + ("" if e == 1 else f"^{e}"))
    return " ".join(letters)


def _words(seed: int, n: int) -> list[list[str]]:
    """lerchz monodromy argument lists: a _word_text word, |Re s| <= 4, |Im s| <= 10, |Re a| <= 2, |Re c| <= 3, |Im a|, |Im c| <= 1."""
    rng = random.Random(seed)
    fmt = lambda z: f"{z.real!r},{z.imag!r}"
    out = []
    for _ in range(n):
        word = _word_text(rng)
        s = complex(rng.uniform(-4, 4), rng.uniform(-10, 10))
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        c = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        out.append(["monodromy", "--word", word, "--s", fmt(s), "--a", fmt(a), "--c", fmt(c)])
    return out


def _algebra_cases(seed: int, n: int) -> list[tuple[str, str, complex, complex, complex]]:
    """(word, word, s, a, c): two _word_text words; s in turn moderate (|Re s| <= 4, |Im s| <= 10),
    a nonpositive integer in [-5, 0], extreme (|Re s| <= 300, |Im s| <= 500) and steep (|Re s| <= 4,
    50 <= |Im s| <= 120, where e^{2 pi i s k} leaves binary64 for a few loops k); |Re a| <= 2,
    |Re c| <= 3, |Im a|, |Im c| <= 1."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        w1, w2 = _word_text(rng), _word_text(rng)
        if i % 4 == 0:
            s = complex(rng.uniform(-4, 4), rng.uniform(-10, 10))
        elif i % 4 == 1:
            s = complex(-rng.randint(0, 5))
        elif i % 4 == 2:
            s = complex(rng.uniform(-300, 300), rng.uniform(-500, 500))
        else:
            s = complex(rng.uniform(-4, 4), rng.choice((-1, 1)) * rng.uniform(50, 120))
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        c = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        out.append((w1, w2, s, a, c))
    return out


def _algebra(cases: list) -> list:
    """Per case, seven outcome rows [re, im, None, function, warned]: monodromy_of_word, word_fold_monodromy,
    compose_check, fe_monodromy_residual plus and minus (the residuals real), and monodromy_generator and
    monodromy_power of w1's first syllable g^e as written (w1 may reduce to the identity)."""
    from lerchzeta import (SymKind, Word, compose_check, fe_monodromy_residual, monodromy_generator,
                           monodromy_of_word, monodromy_power, word_fold_monodromy)

    rows = []
    for t1, t2, s, a, c in cases:
        w1, w2 = Word.parse(t1), Word.parse(t2)
        (g, e), = Word.parse(t1.split()[0])
        calls = (
            ("monodromy_of_word", lambda: monodromy_of_word(w1, s, a, c)),
            ("word_fold_monodromy", lambda: word_fold_monodromy(w1, s, a, c)),
            ("compose_check", lambda: compose_check(w1, w2, s, a, c)),
            ("fe_plus", lambda: fe_monodromy_residual(SymKind.PLUS, w1, s, a, c)),
            ("fe_minus", lambda: fe_monodromy_residual(SymKind.MINUS, w1, s, a, c)),
            ("monodromy_generator", lambda: monodromy_generator(g, s, a, c)),
            ("monodromy_power", lambda: monodromy_power(g, e, s, a, c)),
        )
        for name, fn in calls:
            rows.append(_outcome(fn, lambda v, name=name: [complex(v).real, complex(v).imag, None, name]))
    return rows


def _algebra_text(cases: list) -> list[str]:
    """repr(abelianize(w)) for both words of each case, then per MALFORMED_WORDS entry what Word.parse does."""
    from lerchzeta import Word, abelianize

    texts = [repr(abelianize(Word.parse(t))) for t1, t2, *_ in cases for t in (t1, t2)]
    for text in MALFORMED_WORDS:
        try:
            texts.append(f"parsed {Word.parse(text)!r}")
        except Exception as exc:  # the class and message are the record
            texts.append(f"{type(exc).__name__}: {exc}")
    return texts


def _cover(seed: int, n: int) -> list[str]:
    """Per cover draw (p, b), five text records: the three residuals and dde_shift lower and raise, in hex."""
    from lerchzeta.continuation import dde_lower_residual, dde_raise_residual, dde_shift, pde_residual
    from lerchzeta.suites import _sample_branch, _sample_cover_point

    rng = random.Random(seed)
    texts = []
    for i in range(n):
        p = _sample_cover_point(rng)
        b = _sample_branch(rng)
        calls = (
            ("dde_lower_residual", lambda: dde_lower_residual(p, b).hex()),
            ("dde_raise_residual", lambda: dde_raise_residual(p, b).hex()),
            ("pde_residual", lambda: pde_residual(p, b).hex()),
            ("dde_shift lower", lambda: " ".join(x.hex() for x in _lerch_row(dde_shift(p, "lower"))[:3])),
            ("dde_shift raise", lambda: " ".join(x.hex() for x in _lerch_row(dde_shift(p, "raise"))[:3])),
        )
        for name, fn in calls:
            try:
                texts.append(f"{i} {name} {fn()}")
            except Exception as exc:  # the class is the record
                texts.append(f"{i} {name} raise {type(exc).__name__}")
    return texts


def _funceq(seed: int, n: int) -> dict[str, list[str]]:
    """Per relation, n records: float.hex of its residual at each draw, or "raise" and the exception class."""
    from lerchzeta import SymKind, fe_iterated_residual, fe_residual, three_term_residual
    from lerchzeta.suites import _sample_polycylinder

    rng = random.Random(seed)
    records: dict[str, list[str]] = {}
    for _ in range(n):
        s, a, c = _sample_polycylinder(rng)
        sp = complex(rng.uniform(0.1, 0.9), rng.uniform(-2.0, 2.0))
        calls = [(f"fe_residual {k.value}", lambda k=k: fe_residual(k, s, a, c, TARGET)) for k in SymKind]
        calls += [(f"{v} {k.value}", lambda k=k, v=v: fe_iterated_residual(k, v, s, a, c, TARGET))
                  for v in ("a_reflect", "quarter_turn") for k in SymKind]
        calls.append(("three_term_residual", lambda: three_term_residual(sp, a, c, TARGET)))
        for name, fn in calls:
            try:
                record = fn().hex()
            except Exception as exc:  # the class is the record
                record = f"raise {type(exc).__name__}"
            records.setdefault(name, []).append(record)
    return records


def _gamma(seed: int, n: int) -> list[str]:
    """Per point, one text record per function: "complex_gamma" or "reciprocal_gamma", then the real and imaginary
    parts as float.hex, or "raise" and the exception class."""
    from lerchzeta import complex_gamma, reciprocal_gamma

    rng = random.Random(seed)
    bands = ((0.0, 5.0), (5.0, 40.0), (40.0, 120.0))
    texts = []
    for i in range(n):
        s = complex(rng.uniform(-8.0, 8.0), rng.choice((-1.0, 1.0)) * rng.uniform(*bands[i % 3]))
        for fn in (complex_gamma, reciprocal_gamma):
            try:
                v = fn(s)
                texts.append(f"{fn.__name__} {v.real.hex()} {v.imag.hex()}")
            except Exception as exc:  # the class is the record
                texts.append(f"{fn.__name__} raise {type(exc).__name__}")
    return texts


def _cli(main, argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def probe(pool_file: Path) -> dict:
    from lerchzeta import BranchState, Point3, cli, evaluate_on_cover, evaluate_principal, quadrature

    work = {"integrate_calls": 0, "panels": 0}
    integrate = quadrature.integrate

    def counted(*args, **kwargs):
        result = integrate(*args, **kwargs)
        work["integrate_calls"] += 1
        work["panels"] += result[2]
        return result

    pool = []
    quadrature.integrate = counted
    try:
        with open(pool_file, encoding="utf-8") as fh:
            for line in fh:
                r = json.loads(line)
                point = Point3(complex(*r["s"]), complex(*r["a"]), complex(*r["c"]))
                branch = BranchState.from_dicts(dict(r["kx"]), dict(r["ky"]))
                pool.append(_outcome(lambda: evaluate_on_cover(point, branch, TARGET)))
    finally:
        quadrature.integrate = integrate
    fuzz = [_outcome(lambda: evaluate_principal(*p, TARGET)) for p in _fuzz_points(FUZZ_SEED, FUZZ_POINTS)]
    extreme = [
        _outcome(lambda: evaluate_on_cover(Point3(s, a, c), BranchState.from_dicts(kx, ky), TARGET))
        for s, a, c, kx, ky in _extreme_points(EXTREME_SEED, EXTREME_POINTS)
    ]
    left = [_outcome(lambda: evaluate_principal(*p, TARGET)) for p in _left_points(LEFT_SEED, LEFT_POINTS)]
    cases = _algebra_cases(ALGEBRA_SEED, ALGEBRA_CASES)
    return {
        "pool": pool,
        "pool_work": work,
        "fuzz": fuzz,
        "extreme": extreme,
        "left": left,
        "verify": _cli(cli.main, VERIFY_ARGS),
        "monodromy": [_cli(cli.main, argv) for argv in _words(WORD_SEED, WORDS)],
        "algebra": _algebra(cases),
        "algebra_text": _algebra_text(cases),
        "cover": _cover(COVER_SEED, COVER_POINTS),
        "funceq": _funceq(FUNCEQ_SEED, FUNCEQ_DRAWS),
        "gamma": _gamma(GAMMA_SEED, GAMMA_POINTS),
    }


# -- driver --------------------------------------------------------------------------------------


def run_probe(tree: Path, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", str(out)]
    subprocess.run(cmd, env=env, cwd=out.parent, check=True)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _moves(old: list, new: list) -> list[str]:
    """Lines describing what moved between two lists of outcome rows; empty when bit-identical."""
    changed = [i for i, (o, n) in enumerate(zip(old, new)) if json.dumps(o) != json.dumps(n)]  # NaN equals NaN
    if not changed:
        return []
    lines = [f"{len(changed)} of {len(old)} records changed"]
    d_abs = d_rel = d_est = 0.0
    d_frac = None  # largest move over (old estimate + new estimate); None where the records carry no estimate
    classes, methods, warned = [], [], []
    kinds = dict.fromkeys(KINDS, 0)
    for i in changed:
        o, n = old[i], new[i]
        if (o[0] == "raise") != (n[0] == "raise") or (o[0] == "raise" and o[1] != n[1]):
            if o[0] == n[0]:
                kinds["raise changed class"] += 1
            else:
                kinds["raise became answer" if o[0] == "raise" else "answer became raise"] += 1
            classes.append(f"  #{i}: {o[1] if o[0] == 'raise' else o[3]} -> {n[1] if n[0] == 'raise' else n[3]}")
            continue
        if o[4] != n[4]:
            warned.append(f"  #{i}: warned {o[4]} -> {n[4]}")
        if o[0] == "raise":
            continue
        if o[3] != n[3]:
            methods.append(f"  #{i}: method {o[3]} -> {n[3]}")
        kinds["label only"] += o[:3] == n[:3] and o[3] != n[3]
        kinds["estimate grew"] += o[2] is not None and n[2] > o[2]
        move, size = abs(complex(n[0], n[1]) - complex(o[0], o[1])), abs(complex(o[0], o[1]))
        d_abs = max(d_abs, move)
        d_rel = max(d_rel, move / size if size else math.inf if move else 0.0)
        if n[2] != o[2]:
            d_est = max(d_est, abs(n[2] - o[2]) / o[2] if o[2] else math.inf)
        if o[2] is not None:
            both = o[2] + n[2]
            frac = move / both if both else math.inf if move else 0.0
            d_frac = max(d_frac or 0.0, frac)
            kinds["moved past estimates"] += frac > 1.0
    largest = f"largest moves: absolute {d_abs:.3e}, relative {d_rel:.3e}, estimate (relative) {d_est:.3e}"
    lines.append(largest + ("" if d_frac is None else f", of old + new estimate {d_frac:.3e}"))
    lines.append("by kind: " + ", ".join(f"{kind} {count}" for kind, count in kinds.items()))
    for title, items in (("exception classes", classes), ("methods", methods), ("warnings", warned)):
        if items:
            lines.append(f"{len(items)} changed {title}:")
            lines += items[:SHOWN] + (["  ..."] if len(items) > SHOWN else [])
    return lines


def _byte_moves(old: list, new: list) -> list[str]:
    """Lines naming the CLI calls whose exit code or bytes changed; empty when identical."""
    changed = [i for i, (o, n) in enumerate(zip(old, new)) if o != n]
    if not changed:
        return []
    lines = [f"{len(changed)} of {len(old)} calls changed"]
    for i in changed[:SHOWN]:
        lines.append(f"  #{i}: exit {old[i][0]} -> {new[i][0]}")
        for stream, o, n in (("stdout", old[i][1], new[i][1]), ("stderr", old[i][2], new[i][2])):
            for lo, ln in zip(o.splitlines(), n.splitlines()):
                if lo != ln:
                    lines += [f"    {stream} - {lo}", f"    {stream} + {ln}"]
    return lines


def _text_moves(old: list[str], new: list[str]) -> list[str]:
    """Lines naming the text records that changed; empty when identical."""
    changed = [i for i, (o, n) in enumerate(zip(old, new)) if o != n]
    if not changed:
        return []
    lines = [f"{len(changed)} of {len(old)} text records changed"]
    for i in changed[:SHOWN]:
        lines += [f"  #{i} - {old[i]}", f"  #{i} + {new[i]}"]
    return lines


def _relation_moves(old: dict[str, list[str]], new: dict[str, list[str]]) -> list[str]:
    """Per relation that moved: how many records changed, how many of those changed between a value and a
    raise, the largest absolute and relative moves of the rest and the worst residual; empty when identical."""
    worst = lambda records: max((float.fromhex(r) for r in records if "raise" not in r), default=0.0)
    lines = []
    for name, records in new.items():
        changed = [(o, n) for o, n in zip(old[name], records) if o != n]
        if not changed:
            continue
        values = [(float.fromhex(o), float.fromhex(n)) for o, n in changed if "raise" not in o + n]
        d_abs = max((abs(n - o) for o, n in values), default=0.0)
        d_rel = max((abs(n - o) / o if o else math.inf for o, n in values), default=0.0)
        lines.append(f"{name}: {len(changed)} of {len(records)} changed, {len(changed) - len(values)} to or from a"
                     f" raise; largest moves: absolute {d_abs:.3e}, relative {d_rel:.3e};"
                     f" worst {worst(old[name]):.3e} -> {worst(records):.3e}")
    return lines


def _gamma_moves(old: list[str], new: list[str]) -> list[str]:
    """_text_moves of the gamma records, then the largest relative move of the values that stayed values."""
    lines = _text_moves(old, new)
    values = lambda t: complex(*map(float.fromhex, t.split()[1:]))
    moved = [(values(o), values(n)) for o, n in zip(old, new) if o != n and "raise" not in o + n]
    if moved:
        d_rel = max(abs(n - o) / abs(o) if o else math.inf for o, n in moved)
        lines.append(f"largest relative move {d_rel:.3e}")
    return lines


def _tally(rows: list) -> str:
    raised = sum(r[0] == "raise" for r in rows)
    return f"{len(rows)} points: {len(rows) - raised} answered, {raised} raised, {sum(r[4] for r in rows)} warned"


def _families(old: list, new: list) -> str:
    """NonConvergence raises by family, as "family old -> new" where they differ and "family n" where not."""
    counts = [{name: sum(r[2] == name for r in rows) for name in (*FAMILIES, "other")} for rows in (old, new)]
    shown = [f"{name} {o} -> {counts[1][name]}" if o != counts[1][name] else f"{name} {o}" for name, o in counts[0].items()]
    return "NonConvergence by family: " + ", ".join(shown)


def compare(old: dict, new: dict) -> list[tuple[str, str, list[str]]]:
    """(item, what the working tree gave, lines of what moved) per item."""
    work = new["pool_work"]
    pool = _moves(old["pool"], new["pool"])
    if old["pool_work"] != work:
        pool.append(f"work: {old['pool_work']} -> {work}")
    verify = new["verify"]
    return [
        ("pool", f"{_tally(new['pool'])}; {work['integrate_calls']} integrate calls, {work['panels']} panels", pool),
        *[(item, f"{_tally(new[item])}; {_families(old[item], new[item])}", _moves(old[item], new[item]))
          for item in ("fuzz", "extreme", "left")],
        ("verify", f"{len(verify[1].splitlines())} lines, exit {verify[0]}", _byte_moves([old["verify"]], [verify])),
        ("monodromy", f"{len(new['monodromy'])} calls", _byte_moves(old["monodromy"], new["monodromy"])),
        (
            "algebra",
            f"{_tally(new['algebra']).replace('points', 'calls')}; {len(new['algebra_text'])} text records",
            _moves(old["algebra"], new["algebra"]) + _text_moves(old["algebra_text"], new["algebra_text"]),
        ),
        ("cover", f"{len(new['cover'])} records", _text_moves(old["cover"], new["cover"])),
        ("funceq", f"{FUNCEQ_DRAWS} draws, {len(new['funceq'])} relations", _relation_moves(old["funceq"], new["funceq"])),
        ("gamma", f"{len(new['gamma'])} records", _gamma_moves(old["gamma"], new["gamma"])),
    ]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="revision to compare the working tree with, e.g. HEAD~1")
    ap.add_argument("--probe", metavar="OUT", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe:
        with open(args.probe, "w", encoding="utf-8") as fh:
            json.dump(probe(POOL_FILE), fh)
        return 0
    if not args.parent:
        ap.error("--parent is required")
    with tempfile.TemporaryDirectory(prefix="parent_diff_") as tmp:
        tmp = Path(tmp)
        try:
            extract(args.parent, tmp / "parent")
        except subprocess.CalledProcessError:
            return 2  # git has said why on stderr
        old = run_probe(tmp / "parent", tmp / "parent.json")
        new = run_probe(ROOT, tmp / "work.json")
    report = compare(old, new)
    print(f"parent {args.parent} against the working tree")
    for name, summary, lines in report:
        print(f"{name} ({summary}): {'changed' if lines else 'bit-identical'}")
        for line in lines:
            print("  " + line)
    identical = not any(lines for _, _, lines in report)
    print("bit-identical" if identical else "changed")
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
