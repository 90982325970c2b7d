"""Seeded inputs for the benchmark workloads, as plain JSON-ready data.

The parent process draws every input from the workload seed and hands the
child only this data; the child turns it into hahnlab objects.  Parameters
are odd multiples of 1/8 and arguments have real and imaginary parts that
are multiples of 1/1024, so each one is exactly a double: the
float-parameter calls and the exact-parameter calls see the same numbers,
and one exact oracle value serves both.

Every input is one on which the seed commit's output passes its check
(bench/README.md, "Inputs"): the benchmark times operations that succeed.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify-all", "gram", "eval")

# eval: (family, parameter mode, degree, x values) per case.  Float
# parameters run the term-ratio loop at a degree where it keeps 1e-10
# relative accuracy; exact ones build the exact coefficients once and
# run Horner (Jacobi, continuous Hahn) or rebuild them on every call
# (Pasternack, also at n = 64).
EVAL_CASES = tuple(
    [(f, "float", 4, 23000) for f in ("jacobi", "chahn", "pasternack")]
    + [(f, "exact", 16, 32) for f in ("jacobi", "chahn", "pasternack")]
    + [("pasternack", "exact", 64, 4)])
PARAM_DENOM = 8
X_DENOM = 1024
# half-widths of the real parts, in units of 1/X_DENOM
X_RANGE = {"jacobi": 1 * X_DENOM, "chahn": 5 * X_DENOM,
           "pasternack": 5 * X_DENOM}
# |imaginary part| in [1/4, 1]: the real zeros of these polynomials, where
# no double evaluation keeps a relative error of 1e-10, stay at a distance
X_IMAG = (X_DENOM // 4, X_DENOM)

# gram: sizes and the fixed parameter tuples (as hahnlab's CLI grammar)
GRAM_SIZES = (8, 12, 16)
GRAM_FIXED = (
    ("all 1/2", ("1/2", "1/2", "1/2", "1/2"), "exact", GRAM_SIZES),
    ("1, 1/2, 3/4, 5/4", ("1", "1/2", "3/4", "5/4"), "exact", GRAM_SIZES),
    ("conjugate pair", ("1/2+1/4i", "3/4-1/4i", "1/2-1/4i", "3/4+1/4i"), "exact",
     GRAM_SIZES),
    # float parameters pass the Gram check at N = 8 only (bench/README.md)
    ("float 0.5", ("1/2", "1/2", "1/2", "1/2"), "float", GRAM_SIZES[:1]),
)


def _odd_eighths(rng: random.Random, lo: int, hi: int) -> str:
    """A random k/8 with k odd in [lo, hi], as text."""
    k = rng.randrange(lo | 1, hi + 1, 2)
    return f"{k}/{PARAM_DENOM}"


def eval_params(rng: random.Random) -> dict:
    return {
        "jacobi": [_odd_eighths(rng, 1, 15) for _ in range(2)],
        "chahn": [_odd_eighths(rng, 1, 15) for _ in range(4)],
        "pasternack": [_odd_eighths(rng, -7, 7)],
    }


def eval_spec(seed: int) -> dict:
    """Values to compute: per case, x values given as integer pairs
    (real, imaginary) over X_DENOM."""
    rng = random.Random(seed)
    params = eval_params(rng)
    cases = []
    for family, mode, n, count in EVAL_CASES:
        half = X_RANGE[family]
        xs = [[rng.randint(-half, half), rng.choice((-1, 1)) * rng.randint(*X_IMAG)]
              for _ in range(count)]
        cases.append({"family": family, "n": n, "mode": mode, "x": xs})
    return {"workload": "eval", "params": params, "x_denom": X_DENOM,
            "cases": cases}


def gram_spec(seed: int) -> dict:
    rng = random.Random(seed)
    tuples = [{"label": label, "params": list(p), "mode": mode,
               "sizes": list(sizes)} for label, p, mode, sizes in GRAM_FIXED]
    # a Gram matrix costs more or less by its parameters (1.9 s to 2.9 s for
    # N = 8, 12, 16 over ten draws), so the drawn tuple runs at the smallest
    # size only and the seed barely moves the workload's cost
    random_tuple = [_odd_eighths(rng, 3, 13) for _ in range(4)]
    tuples.append({"label": "random " + ", ".join(random_tuple),
                   "params": random_tuple, "mode": "exact",
                   "sizes": [GRAM_SIZES[0]]})
    return {"workload": "gram", "tuples": tuples}


def verify_spec(seed: int) -> dict:
    # fixed by hahnlab's suite tables: the seed does not apply
    return {"workload": "verify-all"}


def make_spec(workload: str, seed: int) -> dict:
    return {"verify-all": verify_spec, "gram": gram_spec,
            "eval": eval_spec}[workload](seed)
