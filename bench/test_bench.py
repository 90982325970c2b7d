"""Tests of the benchmark itself: its output checks can fail, its oracle is
right, its traced counts repeat, and it refuses to run without hahnlab.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import eval_spec, gram_spec  # noqa: E402


def _run_bench(*args, cwd=BENCH.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the oracle ----------------------------------------------------------------

def test_exact_oracle_matches_mpmath():
    mpmath.mp.dps = 60
    x = mpmath.mpf(300) / 1024
    got = oracle.ExactEvaluator("jacobi", 16, ["3/8", "5/8"], 1024).value(300)
    assert got == complex(mpmath.jacobi(16, mpmath.mpf(3) / 8, mpmath.mpf(5) / 8, x))

    m, x = mpmath.mpf(-5) / 8, mpmath.mpf(-2100) / 1024
    got = oracle.ExactEvaluator("pasternack", 20, ["-5/8"], 1024).value(-2100)
    assert got == complex(mpmath.hyp3f2(-20, 21, (1 + m + x) / 2, 1, m + 1, 1))

    a, b, c, d = (mpmath.mpf(k) / 8 for k in (3, 5, 7, 1))
    n, z = 9, mpmath.mpf(-1500) / 1024
    want = (1j ** n * mpmath.rf(a + c, n) * mpmath.rf(a + d, n) / mpmath.factorial(n)
            * mpmath.hyp3f2(-n, n + a + b + c + d - 1, a + 1j * z, a + c, a + d, 1))
    got = oracle.ExactEvaluator("chahn", n, ["3/8", "5/8", "7/8", "1/8"], 1024).value(-1500)
    assert abs(got - complex(want)) <= 1e-15 * abs(complex(want))

    # complex arguments, as the eval workload draws them
    z = mpmath.mpc(-1500, 700) / 1024
    want = (1j ** n * mpmath.rf(a + c, n) * mpmath.rf(a + d, n) / mpmath.factorial(n)
            * mpmath.hyp3f2(-n, n + a + b + c + d - 1, a + 1j * z, a + c, a + d, 1))
    got = oracle.ExactEvaluator("chahn", n, ["3/8", "5/8", "7/8", "1/8"], 1024).value(-1500, 700)
    assert abs(got - complex(want)) <= 1e-15 * abs(complex(want))
    z = mpmath.mpc(300, -900) / 1024
    want = mpmath.jacobi(16, mpmath.mpf(3) / 8, mpmath.mpf(5) / 8, z)
    got = oracle.ExactEvaluator("jacobi", 16, ["3/8", "5/8"], 1024).value(300, -900)
    assert abs(got - complex(want)) <= 1e-15 * abs(complex(want))


def test_gram_norm_matches_hahnlab_closed_form_at_degree_zero():
    # Barnes' first lemma with all parameters 1/2: Gamma(1)^4 / Gamma(2) = 1
    assert oracle.gram_norms(["1/2", "1/2", "1/2", "1/2"], 1) == [pytest.approx(1.0)]


# -- each output check can fail -------------------------------------------------

def test_eval_check_rejects_a_wrong_value():
    ref = oracle.ExactEvaluator("jacobi", 16, ["3/8", "5/8"], 1024).value(300)
    assert oracle.eval_value_ok([ref.real, ref.imag], ref)
    assert not oracle.eval_value_ok([ref.real * (1 + 1e-9), ref.imag], ref)
    assert not oracle.eval_value_ok([math.inf, 0.0], ref)
    assert not oracle.eval_value_ok("error", ref)
    # a true value outside the double range: only a raised error passes
    assert oracle.eval_value_ok("error", None)
    assert not oracle.eval_value_ok([math.inf, 0.0], None)


def test_gram_check_rejects_a_wrong_matrix():
    norms = oracle.gram_norms(["1", "1/2", "3/4", "5/4"], 3)

    def matrix(diag_scale=1.0, off=0.0):
        return [[[(norms[i] * diag_scale).real, (norms[i] * diag_scale).imag]
                 if i == j else [off * math.sqrt(abs(norms[i] * norms[j])), 0.0]
                 for j in range(3)] for i in range(3)]

    assert oracle.gram_matrix_ok(matrix(), norms)
    assert not oracle.gram_matrix_ok(matrix(diag_scale=1 + 1e-7), norms)
    assert not oracle.gram_matrix_ok(matrix(off=1e-9), norms)
    assert not oracle.gram_matrix_ok(matrix()[:2], norms)


def test_verify_check_counts_failures_and_rejects_a_changed_list():
    names = oracle.verify_names()
    assert len(names) == 245
    report = [{"name": n, "status": "pass"} for n in names]
    assert oracle.verify_outcome(report, names) == (True, 0)
    report[3]["status"] = "fail"
    assert oracle.verify_outcome(report, names) == (True, 1)
    assert not oracle.verify_outcome(report[1:], names)[0]
    renamed = [dict(r) for r in report]
    renamed[0]["name"] += "x"
    assert not oracle.verify_outcome(renamed, names)[0]


def test_check_outputs_counts_one_wrong_value():
    spec = eval_spec(3)
    spec["cases"] = spec["cases"][:2]
    reference = oracle.eval_oracle(spec)
    values = [[[v.real, v.imag] for v in case] for case in reference]
    assert run.check_outputs("eval", {"values": values}, reference)[1:] == (0, True)
    values[0][5][0] *= 1 + 1e-6
    assert run.check_outputs("eval", {"values": values}, reference)[1:] == (1, True)
    assert not run.check_outputs("eval", {"values": values[:1]}, reference)[2]


# -- the benchmark as a whole ---------------------------------------------------

def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = [(name, unit) for name, unit, _ in run.LAYER_METRICS] + list(run.TRACE_RUN_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_seed_draws_the_inputs():
    assert eval_spec(5) == eval_spec(5) and eval_spec(5) != eval_spec(6)
    assert gram_spec(5) == gram_spec(5) and gram_spec(5) != gram_spec(6)


@pytest.mark.parametrize("workload", ["eval", "verify-all", "gram"])
def test_traced_counts_repeat_exactly(workload):
    args = ["--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1"]
    first, second = _result(_run_bench(*args)), _result(_run_bench(*args))
    assert first["correct"] and second["correct"]
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] != "s"}
    assert counts == {k: v["value"] for k, v in second["metrics"].items()
                      if v["unit"] != "s"}
    assert counts["trace.spans"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run_bench("--workload", "eval", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
