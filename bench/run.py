"""hahnlab benchmark: end-to-end costs per workload, or per-layer costs.

    python3 bench/run.py --workload verify-all|gram|eval --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Every run of the workload is a fresh child
interpreter (bench/child.py) that imports hahnlab from ./src, so imports,
lru caches and the Gram node cache start cold, as for a CLI user.  One
caller, closed loop: children run one after another, single-threaded,
until the next one would end after --seconds.

--trace 0 reports the end-to-end metrics (medians over the children),
with every time scaled to a reference machine speed (bench/calibrate.py).
--trace 1 alternates untraced and traced children and reports per-layer
counts and self times from the traced ones (bench/spans.py), plus the
tracing overhead.  Reference values are computed before the first child
starts and every output is checked (bench/oracle.py).  The last line of
standard output is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from calibrate import speed_factor
from workloads import WORKLOADS, make_spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "hahnlab-bench"
# a run must end within 180 s; a child that outlives this is killed
RUN_LIMIT_S = 150.0
# set-up-only children before the timed ones: setup_s is the median over
# these and the timed children
SETUP_PROBES = 8

SUITE_NAMES = ("barnes", "bateman", "pasternack", "biortho", "jacobi-ortho",
               "chahn-gram", "fourier", "mellin", "parseval", "contiguous",
               "genfun-jacobi", "genfun-chahn", "jacobi-classical", "operator",
               "shifted-operator", "recurrence", "reflection")

# span names (bench/spans.py) behind each per-layer metric
_EVAL = ("polynomials.jacobi_eval", "polynomials.chahn_eval",
         "polynomials.pasternack_eval")
FLOAT_EVAL = tuple(e + "[float]" for e in _EVAL)
EXACT_EVAL = tuple(e + "[exact]" for e in _EVAL)
EXACT_BUILD = ("polynomials.jacobi_coeffs_exact", "polynomials.chahn_coeffs_exact",
               "polynomials.pasternack_coeffs_exact")
COEFFS_COMPLEX = ("polynomials.jacobi_coeffs_complex",
                  "polynomials.chahn_coeffs_complex",
                  "polynomials.pasternack_coeffs_complex")
SECH_CHECKS = ("orthogonality.bateman_ortho_check",
               "orthogonality.pasternack_ortho_check",
               "orthogonality.pasternack_biortho_check")


def _pair(cls: str, op: str) -> tuple:
    return (f"{cls}.__{op}__", f"{cls}.__r{op}__")


def _calls(s, names):
    return sum(s["by_name"].get(n, {}).get("calls", 0) for n in names)


def _self(s, names):
    return sum(s["by_name"].get(n, {}).get("self_s", 0.0) for n in names)


def _wall(s, names):
    return sum(s["by_name"].get(n, {}).get("wall_s", 0.0) for n in names)


def _ratio(num, den):
    return num / den if den else 0.0


def _radius(s, how):
    radii = s["truncation_radii"]
    return how(radii) if radii else 0.0


def _layer_table():
    """(metric, unit, extractor from a trace summary); all lower is better."""
    t = []

    def calls_and_self(metric, names):
        t.append((f"{metric}.calls", "count", lambda s: _calls(s, names)))
        t.append((f"{metric}.self_s", "s", lambda s: _self(s, names)))

    def self_only(metric, names):
        t.append((f"{metric}.self_s", "s", lambda s: _self(s, names)))

    calls_and_self("numerics.log_gamma_complex", ("numerics.log_gamma_complex",))
    calls_and_self("numerics.hahn_weight_log", ("numerics.hahn_weight_log",))
    calls_and_self("polynomials.horner", ("polynomials.horner",))
    calls_and_self("polynomials.float_eval", FLOAT_EVAL)
    t.append(("polynomials.float_eval.wall_s", "s", lambda s: _wall(s, FLOAT_EVAL)))
    calls_and_self("polynomials.exact_eval", EXACT_EVAL)
    t.append(("polynomials.exact_eval.wall_s", "s", lambda s: _wall(s, EXACT_EVAL)))
    calls_and_self("polynomials.exact_build", EXACT_BUILD)
    t.append(("polynomials.exact_builds_per_exact_eval", "1",
              lambda s: _ratio(_calls(s, EXACT_BUILD), _calls(s, EXACT_EVAL))))
    calls_and_self("polynomials.coeffs_complex", COEFFS_COMPLEX)
    calls_and_self("exact.gr_mul", _pair("exact.GaussianRational", "mul"))
    calls_and_self("exact.gr_div", _pair("exact.GaussianRational", "truediv"))
    calls_and_self("exact.poly_mul", _pair("exact.ExactPoly", "mul"))
    t.append(("exact.poly_mul.coeff_products", "count",
              lambda s: s["poly_coeff_products"]))
    calls_and_self("series.mul", _pair("series.FormalSeries", "mul"))
    calls_and_self("series.compose", ("series.FormalSeries.compose",))
    calls_and_self("series.reciprocal", ("series.FormalSeries.reciprocal",))
    for name in ("genfun_jacobi_check", "genfun_chahn_check", "contiguous_check",
                 "jacobi_classical_check"):
        self_only(f"identities.{name}", (f"identities.{name}",))
    for name in ("hahn_operator_identity_check", "shifted_operator_identity_check",
                 "derive_recurrence"):
        self_only(f"operator_calculus.{name}", (f"operator_calculus.{name}",))
    calls_and_self("quadrature.integrate_line", ("quadrature.integrate_line",))
    t.append(("quadrature.evaluations", "count",
              lambda s: _calls(s, ("quadrature.integrand",))))
    t.append(("quadrature.panels", "count", lambda s: _calls(s, ("quadrature.panel",))))
    t.append(("quadrature.envelope.calls", "count",
              lambda s: _calls(s, ("quadrature.envelope",))))
    t.append(("quadrature.truncation_radius.mean", "1",
              lambda s: _radius(s, statistics.fmean)))
    t.append(("quadrature.truncation_radius.max", "1", lambda s: _radius(s, max)))
    self_only("quadrature.integrand", ("quadrature.integrand",))
    for name in ("fourier_pair_check", "mellin_pair_check", "parseval_check"):
        self_only(f"transforms.{name}", (f"transforms.{name}",))
    self_only("orthogonality.chahn_gram", ("orthogonality.chahn_gram",))
    t.append(("orthogonality.gram.integrand_evals", "count",
              lambda s: s["gram_integrand_evals"]))
    t.append(("orthogonality.gram.weight_evals", "count",
              lambda s: s["gram_weight_evals"]))
    t.append(("orthogonality.gram.node_reuse", "1",
              lambda s: _ratio(s["gram_integrand_evals"], s["gram_weight_evals"])))
    self_only("orthogonality.sech_checks", SECH_CHECKS)
    self_only("orthogonality.jacobi_ortho_check", ("orthogonality.jacobi_ortho_check",))
    self_only("orthogonality.barnes_check", ("orthogonality.barnes_check",))
    for suite in SUITE_NAMES:
        t.append((f"suite.{suite}.wall_s", "s",
                  lambda s, k=f"suite.{suite}": _wall(s, (k,))))
    t.append(("cli.report_write_s", "s",
              lambda s: _wall(s, ("cli.cmd_verify",)) - _wall(s, ("suites.run_suites",))))
    t.append(("trace.spans", "count", lambda s: s["spans"]))
    return t


LAYER_METRICS = _layer_table()
# filled in from the untraced and traced children of a --trace 1 run
TRACE_RUN_METRICS = (("trace.wall_s", "s"), ("trace.overhead_s", "s"))
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


# -- checking one child's outputs ----------------------------------------------

def check_outputs(workload: str, outputs: dict, reference) -> tuple[int, int, bool]:
    """(operations attempted, operations failed, outputs have the expected
    shape).  An operation is a check, a Gram matrix or a value."""
    if workload == "verify-all":
        report = outputs["report"]
        names_ok, failed = oracle.verify_outcome(report, reference)
        exit_ok = outputs["exit_code"] == (0 if failed == 0 else 1)
        return len(report), failed, names_ok and exit_ok
    if workload == "gram":
        attempted = failed = 0
        shape_ok = len(outputs["matrices"]) == len(reference)
        for row, norms_row in zip(outputs["matrices"], reference):
            shape_ok = shape_ok and len(row) == len(norms_row)
            for matrix, norms in zip(row, norms_row):
                attempted += 1
                if matrix == "error" or not oracle.gram_matrix_ok(matrix, norms):
                    failed += 1
        return attempted, failed, shape_ok
    attempted = failed = 0
    shape_ok = len(outputs["values"]) == len(reference)
    for got_case, ref_case in zip(outputs["values"], reference):
        shape_ok = shape_ok and len(got_case) == len(ref_case)
        for got, ref in zip(got_case, ref_case):
            attempted += 1
            if not oracle.eval_value_ok(got, ref):
                failed += 1
    return attempted, failed, shape_ok


def reference_for(workload: str, spec: dict):
    if workload == "verify-all":
        return oracle.verify_names()
    if workload == "gram":
        return oracle.gram_oracle(spec)
    return oracle.eval_oracle(spec)


# -- running children ----------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("HAHNLAB_TOL", None)
    return env


def run_child(spec_path: Path, tag: str, mode: list[str], timeout: float):
    """One fresh interpreter; its result dict, or None if it failed."""
    result_path = WORK / f"result-{tag}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(spec_path),
           str(result_path), str(WORK), *mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        print(f"child {tag} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"child {tag} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    if not Path(result["hahnlab_file"]).resolve().is_relative_to(SRC.resolve()):
        print(f"child {tag} imported hahnlab from {result['hahnlab_file']}",
              file=sys.stderr)
        return None
    return result


def run_children(spec: dict, tag: str, seconds: float, trace: bool):
    """Children in a closed loop until the next would overrun `seconds`."""
    spec_path = WORK / f"spec-{spec['workload']}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    # one span file per workload, overwritten by each traced child
    trace_path = WORK / f"trace-{spec['workload']}.spans"
    start = time.monotonic()
    setups = []
    for i in range(SETUP_PROBES):
        result = run_child(spec_path, f"{tag}-setup-{i}", ["--setup-only"], RUN_LIMIT_S)
        if result is None:
            return setups, {}, True
        setups.append(scaled(result, "setup_s"))
    kinds = (False, True) if trace else (False,)
    last = {}
    results = {k: [] for k in kinds}
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        elapsed = time.monotonic() - start
        if i >= len(kinds) and elapsed + last[traced] > seconds:
            break
        t0 = time.monotonic()
        result = run_child(spec_path, f"{tag}-{i}",
                           ["--trace", str(trace_path)] if traced else [],
                           max(10.0, RUN_LIMIT_S - elapsed))
        last[traced] = time.monotonic() - t0
        if result is None:
            return setups, results, True
        results[traced].append(result)
        setups.append(scaled(result, "setup_s"))
        i += 1
    return setups, results, False


# -- aggregation and output ----------------------------------------------------

def scaled(result: dict, key: str) -> float:
    """A time the child measured, at the reference speed (bench/calibrate.py)."""
    speed = result["setup_speed"] if key == "setup_s" else result["speed"]
    return result[key] * speed_factor(speed)


def _scaled_median(results: list[dict], key: str) -> float:
    return statistics.median(scaled(r, key) for r in results)


def end_to_end_metrics(plain: list[dict], setups: list[float]) -> dict:
    metrics = {"wall_s": _scaled_median(plain, "wall_s"),
               "cpu_s": _scaled_median(plain, "cpu_s"),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics and the names of counts that differ between traced
    runs (they must repeat exactly)."""
    metrics, unsteady = {}, []
    for name, unit, get in LAYER_METRICS:
        if unit == "s":
            value = statistics.median(get(r["trace"]) * speed_factor(r["speed"])
                                      for r in traced)
        else:
            values = {get(r["trace"]) for r in traced}
            if len(values) > 1:
                unsteady.append(name)
            value = min(values)
        metrics[name] = {"value": value, "unit": unit}
    traced_wall = _scaled_median(traced, "wall_s")
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - _scaled_median(plain, "wall_s"),
                                   "unit": "s"}
    return metrics, unsteady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hahnlab" / "__init__.py").is_file():
        print(f"error: no hahnlab package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)

    spec = make_spec(args.workload, args.seed)
    reference = reference_for(args.workload, spec)
    setups, results, broken = run_children(spec, f"{args.workload}-{args.seed}",
                                           args.seconds, bool(args.trace))
    if broken:
        print("error: a child run failed; no result", file=sys.stderr)
        return 1

    attempted = failed = 0
    correct = True
    for r in (r for rs in results.values() for r in rs):
        a, f, shape_ok = check_outputs(args.workload, r["outputs"], reference)
        attempted += a
        failed += f
        correct = correct and shape_ok

    plain = results[False]
    raw_walls = sorted(r["wall_s"] for r in plain)
    lines = [f"workload {args.workload}, seed {args.seed}: {attempted} operations "
             f"checked, {failed} failed, fail_frac {failed / attempted:.6f}",
             f"{len(plain)} untraced runs; raw wall_s median "
             f"{statistics.median(raw_walls):.4f} (min {raw_walls[0]:.4f}, max "
             f"{raw_walls[-1]:.4f}); times below are at the reference speed "
             f"(bench/calibrate.py)"]
    if args.trace:
        metrics, unsteady = layer_metrics(plain, results[True])
        if unsteady:
            correct = False
            lines.append(f"counts that differ between traced runs: {unsteady}")
        lines.append(f"{len(results[True])} traced runs; spans in {WORK}")
    else:
        metrics = end_to_end_metrics(plain, setups)
    for name, m in metrics.items():
        lines.append(f"  {name:56s} {m['value']:.6g} {m['unit']}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
