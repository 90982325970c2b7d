"""Command line front end.

Three subcommands: eval (single polynomial values, computed exactly and
printed exactly or rounded once to float), verify (named check suites,
JSON report array), gram (continuous Hahn Gram matrix to CSV plus JSON
summary).  Exit codes: 0 pass, 1 any verification failure, 2 usage or
domain error.

Parameter grammar, used everywhere: rationals as p/q, decimals allowed,
complex values as a+bi / a-bi.  File outputs are deterministic for
identical inputs; each file-producing run writes a manifest alongside
its outputs (the manifest's timestamp is outside the byte-identical
guarantee).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from datetime import datetime, timezone
from pathlib import Path

from .errors import HahnlabError, QuadratureError
from .exact import GaussianRational
from .polynomials import (HahnParams, JacobiParams, chahn_coeffs_exact,
                          jacobi_coeffs_exact, pasternack_coeffs_exact)
from .orthogonality import chahn_gram
from .suites import SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2


def parse_scalar(text: str) -> GaussianRational:
    return GaussianRational.parse(text)


def _format_complex(value: complex) -> str:
    if value.imag == 0.0:
        return repr(value.real)
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real!r}{sign}{abs(value.imag)!r}i"


class RunManifest(namedtuple("RunManifest", "command parameters seed_independent outputs")):
    """Record written alongside every file-producing run.

    Reruns with identical command and parameters produce byte-identical
    outputs; the timestamp lives only here and is outside that guarantee.
    """

    __slots__ = ()

    def __new__(cls, command: str, parameters: dict, seed_independent: bool = True,
                outputs: list | None = None):
        return super().__new__(cls, command, parameters, seed_independent,
                               [] if outputs is None else outputs)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": {k: str(v) for k, v in self.parameters.items()},
            "seed_independent": self.seed_independent,
            "outputs": [str(p) for p in self.outputs],
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }


def _write_manifest(command: str, parameters: dict, outputs: list[Path]):
    base = outputs[0]
    manifest_path = base.with_suffix(base.suffix + ".manifest.json")
    manifest = RunManifest(command, parameters, outputs=list(outputs))
    manifest_path.write_text(
        json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def _tolerance(text: str, source: str = "tolerance") -> float:
    """A verdict tolerance from outside the program: a finite float >= 0.
    NaN fails every comparison and infinity passes every relative one, so
    neither is a tolerance."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"{source} must be a finite number >= 0, got {text!r}")
    return value


def _default_rel_tol() -> float | None:
    raw = os.environ.get("HAHNLAB_TOL")
    return _tolerance(raw, "HAHNLAB_TOL") if raw else None


def cmd_eval(args) -> int:
    """Both modes evaluate the exact polynomial at the exact x; float mode
    rounds that value once."""
    x = parse_scalar(args.x)
    if args.family == "jacobi":
        params = JacobiParams(parse_scalar(args.gamma), parse_scalar(args.delta))
        poly = jacobi_coeffs_exact(args.n, params)
    elif args.family == "chahn":
        params = HahnParams(parse_scalar(args.a), parse_scalar(args.b),
                            parse_scalar(args.c), parse_scalar(args.d))
        poly = chahn_coeffs_exact(args.n, params)
    else:  # bateman | pasternack
        m = parse_scalar(args.m) if args.family == "pasternack" else GaussianRational(0)
        poly = pasternack_coeffs_exact(args.n, m)
    value = poly(x)
    print(str(value) if args.mode == "exact" else _format_complex(value.to_complex()))
    return EXIT_OK


def cmd_verify(args) -> int:
    rel_tol = args.rel_tol if args.rel_tol is not None else _default_rel_tol()
    reports = run_suites(args.suite, tol=rel_tol)
    out_path = Path(args.out)
    payload = [r.to_dict() for r in reports]
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    _write_manifest("verify", {"suite": args.suite, "rel_tol": rel_tol,
                               "out": args.out}, [out_path])
    failed = [r for r in reports if not r.passed]
    for r in reports:
        print(f"{r.status.upper():5s} {r.name}")
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed; "
          f"report written to {out_path}")
    return EXIT_OK if not failed else EXIT_VERIFICATION_FAILED


def cmd_gram(args) -> int:
    params = {k: parse_scalar(getattr(args, k)) for k in ("alpha", "beta", "a", "b")}
    result = chahn_gram(args.size, *params.values())
    out_csv = Path(args.out)
    out_csv.write_text(result.to_csv_text(), encoding="utf-8")
    summary = result.to_summary_dict()
    summary["parameters"] = {k: str(v) for k, v in params.items()}
    ok = (result.max_diag_rel_err <= args.diag_rel_tol
          and result.max_offdiag_scaled <= args.offdiag_scaled_tol)
    summary["status"] = "pass" if ok else "fail"
    summary_path = out_csv.with_suffix(".summary.json")
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    _write_manifest("gram", {"size": args.size, **{k: str(v) for k, v in params.items()},
                             "out": args.out}, [out_csv, summary_path])
    print(f"gram {args.size}x{args.size}: max offdiag {result.max_offdiag_abs:.3e}, "
          f"max diag rel err {result.max_diag_rel_err:.3e} -> {summary['status']}")
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hahnlab",
        description="Evaluate and verify Jacobi / continuous Hahn polynomial identities",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one polynomial value")
    p_eval.add_argument("family", choices=["jacobi", "chahn", "bateman", "pasternack"])
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--x", required=True)
    p_eval.add_argument("--mode", choices=["float", "exact"], default="float")
    p_eval.add_argument("--gamma", help="jacobi parameter")
    p_eval.add_argument("--delta", help="jacobi parameter")
    p_eval.add_argument("--a", help="continuous Hahn parameter")
    p_eval.add_argument("--b", help="continuous Hahn parameter")
    p_eval.add_argument("--c", help="continuous Hahn parameter")
    p_eval.add_argument("--d", help="continuous Hahn parameter")
    p_eval.add_argument("--m", help="pasternack parameter")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all",
                          help=f"'all' or a name filter over: {', '.join(sorted(SUITES))}")
    p_verify.add_argument("--out", default="verify_report.json")
    p_verify.add_argument("--rel-tol", type=_tolerance, default=None,
                          help="relative tolerance of the verdicts (default from "
                               "HAHNLAB_TOL, else each check's own); the quadrature's "
                               "targets are fixed")
    p_verify.set_defaults(func=cmd_verify)

    p_gram = sub.add_parser("gram", help="continuous Hahn Gram matrix")
    p_gram.add_argument("--size", type=int, required=True, metavar="N")
    p_gram.add_argument("--alpha", required=True)
    p_gram.add_argument("--beta", required=True)
    p_gram.add_argument("--a", required=True)
    p_gram.add_argument("--b", required=True)
    p_gram.add_argument("--out", default="gram.csv")
    p_gram.add_argument("--diag-rel-tol", type=_tolerance, default=1e-8)
    p_gram.add_argument("--offdiag-scaled-tol", type=_tolerance, default=1e-10,
                        help="bound on |G_nm| / sqrt(|h_n h_m|), n != m")
    p_gram.set_defaults(func=cmd_gram)
    return parser


def _validate_eval_args(args, parser):
    needed = {"jacobi": ("gamma", "delta"), "chahn": ("a", "b", "c", "d"),
              "pasternack": ("m",), "bateman": ()}
    for name in needed[args.family]:
        if getattr(args, name) is None:
            parser.error(f"eval {args.family} requires --{name}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            _validate_eval_args(args, parser)
        return args.func(args)
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except (HahnlabError, KeyError, ValueError, OverflowError,
            argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
