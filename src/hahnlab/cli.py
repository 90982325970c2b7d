"""Command line front end.

Three subcommands: eval (single polynomial values, computed exactly and
printed exactly or rounded once to float), verify (named check suites,
JSON report array), gram (continuous Hahn Gram matrix to CSV plus JSON
summary).  Exit codes: 0 pass, 1 any verification failure (or a quadrature
that does not converge), 2 usage or domain error, or an output file that
cannot be written.

The library's gates decide what input is valid; a HahnlabError or an
OSError is printed as one line "error: ...", never a traceback.  One table
(_FAMILIES) gives eval its parameter options, their check and its build.
Parameter grammar, used everywhere (GaussianRational.parse): rationals as
p/q, decimals allowed, complex values as a+bi / a-bi.  File outputs are
deterministic for identical inputs; each file-producing run writes a
manifest alongside its outputs (its timestamp is outside that guarantee).
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from .errors import DomainError, HahnlabError, QuadratureError, _complex, _require_tolerance
from .exact import GaussianRational
from .polynomials import (HahnParams, JacobiParams, chahn_coeffs_exact,
                          jacobi_coeffs_exact, pasternack_coeffs_exact)
from .orthogonality import chahn_gram
from .suites import SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

# family: (its parameter options, in order, and its exact build from n and
# their parsed values); m = 0 is the Bateman polynomial
_FAMILIES = {
    "jacobi": (JacobiParams._fields, lambda n, *p: jacobi_coeffs_exact(n, JacobiParams(*p))),
    "chahn": (HahnParams._fields, lambda n, *p: chahn_coeffs_exact(n, HahnParams(*p))),
    "bateman": ((), lambda n: pasternack_coeffs_exact(n, 0)),
    "pasternack": (("m",), pasternack_coeffs_exact),
}


def _format_complex(value: complex) -> str:
    if value.imag == 0.0:
        return repr(value.real)
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real!r}{sign}{abs(value.imag)!r}i"


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_manifest(command: str, parameters: dict, outputs: list[Path]):
    """The record of a file-producing run, beside its first output: the
    timestamp lives only here, outside the byte-identical guarantee."""
    _write_json(outputs[0].with_suffix(outputs[0].suffix + ".manifest.json"), {
        "command": command,
        "parameters": {k: str(v) for k, v in parameters.items()},
        "seed_independent": True,
        "outputs": [str(p) for p in outputs],
        "timestamp": datetime.now(timezone.utc).isoformat(),
    })


def _tolerance(text: str) -> float:
    """A tolerance option by the library's rule, or a usage error before any work."""
    try:
        return _require_tolerance("tolerance", float(text))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_eval(args) -> int:
    """Both modes evaluate the exact polynomial at the exact x; float mode
    rounds that value once."""
    x = GaussianRational.parse(args.x)
    names, build = _FAMILIES[args.family]
    value = build(args.n, *(GaussianRational.parse(getattr(args, k)) for k in names))(x)
    print(str(value) if args.mode == "exact" else _format_complex(_complex("value", value)))
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = run_suites(args.suite, tol=args.rel_tol)
    out_path = Path(args.out)
    _write_json(out_path, [r.to_dict() for r in reports])
    _write_manifest("verify", {"suite": args.suite, "rel_tol": args.rel_tol,
                               "out": args.out}, [out_path])
    failed = [r for r in reports if not r.passed]
    for r in reports:
        print(f"{r.status.upper():5s} {r.name}")
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed; "
          f"report written to {out_path}")
    return EXIT_OK if not failed else EXIT_VERIFICATION_FAILED


def cmd_gram(args) -> int:
    params = {k: GaussianRational.parse(getattr(args, k)) for k in ("alpha", "beta", "a", "b")}
    result = chahn_gram(args.size, *params.values())
    out_csv = Path(args.out)
    out_csv.write_text(result.to_csv_text(), encoding="utf-8")
    summary = result.to_summary_dict()
    summary["parameters"] = {k: str(v) for k, v in params.items()}
    ok = (result.max_diag_rel_err <= args.diag_rel_tol
          and result.max_offdiag_scaled <= args.offdiag_scaled_tol)
    summary["status"] = "pass" if ok else "fail"
    summary_path = out_csv.with_suffix(".summary.json")
    _write_json(summary_path, summary)
    _write_manifest("gram", {"size": args.size, **summary["parameters"], "out": args.out},
                    [out_csv, summary_path])
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
    p_eval.add_argument("family", choices=list(_FAMILIES))
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--x", required=True)
    p_eval.add_argument("--mode", choices=["float", "exact"], default="float")
    for family, (names, _) in _FAMILIES.items():
        for name in names:
            p_eval.add_argument(f"--{name}", help=f"{family} parameter")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all",
                          help=f"'all' or a name filter over: {', '.join(sorted(SUITES))}")
    p_verify.add_argument("--out", default="verify_report.json")
    p_verify.add_argument("--rel-tol", type=_tolerance, default=None,
                          help="relative tolerance of the verdicts (default each check's "
                               "own); the quadrature's targets are fixed")
    p_verify.set_defaults(func=cmd_verify)

    p_gram = sub.add_parser("gram", help="continuous Hahn Gram matrix")
    p_gram.add_argument("--size", type=int, required=True, metavar="N")
    for name in ("alpha", "beta", "a", "b"):
        p_gram.add_argument(f"--{name}", required=True)
    p_gram.add_argument("--out", default="gram.csv")
    p_gram.add_argument("--diag-rel-tol", type=_tolerance, default=1e-8)
    p_gram.add_argument("--offdiag-scaled-tol", type=_tolerance, default=1e-10,
                        help="bound on |G_nm| / sqrt(|h_n h_m|), n != m")
    p_gram.set_defaults(func=cmd_gram)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in _FAMILIES[args.family][0] if args.command == "eval" else ():
        if getattr(args, name) is None:
            parser.error(f"eval {args.family} requires --{name}")
    try:
        return args.func(args)
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except (HahnlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
