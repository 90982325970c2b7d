"""One run of one workload in a fresh interpreter.

Usage: child.py SPEC_JSON RESULT_JSON WORK_DIR [--setup-only | --trace FILE]

Imports hahnlab (from PYTHONPATH), turns the plain-data spec into hahnlab
inputs, runs the workload once and writes its outputs and costs to
RESULT_JSON: the set-up time, the workload's wall and CPU time, the
machine-speed samples taken after the set-up and during the workload
(bench/calibrate.py), and the peak resident memory.
--setup-only stops after the set-up; --trace runs the workload traced
(spans.Tracer) and writes the span arrays to FILE.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

REPORT = "verify-report.json"


def build_inputs(spec: dict) -> dict:
    """hahnlab objects for the spec; part of the measured set-up."""
    from hahnlab.exact import GaussianRational
    from hahnlab.polynomials import HahnParams, JacobiParams

    parse = GaussianRational.parse

    def exact(text):
        v = parse(text)
        return Fraction(v.re) if v.is_real() else v

    def floating(text):
        v = parse(text)
        return float(v.re) if v.is_real() else v.to_complex()

    workload = spec["workload"]
    if workload == "gram":
        return {"tuples": [[(exact if t["mode"] == "exact" else floating)(p)
                            for p in t["params"]] for t in spec["tuples"]]}
    if workload == "eval":
        p = spec["params"]
        # exact parameters as `hahnlab eval` parses them; float ones as a
        # library caller passes them
        by_mode = {
            "exact": {"jacobi": JacobiParams(*map(parse, p["jacobi"])),
                      "chahn": HahnParams(*map(parse, p["chahn"])),
                      "pasternack": exact(p["pasternack"][0])},
            "float": {"jacobi": JacobiParams(*map(floating, p["jacobi"])),
                      "chahn": HahnParams(*map(floating, p["chahn"])),
                      "pasternack": floating(p["pasternack"][0])},
        }
        denom = spec["x_denom"]
        return {"cases": [(c["family"], c["n"], by_mode[c["mode"]][c["family"]],
                           [complex(re / denom, im / denom) for re, im in c["x"]])
                          for c in spec["cases"]]}
    return {}


def peak_rss_mb() -> float:
    """This process's own resident-memory high-water mark.  (ru_maxrss is
    not used: across exec it keeps the parent's size if that was larger.)"""
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def _pair(value: complex) -> list:
    return [value.real, value.imag]


# A workload is a list of segments, each a call into hahnlab that returns
# its piece of the outputs; outputs_of() converts the pieces after timing.

def verify_segments(spec: dict, inputs: dict, work: Path) -> list:
    from hahnlab import cli

    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["verify", "--suite", "all", "--out", str(work / REPORT)])
    return [verify]


def gram_segments(spec: dict, inputs: dict, work: Path) -> list:
    from hahnlab import orthogonality
    from hahnlab.errors import HahnlabError

    def gram(size, params):
        try:
            return orthogonality.chahn_gram(size, *params).matrix
        except HahnlabError:
            return "error"
    return [functools.partial(gram, size, params)
            for params, t in zip(inputs["tuples"], spec["tuples"])
            for size in t["sizes"]]


def eval_segments(spec: dict, inputs: dict, work: Path) -> list:
    from hahnlab import polynomials
    from hahnlab.errors import HahnlabError

    def values(fn, n, params, xs):
        out = []
        for x in xs:
            try:
                out.append(_pair(complex(fn(n, params, x))))
            except HahnlabError:
                out.append("error")
            except (ArithmeticError, ValueError):
                out.append("exception")
        return out

    return [functools.partial(values, getattr(polynomials, f"{f}_eval"), n, params, xs)
            for f, n, params, xs in inputs["cases"]]


def outputs_of(spec: dict, pieces: list, work: Path) -> dict:
    """The segments' pieces as the parent's checks expect them."""
    if spec["workload"] == "verify-all":
        return {"exit_code": pieces[0],
                "report": json.loads((work / REPORT).read_text(encoding="utf-8"))}
    if spec["workload"] == "gram":
        it = iter(pieces)
        return {"matrices": [[m if m == "error" else [[_pair(v) for v in row] for row in m]
                              for m in (next(it) for _ in t["sizes"])]
                             for t in spec["tuples"]]}
    return {"values": pieces}


SEGMENTS = {"verify-all": verify_segments, "gram": gram_segments,
            "eval": eval_segments}


def main(argv: list[str]) -> int:
    import calibrate

    spec_path, result_path, work = Path(argv[0]), Path(argv[1]), Path(argv[2])
    mode = argv[3:]
    trace_path = Path(mode[1]) if mode[:1] == ["--trace"] else None
    # reading the spec is the benchmark's own work: not part of the set-up
    t0 = time.perf_counter()
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    spec_s = time.perf_counter() - t0
    import hahnlab
    inputs = build_inputs(spec)
    setup_s = time.perf_counter() - _T0 - spec_s
    calibrate.warm_up()
    result = {"hahnlab_file": hahnlab.__file__, "setup_s": setup_s,
              "setup_speed": calibrate.samples(10)}
    if mode == ["--setup-only"]:
        result_path.write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if trace_path is not None:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    segments = SEGMENTS[spec["workload"]](spec, inputs, work)
    with calibrate.SpeedSampler() as sampler:
        c0, w0 = time.process_time(), time.perf_counter()
        pieces = [segment() for segment in segments]
        wall_s = time.perf_counter() - w0
        cpu_s = time.process_time() - c0
    result["peak_rss_mb"] = peak_rss_mb()
    result["wall_s"] = wall_s - sampler.busy_s
    result["cpu_s"] = cpu_s - sampler.busy_s
    result["speed"] = sampler.durations or result["setup_speed"]
    result["outputs"] = outputs_of(spec, pieces, work)
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(trace_path)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
