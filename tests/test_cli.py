"""Command line interface: values, exit codes, reports, manifests."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hahnlab
from hahnlab.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_jacobi_float(capsys):
    code, out, _ = run_cli(["eval", "jacobi", "--n", "2", "--gamma", "0",
                            "--delta", "0", "--x", "0"], capsys)
    assert code == 0
    assert out.strip() == "-0.5"


def test_eval_jacobi_exact(capsys):
    code, out, _ = run_cli(["eval", "jacobi", "--n", "2", "--gamma", "0",
                            "--delta", "0", "--x", "0", "--mode", "exact"], capsys)
    assert code == 0
    assert out.strip() == "-1/2"


def test_eval_chahn_trivial(capsys):
    code, out, _ = run_cli(["eval", "chahn", "--n", "0", "--a", "1/2", "--b", "1/2",
                            "--c", "1/2", "--d", "1/2", "--x", "3"], capsys)
    assert code == 0
    assert out.strip() == "1.0"


def test_eval_pasternack_exact(capsys):
    code, out, _ = run_cli(["eval", "pasternack", "--n", "1", "--m", "1/2",
                            "--x", "1", "--mode", "exact"], capsys)
    assert code == 0
    assert out.strip() == "-2/3"


def test_eval_bateman(capsys):
    code, out, _ = run_cli(["eval", "bateman", "--n", "1", "--x", "1/4",
                            "--mode", "exact"], capsys)
    assert code == 0
    assert out.strip() == "-1/4"


def test_eval_domain_error_exit_2(capsys):
    # (m+1)_n = 0: Pasternack's 3F2 has a pole there that nothing cancels
    code, _, err = run_cli(["eval", "pasternack", "--n", "2", "--m", "-2",
                            "--x", "0", "--mode", "exact"], capsys)
    assert code == 2
    assert err == "error: (m+1)_k vanishes for k <= 2\n"


def test_eval_jacobi_at_a_removable_pole(capsys):
    # (gamma+1)_k = 0 from k = 1 on, cancelled by the prefactor (gamma+1)_n / n!:
    # P_2^(-1, 0)(x) = (x-1)(1+3x) / 4 (Szego (4.22.2))
    code, out, _ = run_cli(["eval", "jacobi", "--n", "2", "--gamma", "-1",
                            "--delta", "0", "--x", "0", "--mode", "exact"], capsys)
    assert code == 0
    assert out.strip() == "-1/4"


def test_eval_missing_parameter_exit_2():
    # argparse error paths call sys.exit(2)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "jacobi", "--n", "2", "--x", "0"])
    assert exc.value.code == 2


def test_eval_unparseable_exit_2(capsys):
    code, _, err = run_cli(["eval", "jacobi", "--n", "1", "--gamma", "zebra",
                            "--delta", "0", "--x", "0"], capsys)
    assert code == 2


def test_eval_float_mode_rounds_exact_value(capsys):
    # mpmath at 50 digits: P_64^(0.3, 0.7)(0.4) = 0.0370323749150287099...
    code, out, _ = run_cli(["eval", "jacobi", "--n", "64", "--gamma", "0.3",
                            "--delta", "0.7", "--x", "0.4"], capsys)
    assert code == 0
    assert out.strip() == "0.03703237491502871"


@pytest.mark.parametrize("argv", [
    ["jacobi", "--n", "80", "--gamma", "0.3", "--delta", "0.7", "--x", "0.4"],
    ["chahn", "--n", "200", "--a", "1/2", "--b", "1/2", "--c", "1/2",
     "--d", "1/2", "--x", "3"],
])
def test_eval_above_exact_cap_exit_2(argv, capsys):
    # the cap holds in float mode too: the float term sum is far off at
    # these degrees (of order -1e18 for the Jacobi case, NaN for the Hahn one)
    code, out, err = run_cli(["eval", *argv], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: n must be an int in 0..64, got {argv[2]}\n"


def test_verify_suite_writes_report_and_manifest(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(["verify", "--suite", "barnes",
                               "--out", str(out)], capsys)
    assert code == 0
    assert "PASS" in stdout
    payload = json.loads(out.read_text())
    assert all(r["status"] == "pass" for r in payload)
    assert all("max_rel_err" in r for r in payload)
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["outputs"] == [str(out)]
    assert manifest["seed_independent"] is True
    assert "timestamp" in manifest


def test_verify_reruns_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(["verify", "--suite", "reflection", "--out", str(out1)], capsys)[0] == 0
    assert run_cli(["verify", "--suite", "reflection", "--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_unknown_suite_exit_2(tmp_path, capsys):
    """run_suites' DomainError, printed as it reads: no quotes around it, as
    a KeyError's str would add, and nothing written."""
    code, _, err = run_cli(["verify", "--suite", "no-such-suite",
                            "--out", str(tmp_path / "r.json")], capsys)
    assert code == 2
    assert err == ("error: no suite matches 'no-such-suite'; known: barnes, bateman, biortho, "
                   "chahn-gram, contiguous, fourier, genfun-chahn, genfun-jacobi, "
                   "jacobi-classical, jacobi-ortho, mellin, operator, parseval, pasternack, "
                   "recurrence, reflection, shifted-operator\n")
    assert not any(tmp_path.iterdir())


def test_verify_impossible_tolerance_exit_1(tmp_path, capsys):
    code, stdout, _ = run_cli(["verify", "--suite", "barnes", "--rel-tol", "1e-30",
                               "--out", str(tmp_path / "r.json")], capsys)
    assert code == 1
    assert "FAIL" in stdout


def test_verify_reads_no_tolerance_from_the_environment(tmp_path, capsys, monkeypatch):
    """--rel-tol is the one way to set the verdicts' tolerance."""
    monkeypatch.setenv("HAHNLAB_TOL", "1e-30")
    assert run_cli(["verify", "--suite", "barnes", "--out", str(tmp_path / "r.json")],
                   capsys)[0] == 0


def test_eval_value_past_the_double_range_exit_2(capsys):
    """The exact value at a 401-digit x is computed; its rounding to float is
    the gate's RangeOverflowError, not an OverflowError traceback."""
    argv = ["eval", "jacobi", "--n", "2", "--gamma", "0", "--delta", "0", "--x", "1" + "0" * 400]
    assert run_cli(argv, capsys) == (2, "", "error: value is past the double range\n")
    code, out, _ = run_cli([*argv, "--mode", "exact"], capsys)
    assert code == 0 and out == f"{3 * 10**800 - 1}/2\n"  # P_2 = (3x^2 - 1) / 2


_INVALID_TOLERANCES = ["nan", "inf", "-inf", "-1e-8", "1e400"]
_GRAM_4 = ["gram", "--size", "4", "--alpha", "1/2", "--beta", "1/2", "--a", "1/2",
           "--b", "1/2"]


@pytest.mark.parametrize("value", _INVALID_TOLERANCES)
@pytest.mark.parametrize("command, flag", [
    (["verify", "--suite", "barnes"], "--rel-tol"),
    (_GRAM_4, "--diag-rel-tol"),
    (_GRAM_4, "--offdiag-scaled-tol"),
])
def test_invalid_tolerance_flag_exit_2(command, flag, value, tmp_path, capsys):
    """NaN fails every comparison and infinity passes every relative one:
    such a tolerance is refused before any work, and nothing is written."""
    with pytest.raises(SystemExit) as exc:
        main([*command, f"{flag}={value}", "--out", str(tmp_path / "o.json")])
    assert exc.value.code == 2
    assert "finite number >= 0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python converts ints to text without a digit limit")
def test_eval_exact_value_too_long_to_print_exit_2(capsys):
    """An exact value past Python's int-to-text digit limit is an error line
    and exit 2, not a ValueError traceback: x has half the limit's digits, so
    P_2(x) = (3x^2 - 1) / 2 has more than the limit."""
    zeros = "0" * (sys.get_int_max_str_digits() // 2 + 1)
    code, out, err = run_cli(["eval", "jacobi", "--n", "2", "--gamma", "0", "--delta", "0",
                              "--x", "1" + zeros, "--mode", "exact"], capsys)
    assert (code, out) == (2, "") and err.startswith("error: exact value too long to print: ")


def test_unwritable_out_exit_2(tmp_path, capsys):
    """An --out in a missing directory is an error line and exit 2, not a
    traceback."""
    out = tmp_path / "missing" / "g.csv"
    assert run_cli([*_GRAM_4, "--out", str(out)], capsys) == \
        (2, "", f"error: [Errno 2] No such file or directory: '{out}'\n")


def test_zero_tolerance_is_accepted(tmp_path, capsys):
    code, _, _ = run_cli(["gram", "--size", "2", "--alpha", "1/2", "--beta", "1/2",
                          "--a", "1/2", "--b", "1/2", "--offdiag-scaled-tol", "0",
                          "--out", str(tmp_path / "z.csv")], capsys)
    assert code == 0


def test_gram_outputs(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, stdout, _ = run_cli(["gram", "--size", "2", "--alpha", "1/2",
                               "--beta", "1/2", "--a", "1/2", "--b", "1/2",
                               "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",0,1"
    summary = json.loads((tmp_path / "g.summary.json").read_text())
    assert summary["status"] == "pass"
    assert abs(summary["measured_diagonal"][0][0] - 1.0) < 1e-9
    assert abs(summary["measured_diagonal"][1][0] - 1.0 / 3.0) < 1e-9
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert manifest["command"] == "gram"
    assert len(manifest["outputs"]) == 2


def test_gram_conjugate_pair_cli(tmp_path, capsys):
    out = tmp_path / "gc.csv"
    code, _, _ = run_cli(["gram", "--size", "2", "--alpha", "1/2+1/4i",
                          "--beta", "3/4-1/4i", "--a", "1/2-1/4i",
                          "--b", "3/4+1/4i", "--out", str(out)], capsys)
    assert code == 0
    summary = json.loads((tmp_path / "gc.summary.json").read_text())
    for re_part, im_part in summary["measured_diagonal"]:
        assert re_part > 0.0
        assert abs(im_part) <= 1e-10


def test_readme_conjugate_pair_gram_writes_real_entries(tmp_path, capsys):
    """The conjugate pair's weight is positive, so the README's gram line for
    it computes in real arithmetic: every CSV entry's imaginary part is 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [line] = [line for line in readme.splitlines()
              if line.startswith("hahnlab gram ") and line.endswith("--out conj.csv")]
    argv = shlex.split(line)[1:]
    out = tmp_path / argv[argv.index("--out") + 1]
    argv[argv.index("--out") + 1] = str(out)
    assert run_cli(argv, capsys)[0] == 0
    cells = [cell for row in out.read_text().splitlines()[1:] for cell in row.split(",")[1:]]
    assert len(cells) == 16 and all(cell.endswith("+0j") for cell in cells)


def test_gram_rerun_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run_cli(["gram", "--size", "3", "--alpha", "1", "--beta", "1/2",
                        "--a", "3/4", "--b", "5/4", "--out", str(path)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gram_unreachable_tolerance_exit_1(tmp_path, capsys):
    code, stdout, _ = run_cli(["gram", "--size", "3", "--alpha", "1", "--beta", "1/2",
                               "--a", "3/4", "--b", "5/4", "--diag-rel-tol", "1e-30",
                               "--out", str(tmp_path / "t.csv")], capsys)
    assert code == 1
    assert "fail" in stdout


def test_gram_size_16_exact_parameters(tmp_path, capsys):
    code, stdout, _ = run_cli(["gram", "--size", "16", "--alpha", "1/2", "--beta", "1/2",
                               "--a", "1/2", "--b", "1/2",
                               "--out", str(tmp_path / "g16.csv")], capsys)
    assert code == 0
    summary = json.loads((tmp_path / "g16.summary.json").read_text())
    assert summary["max_offdiag_scaled"] <= 1e-10
    assert summary["evaluations"] > 0 and summary["estimated_error"] > 0.0


def test_gram_offdiag_scaled_tol_flag(tmp_path, capsys):
    args = ["gram", "--size", "3", "--alpha", "1", "--beta", "1/2", "--a", "3/4",
            "--b", "5/4", "--out", str(tmp_path / "s.csv")]
    assert run_cli(args + ["--offdiag-scaled-tol", "1e-30"], capsys)[0] == 1
    assert run_cli(args + ["--offdiag-scaled-tol", "1e-6"], capsys)[0] == 0
    with pytest.raises(SystemExit):
        main(args + ["--offdiag-abs-tol", "1e-6"])


def test_gram_parse_error_exit_2(tmp_path, capsys):
    code, _, _ = run_cli(["gram", "--size", "2", "--alpha", "zebra", "--beta", "1/2",
                          "--a", "1/2", "--b", "1/2",
                          "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["eval", "jacobi", "--n", "2", "--x", "1/0", "--gamma", "0", "--delta", "0"],
    ["eval", "jacobi", "--n", "2", "--x", "1+1/0i", "--gamma", "0", "--delta", "0"],
    ["gram", "--size", "4", "--alpha", "1/0", "--beta", "1", "--a", "1", "--b", "1"],
], ids=["eval-real", "eval-imaginary", "gram"])
def test_zero_denominator_is_a_usage_error(argv, tmp_path, capsys):
    """A zero denominator on the command line is a usage error naming the
    text, not a traceback."""
    code, _, err = run_cli([*argv, *(["--out", str(tmp_path / "z.csv")] if argv[0] == "gram"
                                     else [])], capsys)
    assert code == 2
    assert err.startswith("error:") and "1/0" in err


def _child_env() -> dict:
    """The environment of a child that imports the same hahnlab as this
    process, installed or not."""
    src = os.path.dirname(os.path.dirname(hahnlab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "hahnlab.cli", "eval", "chahn",
                           "--n", "1", "--a", "1/2", "--b", "1/2", "--c", "1/2",
                           "--d", "1/2", "--x", "1", "--mode", "exact"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


def test_runtime_is_stdlib_only():
    """Importing every hahnlab module loads no numpy, scipy or mpmath."""
    code = ("import importlib, pkgutil, sys, hahnlab\n"
            "for info in pkgutil.iter_modules(hahnlab.__path__):\n"
            "    importlib.import_module('hahnlab.' + info.name)\n"
            "print(' '.join(m for m in ('numpy', 'scipy', 'mpmath') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


_LOADS_ONLY_WHAT_IT_USES = """
import sys
import hahnlab
assert [m for m in sys.modules if m.startswith("hahnlab.")] == [], "eager submodule"
import hahnlab.polynomials
loaded = [m for m in ("dataclasses", "inspect", "hahnlab.numerics", "hahnlab.quadrature",
                      "hahnlab.orthogonality") if m in sys.modules]
assert not loaded, loaded
assert hahnlab.numerics is sys.modules["hahnlab.numerics"]
assert hahnlab.numerics.log_gamma(1).log_modulus == 0.0
try:
    hahnlab.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
import hahnlab.cli
assert "dataclasses" not in sys.modules
star = {}
exec("from hahnlab import *", star)
del star["__builtins__"]
assert sorted(star) == sorted(hahnlab.__all__), sorted(star)
for name in hahnlab.__all__:
    if name != "__version__":
        obj = getattr(hahnlab, name)
        assert obj.__module__.startswith("hahnlab."), name
        assert obj is getattr(sys.modules[obj.__module__], name) is star[name], name
assert set(hahnlab.__all__) <= set(dir(hahnlab))
import pkgutil
for info in pkgutil.iter_modules(hahnlab.__path__):
    assert getattr(hahnlab, info.name) is sys.modules["hahnlab." + info.name], info.name
print("ok")
"""


def test_each_import_loads_only_what_it_uses():
    """import hahnlab loads no submodule; hahnlab.polynomials loads no
    dataclasses or inspect and none of the quadrature modules; hahnlab.cli
    loads no dataclasses.  The package namespace serves each exported name
    as its home module's object, also by a star import, and each submodule
    as an attribute; an unknown name raises AttributeError."""
    proc = subprocess.run([sys.executable, "-c", _LOADS_ONLY_WHAT_IT_USES],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_operator_calculus_loads_no_quadrature_module():
    """The recurrence check takes the closed-form recurrence from
    polynomials, so hahnlab.operator_calculus, in a fresh interpreter, loads
    none of the modules of the float and quadrature side."""
    code = ("import sys, hahnlab.operator_calculus\n"
            "print(' '.join(m for m in ('orthogonality', 'transforms', 'quadrature', 'numerics')\n"
            "               if 'hahnlab.' + m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
