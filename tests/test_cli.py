import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import besselhr
from besselhr import invariants, series
from besselhr.cli import main, parse_complex, parse_grid, parse_weight
from besselhr.core import SignVector, SpectralIndex

# the subprocess imports the same besselhr as this process, also when it was
# found through pytest's pythonpath setting rather than an installed package
_PACKAGE_ROOT = str(Path(besselhr.__file__).resolve().parents[1])


def run_cli(args):
    path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "besselhr.cli"] + args,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return proc


def test_parse_complex():
    assert parse_complex("0.3") == 0.3
    assert parse_complex("0.2+0.1i") == 0.2 + 0.1j
    assert parse_complex("-0.5i") == -0.5j


def test_parse_grid():
    g = parse_grid("log:0.1:100:4")
    assert len(g) == 4 and abs(g[0] - 0.1) < 1e-12 and abs(g[-1] - 100) < 1e-9
    assert parse_grid("1,2,5") == [1.0, 2.0, 5.0]


def test_parse_weight():
    w = parse_weight("gaussian-log:eta=1,mu=0.5,width=2")
    assert w.eta == 1 and w.mu == 0.5 and w.width == 2.0


def test_eval_rank1(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(
        [
            "eval",
            "--n",
            "1",
            "--signs",
            "+",
            "--lambda",
            "0",
            "--x",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# {")
    header = json.loads(lines[0][2:])
    assert "config_sha256" in header
    row = lines[2].split(",")
    assert abs(float(row[1]) - math.cos(1.0)) < 1e-10
    assert abs(float(row[2]) - math.sin(1.0)) < 1e-10


def test_eval_rank2_k_pattern(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(
        [
            "eval",
            "--n",
            "2",
            "--signs",
            "+-",
            "--lambda",
            "0.25,-0.25",
            "--x",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    row = out.read_text().splitlines()[2].split(",")
    want = math.sqrt(math.pi) * math.exp(-2.0) * complex(
        math.cos(-math.pi / 4), math.sin(-math.pi / 4)
    )
    assert abs(float(row[1]) - want.real) < 1e-9
    assert abs(float(row[2]) - want.imag) < 1e-9


def test_eval_usage_error():
    proc = run_cli(
        ["eval", "--n", "2", "--signs", "+-", "--lambda", "0.25", "--x", "1.0"]
    )
    assert proc.returncode == 2


def test_eval_missing_flag_exits_2():
    proc = run_cli(["eval", "--n", "1", "--x", "1.0"])
    assert proc.returncode == 2


def test_eval_missing_point_exits_2(capsys):
    # neither --x nor --x-grid: a usage error, not a traceback
    rc = main(
        ["eval", "--method", "series", "--n", "3", "--signs", "++-",
         "--lambda", "0.3,-0.1,-0.2"]
    )
    assert rc == 2
    assert "provide --x or --x-grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--n", "1", "--signs", "+", "--lambda", "0", "--x", "1", "--out"],
        ["verify", "coeffs", "--out"],
    ],
    ids=["eval", "verify"],
)
def test_unwritable_out_exits_2(argv, tmp_path, capsys):
    # an --out path in a missing directory is a usage error, not a traceback
    rc = main(argv + [str(tmp_path / "missing" / "out.txt")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_eval_numeric_failure_exits_3(tmp_path):
    # an unattainable quadrature tolerance must flag the row and exit 3
    out = tmp_path / "r.csv"
    rc = main(
        [
            "eval",
            "--method",
            "mb",
            "--n",
            "2",
            "--signs",
            "++",
            "--lambda",
            "0.3,-0.3",
            "--x",
            "5.0",
            "--tol",
            "1e-30",
            "--out",
            str(out),
        ]
    )
    assert rc == 3
    row = out.read_text().splitlines()[2]
    assert "tolerance-not-met" in row


def test_eval_series_precision_ceiling_exits_3(capsys):
    # the value is far below double range, past what the big-float rounds
    # resolve at their precision ceiling: the series points to the
    # asymptotic route
    import time

    t0 = time.perf_counter()
    rc = main(
        ["eval", "--method", "series", "--n", "3", "--signs", "++-",
         "--lambda", "0.3,-0.1,-0.2", "--x", "300"]
    )
    assert rc == 3
    assert time.perf_counter() - t0 < 10.0
    err = capsys.readouterr().err
    assert "asymptotic route" in err
    # the estimated magnitude is below double range, printed as a big float
    assert "achieved 0.00e+00" not in err and "e-34" in err


def test_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = [
        "eval",
        "--n",
        "3",
        "--signs",
        "++-",
        "--lambda",
        "0.3,-0.1,-0.2",
        "--x-grid",
        "log:0.5:5:7",
        "--method",
        "mb",
        "--tol",
        "1e-9",
    ]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_coeffs_command(tmp_path):
    out = tmp_path / "c.json"
    rc = main(
        [
            "coeffs",
            "--n",
            "3",
            "--lambda",
            "0.3,-0.1,-0.2",
            "--xi",
            "1",
            "--terms",
            "10",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    rows = payload["rows"]
    b0 = [r for r in rows if r[0] == "B" and r[1] == 0][0]
    assert float(b0[3]) == 1.0 and float(b0[4]) == 0.0
    # exact integers as decimal strings
    a_rows = [r for r in rows if r[0] == "A"]
    assert all(isinstance(r[3], str) for r in a_rows)


def test_kernel_command(tmp_path):
    out = tmp_path / "k.csv"
    rc = main(
        [
            "kernel",
            "--n",
            "2",
            "--lambda",
            "0.3i,-0.3i",
            "--delta",
            "0,0",
            "--x-grid",
            "log:0.5:10:5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "x,re,im,err,method,cancellation"
    assert len(lines) == 2 + 5


def test_verify_identity54():
    rc = main(["verify", "identity54"])
    assert rc == 0


def test_verify_runtimes_within_wall_time(tmp_path):
    # each check is timed on its own, so the runtimes of one suite add up to
    # no more than the whole command (each rounded to 1 ms, hence the slack)
    out = tmp_path / "v.json"
    t0 = time.perf_counter()
    rc = main(["verify", "coeffs", "--out", str(out)])
    wall = time.perf_counter() - t0
    assert rc == 0
    runtimes = [c["runtime_s"] for c in json.loads(out.read_text())["checks"]]
    assert sum(runtimes) <= wall + 0.0005 * len(runtimes)


def test_verify_suites_partition_registry():
    # every entry sits in exactly one suite, under a unique name
    names = [inv.name for inv in invariants.REGISTRY]
    assert len(set(names)) == len(names)
    per_suite = [inv for s in invariants.suites() for inv in invariants.suite(s)]
    assert sorted(inv.name for inv in per_suite) == sorted(names)
    # the README's verify line names exactly the registry's suites
    readme = Path(__file__).resolve().parents[1] / "README.md"
    line = next(
        ln for ln in readme.read_text().splitlines() if ln.startswith("besselhr verify ")
    )
    assert sorted(line.split(" ", 2)[2].split("|")) == invariants.suites()


def test_verify_unknown_suite():
    rc = main(["verify", "nonsense"])
    assert rc == 2


def test_oracle_compare(tmp_path):
    out = tmp_path / "cmp.csv"
    rc = main(
        [
            "oracle",
            "compare",
            "--methods",
            "series,mb",
            "--n",
            "3",
            "--signs",
            "++-",
            "--lambda",
            "0.3,-0.1,-0.2",
            "--x-grid",
            "2,4",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    hdr = lines[1].split(",")
    assert "diff_series_mb" in hdr
    for line in lines[2:]:
        assert float(line.split(",")[-1]) < 1e-7


def test_transform_command_with_fe_report(tmp_path):
    out = tmp_path / "ups.csv"
    rep = tmp_path / "fe.json"
    rc = main(
        [
            "transform",
            "--n",
            "2",
            "--lambda",
            "0.25i,-0.25i",
            "--delta",
            "0,0",
            "--weight",
            "gaussian-log:eta=0",
            "--x-grid",
            "log:0.5:2:3",
            "--fe-report",
            str(rep),
            "--s-points",
            "0.5,0.5+1i",
        ]
    )
    assert rc == 0
    payload = json.loads(rep.read_text())
    assert payload["functional_equation"]["passed"]
    lines = out.read_text().splitlines() if out.exists() else []
    # transform table went to stdout in this invocation; the report is the
    # artifact under test here
    assert payload["functional_equation"]["max_rel_error"] < 1e-6


def test_transform_panel_budget_exits_2(capsys):
    # |x| = 1e9 needs more transform panels than the grid's budget: a usage
    # error raised while the panel edges are laid out, before any kernel work
    rc = main(
        ["transform", "--n", "2", "--lambda", "0.25i,-0.25i", "--delta", "0,0",
         "--weight", "gaussian-log:eta=0", "--x-grid", "1e9"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "panel budget" in err and len(err.strip().splitlines()) == 1


def test_transform_tiny_tol_names_the_weight_window(capsys):
    # a one-point grid at --tol 1e-200: the weight window, cut at tol * 1e-3,
    # takes the kernel table past its panel budget, and the one error line
    # names that window and the tolerance
    rc = main(
        ["transform", "--n", "2", "--lambda", "0.25i,-0.25i", "--delta", "0,0",
         "--weight", "gaussian-log:eta=0", "--x-grid", "1", "--tol", "1e-200"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "weight window log|y| in [-21.6, 21.6] at tol 1e-200" in err
    assert "20000-panel budget" in err


def test_transform_fe_report_budget_names_the_checks_grid(capsys, tmp_path):
    # rank 1 at width 2: the table fits its budget, the FE check's own grid
    # does not, and the error names that grid, the rank and the width, not
    # the x grid
    rc = main(
        ["transform", "--n", "1", "--lambda", "0", "--delta", "0", "--weight",
         "gaussian-log:eta=0,width=2", "--x-grid", "1.0", "--tol", "1e-2", "--s-points", "0.5",
         "--out", str(tmp_path / "t.csv"), "--fe-report", str(tmp_path / "fe.json")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "functional-equation check's kernel grid" in err and "x grid" not in err
    assert "weight width 2" in err and "at rank 1" in err
    assert not (tmp_path / "fe.json").exists()
    assert not (tmp_path / "t.csv").exists()


_RANK2 = ["--n", "2", "--lambda", "0.2,-0.2"]


def _usage_error(argv, capsys, flag_text):
    # exit 2 with one "error:" line that names what is wrong
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag_text in err
    assert "unpack" not in err and "invalid literal" not in err


@pytest.mark.parametrize(
    "extra, text",
    [
        (["--x", "-1"], "modulus must be positive"),
        (["--x", "inf"], "--x must be finite"),
        (["--x", "nan"], "--x must be finite"),
        (["--x-grid", "1,inf"], "grid points must be finite"),
        (["--x-grid", ","], "grid has no points"),
        (["--x-grid", "log:1:nan:3"], "grid endpoints must be finite"),
        (["--x", "1", "--tol", "0"], "--tol"),
        (["--x", "1", "--tol", "nan"], "--tol"),
        (["--x", "1", "--arg", "nan"], "--arg must be finite"),
        (["--x", "1", "--arg", "inf"], "--arg must be finite"),
        (["--x", "1", "--arg=-inf", "--method", "asympt"], "--arg must be finite"),
        (["--x", "4", "--arg", "0.5", "--method", "mb"],
         "the Mellin-Barnes route takes positive real x"),
        (["--x-grid", "1,4", "--arg", "-3.14", "--method", "mb"],
         "the Mellin-Barnes route takes positive real x"),
        (["--x", "1", "--n", "3"], "--lambda has 2 entries but --n 3"),
        (["--x", "1", "--signs", "+++"], "--signs length must match the rank"),
    ],
    ids=["negative-x", "inf-x", "nan-x", "inf-grid", "empty-grid", "nan-endpoint", "zero-tol",
         "nan-tol", "nan-arg", "inf-arg", "minus-inf-arg", "mb-off-axis", "mb-grid-off-axis",
         "lambda-count", "signs-count"],
)
def test_eval_out_of_domain_exits_2(extra, text, capsys):
    _usage_error(["eval", "--signs", "++"] + _RANK2 + extra, capsys, text)


@pytest.mark.parametrize(
    "extra, text",
    [
        (["--x-grid", "inf"], "grid points must be finite"),
        (["--x-grid", "1,-inf"], "grid points must be finite"),
        (["--x-grid", "lin:1:2:0"], "grid has no points"),
        (["--x-grid", "lin:-inf:2:3"], "grid endpoints must be finite"),
        (["--x-grid", "1", "--tol", "-1"], "--tol"),
        (["--x-grid", "1", "--tol", "nan"], "--tol"),
        (["--x-grid", "log:1:4"], "log:lo:hi:n"),
        (["--x-grid", "lin:1:4:2.5"], "(n an integer)"),
        (["--x-grid", "1,a"], "a comma list of numbers"),
        (["--x-grid", "1", "--delta", "a"], "comma-separated 0/1 parities"),
        (["--x-grid", "1", "--delta", "2,0"], "comma-separated 0/1 parities"),
        (["--x-grid", "foo:1:2:3"], "grid must be log:lo:hi:n or lin:lo:hi:n"),
        (["--x-grid", "log:0:1:5"], "log grid needs positive endpoints"),
    ],
    ids=["inf-grid", "minus-inf-grid", "empty-grid", "inf-endpoint", "negative-tol", "nan-tol",
         "short-range", "fractional-count", "non-number", "non-integer-delta",
         "delta-not-a-parity", "unknown-grid-kind", "log-grid-at-zero"],
)
def test_kernel_out_of_domain_exits_2(extra, text, capsys):
    _usage_error(["kernel", "--delta", "0,0"] + _RANK2 + extra, capsys, text)


@pytest.mark.parametrize(
    "extra, text",
    [
        (["--x-grid", "inf"], "grid points must be finite"),
        (["--x-grid", "log:1:4:-1"], "grid has no points"),
        (["--x-grid", "1", "--tol", "0"], "--tol"),
        (["--x-grid", "1", "--tol", "nan"], "--tol"),
        (["--x-grid", "1", "--fe-tol", "nan"], "--fe-tol"),
        (["--x-grid", "1", "--weight", "gaussian-log:width=nan"], "must be finite"),
        (["--x-grid", "1", "--weight", "gaussian-log:mu=inf"], "must be finite"),
        (["--x-grid", "1", "--weight", "gaussian-log:amplitude=nan"], "must be finite"),
        (["--x-grid", "1", "--weight", "gaussian-log:width"], "key=value"),
        (["--x-grid", "1", "--weight", "gaussian-log:eta=1.5"], "key=value"),
        (["--x-grid", "1", "--delta", "0,x"], "comma-separated 0/1 parities"),
        (["--x-grid", "1", "--weight", "box:eta=0"], "only the gaussian-log weight is supported"),
        (["--x-grid", "1", "--weight", "gaussian-log:sigma=1"], "unknown weight parameter sigma"),
    ],
    ids=["inf-grid", "empty-grid", "zero-tol", "nan-tol", "nan-fe-tol", "nan-width", "inf-mu",
         "nan-amplitude", "key-without-value", "non-integer-eta", "non-integer-delta",
         "unknown-weight", "unknown-weight-parameter"],
)
def test_transform_out_of_domain_exits_2(extra, text, capsys, tmp_path):
    argv = ["transform", "--delta", "0,0"] + _RANK2 + extra
    _usage_error(argv + ["--fe-report", str(tmp_path / "fe.json")], capsys, text)


@pytest.mark.parametrize(
    "points, text",
    [("1e300", "not (1e+300+0j)"), ("0.5,nan", "not (nan+0j)"), ("0.5,3", "not (3+0j)"),
     ("0.5+1i,-3", "not (-3+0j)")],
    ids=["huge", "nan", "right-of-line", "left-of-line"],
)
def test_transform_s_points_off_the_line_exit_2(points, text, capsys, tmp_path):
    # the FE check takes finite s on Re s = 1/2, the line its grid is sized
    # for: any other point is a usage error, raised before the table is written
    out = tmp_path / "t.csv"
    argv = ["transform", "--delta", "0,0"] + _RANK2 + ["--x-grid", "1", "--out", str(out)]
    _usage_error(argv + ["--s-points", points, "--fe-report", str(tmp_path / "fe.json")],
                 capsys, text)
    assert not out.exists() and not (tmp_path / "fe.json").exists()


def test_transform_fe_report_refuses_unresolvable_s_points(capsys, tmp_path):
    # width 2 at the default s points: 0.5+2i is past what the check can
    # resolve, a usage error raised before the table is written
    out = tmp_path / "t.csv"
    argv = ["transform", "--delta", "0,0"] + _RANK2 + [
        "--weight", "gaussian-log:width=2", "--x-grid", "1", "--out", str(out)]
    _usage_error(argv + ["--fe-report", str(tmp_path / "fe.json")], capsys, "cannot resolve s = (0.5+2j)")
    assert not out.exists() and not (tmp_path / "fe.json").exists()


def test_transform_fe_report_refuses_a_weight_wider_than_it_resolves(capsys, tmp_path):
    # width 2.5 at 0.5+0.94i lies inside the quarter bound, but the check
    # resolves widths up to 2: a usage error raised before the table is written
    out = tmp_path / "t.csv"
    argv = ["transform", "--delta", "0,0"] + _RANK2 + [
        "--weight", "gaussian-log:width=2.5", "--x-grid", "1", "--out", str(out),
        "--s-points", "0.5+0.94i"]
    _usage_error(argv + ["--fe-report", str(tmp_path / "fe.json")], capsys, "not 2.5")
    assert not out.exists() and not (tmp_path / "fe.json").exists()


def test_transform_fe_report_failing_check_exits_1(tmp_path):
    # a check that misses --fe-tol exits 1 after writing the table and a
    # report that says it failed
    out, rep = tmp_path / "t.csv", tmp_path / "fe.json"
    rc = main(["transform", "--delta", "0,0"] + _RANK2 + [
        "--x-grid", "1,2", "--out", str(out), "--fe-report", str(rep), "--fe-tol", "1e-12"])
    assert rc == 1
    assert len([r for r in out.read_text().splitlines() if not r.startswith("#")]) == 3
    fe = json.loads(rep.read_text())["functional_equation"]
    assert fe["passed"] is False and fe["max_rel_error"] >= 1e-12


def test_transform_fe_report_follows_the_weight_centre(tmp_path):
    # the FE check's nodes move with the weight's centre mu, so mu = 5 passes
    rep = tmp_path / "fe.json"
    rc = main(
        ["transform", "--n", "2", "--lambda", "0.25i,-0.25i", "--delta", "0,0",
         "--weight", "gaussian-log:mu=5", "--x-grid", "1", "--out", str(tmp_path / "t.csv"),
         "--fe-report", str(rep)]
    )
    assert rc == 0
    assert json.loads(rep.read_text())["functional_equation"]["max_rel_error"] < 1e-6


def test_grid_too_many_points_exits_2(capsys):
    # a count past the fixed limit is refused before the grid is built
    _usage_error(
        ["eval", "--signs", "++"] + _RANK2 + ["--x-grid", "log:1:2:100000000000"],
        capsys,
        "exceeds the limit of 1000000",
    )


def test_transform_underflowing_grid_point_exits_2(capsys, tmp_path):
    # x = 5e-324 would take the kernel table to nodes e^u that underflow:
    # exit 2 naming the |x| the transform can serve, not a math domain error
    argv = ["transform", "--delta", "0,0"] + _RANK2 + ["--x-grid", "5e-324,1"]
    _usage_error(argv + ["--fe-report", str(tmp_path / "fe.json")], capsys, "|x| >= 2.7e-306")
    assert not (tmp_path / "fe.json").exists()


@pytest.mark.parametrize(
    "extra, text",
    [
        (["--x-grid", "inf"], "grid points must be finite"),
        (["--x-grid", "lin:0.5:nan:2"], "grid endpoints must be finite"),
        (["--x-grid", "1", "--tol", "0"], "--tol"),
        (["--x-grid", "1", "--tol", "nan"], "--tol"),
    ],
    ids=["inf-grid", "nan-endpoint", "zero-tol", "nan-tol"],
)
def test_oracle_out_of_domain_exits_2(extra, text, capsys):
    _usage_error(["oracle", "compare", "--signs", "++"] + _RANK2 + extra, capsys, text)


@pytest.mark.parametrize(
    "extra, text",
    [
        (["--n", "0"], "--n must be at least 1"),
        (["--n", "-2"], "--n must be at least 1"),
        (["--n", "2", "--lambda", "0.3,-0.3", "--terms", "100"], "m_terms must lie in [0, 40]"),
    ],
    ids=["0", "-2", "terms-past-cap"],
)
def test_coeffs_out_of_domain_exits_2(extra, text, capsys):
    _usage_error(["coeffs"] + extra, capsys, text)


def test_eval_index_beyond_the_series_head_exits_3(capsys):
    # lambda_1 - lambda_2 = 1e17 is an integer: the series of J_1 has 1e17
    # head terms before its pole crossings end, past any round's term cap,
    # so it fails at once, before any head is built
    t0 = time.perf_counter()
    rc = main(["eval", "--n", "2", "--signs", "++", "--lambda", "1e17,0", "--x", "1"])
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr().out
    assert rc == 3 and "head terms, past the 50006 a big-float round sums" in out


def test_eval_signs_of_two_minus(capsys):
    # argparse reads a value of exactly "--" as the end of the options;
    # --signs=-- is the rank-2 sign vector with both signs minus
    assert main(["eval", "--n", "2", "--signs=--", "--lambda", "0.3,-0.3", "--x", "1"]) == 0
    text = capsys.readouterr().out
    assert '"signs": "--"' in text
    row = text.splitlines()[2].split(",")
    want = series.j_function(1.0, SignVector("--"), SpectralIndex([0.3, -0.3]), 1e-10)
    assert complex(float(row[1]), float(row[2])) == want.value


def test_kernel_validity_floor_overflow_exits_3(capsys):
    # |lambda| = 5e299: the asymptotic validity floor overflows double range
    rc = main(["kernel", "--n", "2", "--lambda", "1e300,0", "--delta", "0,0", "--x-grid", "1"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


def test_eval_huge_finite_x_exits_3(tmp_path):
    # x = 1e308 is finite but beyond the series: the row carries the error
    out = tmp_path / "r.csv"
    rc = main(["eval", "--signs", "++"] + _RANK2 + ["--x", "1e308", "--out", str(out)])
    assert rc == 3
    assert "asymptotic route" in out.read_text().splitlines()[2]


def test_kernel_reports_its_asymptotic_start(capsys):
    # the config names where the kernel's asymptotic zone starts,
    # max(6, (max|lambda|+1)^2), and a forced asymptotic route below it
    # exits 2 naming that start
    args = ["kernel", "--n", "3", "--lambda", "1.8,-0.6,-1.2", "--delta", "0,0,0"]
    assert main(args + ["--x-grid", "3"]) == 0
    header = json.loads(capsys.readouterr().out.splitlines()[0][2:])
    policy = header["config"]["asympt_policy"]
    assert policy["kernel_start"] == pytest.approx(7.84)
    assert policy["validity_floor"] == 4 * policy["kernel_start"]
    assert main(args + ["--x-grid", "1", "--method", "asympt"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "asymptotic start 7.84" in err and err.count("\n") == 1


def test_kernel_without_a_correct_digit_exits_3(capsys):
    # the asymptotic error at x = 1e308 exceeds the value by 140 orders
    rc = main(["kernel", "--delta", "0,0"] + _RANK2 + ["--x-grid", "1e12,1e308"])
    rows = capsys.readouterr().out.splitlines()[2:]
    assert rc == 3
    assert rows[0].endswith(",asymptotic,0.7071067806573058")
    assert rows[1] == "1e+308,nan,nan,inf,failed,0.0"
    assert main(["kernel", "--delta", "0,0"] + _RANK2 + ["--x-grid", "1e12"]) == 0


def test_kernel_subnormal_values_report_nonzero_errors(capsys):
    # far out on the decaying side the values are subnormal and their
    # truncation errors underflow first: each row still reports an error
    rc = main(["kernel", "--delta", "0,0"] + _RANK2 + ["--x-grid=-3250,-3300,-3350,-3400"])
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[2:]]
    assert rc == 0 and len(rows) == 4
    for _, re, _, err, method, _ in rows:
        assert 0 < abs(float(re)) < 1e-300 and 0 < float(err) < 1e-300
        assert method == "asymptotic"


def test_oracle_compare_overflowing_contour_warns_nothing():
    # far out on the contour the integrand overflows: the one line on
    # stderr is the quadrature's own failure, with no numpy warning
    proc = run_cli(["oracle", "compare", "--signs", "++"] + _RANK2 + ["--x-grid", "1e308"])
    assert proc.returncode == 3
    assert proc.stderr == "numeric failure: contour tail does not come under control\n"


def test_oracle_compare_series_failure_exits_3():
    # at x = 1e200 the series would need a 45 000-digit round: the command
    # ends with one line on stderr instead of writing a nan series column
    proc = run_cli(
        ["oracle", "compare", "--methods", "series,asympt", "--n", "3", "--signs", "++-",
         "--lambda", "0.3,-0.1,-0.2", "--x-grid", "1e200"]
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("numeric failure: ") and proc.stderr.count("\n") == 1
    assert "beyond the series" in proc.stderr


def test_oracle_compare_keeps_routes_out_of_reach():
    # below its validity floor the asymptotic route has no value: nan columns
    # and exit 0, as in the README example
    rc = main(["oracle", "compare", "--methods", "series,asympt", "--n", "3", "--signs", "++-",
               "--lambda", "0.3,-0.1,-0.2", "--x-grid", "1,14"])
    assert rc == 0


def test_mellin_barnes_overflow_exits_3_without_nan_rows():
    # at x = 1e308 (kernel) and 1e200 (sign vector) the contour panels
    # overflow double range: the quadrature raises instead of summing nan
    # panels, and numpy prints no warning
    proc = run_cli(
        ["kernel", "--method", "mb", "--delta", "0,0"] + _RANK2 + ["--x-grid", "1e308"]
    )
    assert proc.returncode == 3
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[2:] == ["1e+308,nan,nan,inf,failed,0.0"]
    proc = run_cli(
        ["oracle", "compare", "--methods", "series,mb,asympt", "--n", "3", "--signs", "++-",
         "--lambda", "0.3,-0.1,-0.2", "--x-grid", "1e200"]
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("numeric failure: ") and proc.stderr.count("\n") == 1
    assert "not finite" in proc.stderr


def test_eval_where_the_double_pass_overflows_exits_0(capsys):
    # n|z| = 605 at |lambda| = 10: the double pass overflows and the first
    # big-float round is sized from the e^{n|z|} ridge, not from a nan bound
    rc = main(["eval", "--method", "series", "--n", "5", "--signs", "+++++", "--lambda="
               "5.692829635933802,2.1664743919927028,-1.404513404879658,-10,3.545209376953153",
               "--x", "121"])
    assert rc == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert all(math.isfinite(float(v)) for v in row[1:4]) and row[-1] == "ok"
