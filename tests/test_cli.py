import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import nphk
from nphk import cli, oscint
from nphk.corpus import CORPUS, CorpusRow, check_affine_invariance, check_row
from conftest import PHASE_TEXTS, join_terms

RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def analyze_json(capsys, *args):
    code = cli.main(["analyze", *args])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestAnalyze:
    def test_nla_d_report(self, capsys):
        code, report = analyze_json(capsys, "--phi", "(y - x^2)^2 + x^7", "--p", "1,4/3,2")
        assert code == 0
        assert report["kind_label"] == "D8"
        assert (report["m"], report["n"]) == ("2", "7")
        assert report["h"] == "7/4" and report["h_lin"] == "5/3"
        assert report["linearly_adapted"] is False
        assert report["multiplicity"] == 0
        assert report["kp_table"] == [
            {"p": "1", "k": "17/7"},
            {"p": "4/3", "k": "6/5"},
            {"p": "2", "k": "0"},
        ]
        assert report["polygon"]["distance"] == "4/3"
        assert report["warnings"] == []
        assert report["profile"] == [
            {"slope": "24/5", "intercept": "0", "u_min": "0", "u_max": "5/12"},
            {"slope": "36/7", "intercept": "-1/7", "u_min": "5/12", "u_max": "1/2"},
        ]

    def test_e6_report(self, capsys):
        code, report = analyze_json(capsys, "--phi", "y^3 + x^4", "--p", "1")
        assert code == 0
        assert report["kind"] == "E6"
        assert report["h"] == "12/7"
        assert report["kp_table"] == [{"p": "1", "k": "29/12"}]
        assert report["profile"] == [{"slope": "29/6", "intercept": "0", "u_min": "0", "u_max": "1/2"}]

    def test_rank_warning_keeps_polygon(self, capsys):
        code, report = analyze_json(capsys, "--phi", "x^2 + y^3")
        assert code == 0
        assert report["warnings"] == ["rank >= 1: out of scope"]
        assert report["polygon"]["vertices"] == [[0, 3], [2, 0]]
        assert "kp_table" not in report

    def test_out_of_scope_with_p_request(self, capsys):
        code, report = analyze_json(capsys, "--phi", "x^2 + y^3", "--p", "1")
        assert code == cli.EXIT_OUT_OF_SCOPE

    def test_parse_error_exit(self, capsys):
        code = cli.main(["analyze", "--phi", "x^^2"])
        assert code == cli.EXIT_PARSE
        payload = json.loads(capsys.readouterr().out)
        assert "error" in payload and payload["exit_code"] == cli.EXIT_PARSE

    def test_bad_p_list_writes_the_error_record_to_the_json_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code = cli.main(["analyze", "--phi", "x^2*y + y^3", "--p", "1,abc", "--json", str(path)])
        assert code == cli.EXIT_PARSE
        printed = capsys.readouterr().out
        assert path.read_text() == printed
        payload = json.loads(printed)
        assert payload["exit_code"] == cli.EXIT_PARSE and "abc" in payload["error"]
        assert printed == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize(
        "phi,bound",
        [
            ("(" * 3000 + "x^2*y + y^3" + ")" * 3000, "MAX_NESTING = 100"),
            ("(x + y)^4000", "MAX_DEGREE = 128"),
            ("y^2 + x^1000000000", "MAX_DEGREE = 128"),
            ("10^999999999 + x^2 + y^2", "MAX_CONSTANT_BITS = 4096"),
            ("(1/3)^5000*x^2 + y^2", "MAX_CONSTANT_BITS = 4096"),
            ("1" * 4301 + "*x^2 + y^2", "MAX_LITERAL_DIGITS = 1234"),
        ],
    )
    def test_input_beyond_a_bound_is_a_parse_error(self, capsys, phi, bound):
        code = cli.main(["analyze", "--phi", phi])
        assert code == cli.EXIT_PARSE
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == cli.EXIT_PARSE and bound in payload["error"]

    def test_rational_field_schema(self, capsys):
        _, report = analyze_json(capsys, "--phi", "(y - x^3)^2 + x^9", "--p", "1,6/5,3/2")
        fields = [report["h"], report["h_lin"], report["polygon"]["distance"]]
        fields += [entry["k"] for entry in report["kp_table"]]
        fields += [entry["p"] for entry in report["kp_table"]]
        for seg in report["profile"]:
            fields += [seg["slope"], seg["intercept"], seg["u_min"], seg["u_max"]]
        for face in report["polygon"]["faces"]:
            fields += [v for point in face["points"] for v in point]
            fields += face.get("weight", [])
        assert all(RATIONAL.match(v) for v in fields)

    def test_determinism(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            cli.main(["analyze", "--phi", "(y - x^2)^2 + x^7", "--p", "1,2", "--json", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_svg_emission(self, capsys, tmp_path):
        svg = tmp_path / "poly.svg"
        code = cli.main(["analyze", "--phi", "x^2*y + y^3", "--svg", str(svg)])
        assert code == 0
        body = svg.read_text()
        assert body.startswith("<svg") and "d=1.5" in body

    def test_json_file_written(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        cli.main(["analyze", "--phi", "x^4 + y^4", "--json", str(path)])
        report = json.loads(path.read_text())
        assert report["kind"] == "CaseC" and report["h"] == "2"

    def test_multiplicity_of_a_double_factor_off_the_axes(self, capsys, tmp_path):
        # the image of x^2*y^2 + x^5 + y^5 under (x, y) -> (x + y, x - y)
        path = tmp_path / "report.json"
        phi = "x^4 - 2*x^2*y^2 + y^4 + 2*x^5 + 20*x^3*y^2 + 10*x*y^4"
        assert cli.main(["analyze", "--phi", phi, "--json", str(path)]) == 0
        report = json.loads(path.read_text())
        assert report["kind"] == "CaseC" and report["multiplicity"] == 1


class TestExactCommandsNeedNoNumpy:
    def _run(self, code):
        env = {**os.environ, "PYTHONPATH": str(Path(nphk.__file__).resolve().parents[1])}
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)

    def test_import_and_analyze_leave_numpy_unloaded(self):
        proc = self._run(
            "import sys, nphk.cli\n"
            "assert 'numpy' not in sys.modules, 'import nphk.cli loaded numpy'\n"
            "code = nphk.cli.main(['analyze', '--phi', 'x^2*y + y^3', '--p', '1,2'])\n"
            "assert 'numpy' not in sys.modules, 'analyze loaded numpy'\n"
            "sys.exit(code)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["kind_label"] == "D4"

    def test_numerical_names_resolve_on_first_use(self):
        proc = self._run(
            "import sys, nphk\n"
            "assert 'fit_decay' in dir(nphk) and 'numpy' not in sys.modules\n"
            "from nphk import fit_decay, AmplitudeSpec\n"
            "import nphk.oscint\n"
            "assert fit_decay is nphk.oscint.fit_decay and AmplitudeSpec is nphk.oscint.AmplitudeSpec\n"
            "assert 'numpy' in sys.modules\n"
        )
        assert proc.returncode == 0, proc.stderr
        with pytest.raises(AttributeError):
            nphk.no_such_name


class TestCorpusCommand:
    def test_full_corpus_passes(self, capsys):
        assert cli.main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS corpus") == len(CORPUS)

    def test_filter(self, capsys):
        assert cli.main(["corpus", "--filter", "E"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS corpus") == 3  # E6, E7, E8

    def test_filter_that_matches_no_row_is_a_parse_error(self, capsys):
        # "0/0 checks passed" with exit 0 would let a mistyped tag pass as a clean run
        assert cli.main(["corpus", "--filter", "D7"]) == cli.EXIT_PARSE
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": "--filter 'D7' matches no corpus row", "exit_code": cli.EXIT_PARSE}

    def test_seeded_invariance_suite_runs(self, capsys):
        assert cli.main(["corpus", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "affine invariance (seed 7)" in out

    def test_poisoned_row_detected(self):
        bad = CorpusRow(
            phase="y^3 + x^4",
            kind_label="E6",
            m=None,
            n=None,
            h=Fraction(12, 7),
            h_lin=Fraction(12, 7),
            linearly_adapted=True,
            kp_at_1=Fraction(29, 12) + Fraction(1, 1000),  # poisoned expectation
        )
        result = check_row(bad)
        assert not result.ok and "k_p(1)" in result.detail

    def test_invariance_compares_images_with_the_pinned_row(self):
        bad = dataclasses.replace(CORPUS[2], m=3)  # D8 row pinned with a wrong m
        result = check_affine_invariance([bad], seed=0)
        assert not result.ok and "m: expected 3, got 2" in result.detail
        assert check_affine_invariance([CORPUS[2]], seed=0).ok


class TestDecayCommand:
    def test_fit_smoke_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "decay.csv"
        code = cli.main(
            ["decay", "--phi", "x^2 + y^2", "--lmin", "64", "--lmax", "256", "--csv", str(csv_path)]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "lambda,re_I,im_I,abs_I,quad_err"
        assert len(lines) == 4
        out = capsys.readouterr().out
        assert "gamma_hat" in out and "1/h" in out

    def test_constant_term_keeps_the_reference_rate(self, capsys):
        # the constant only multiplies I by a unit factor, so 1/h is that of x^2 + y^2
        code = cli.main(["decay", "--phi", "1000000 + x^2 + y^2", "--lmin", "64", "--lmax", "256"])
        assert code == cli.EXIT_OK
        assert "vs 1/h = 1 (1.0000)" in capsys.readouterr().out

    def test_csv_determinism(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            cli.main(
                ["decay", "--phi", "x^2*y + y^3", "--lmin", "64", "--lmax", "256", "--csv", str(path)]
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unconverged_lambda_is_a_warning(self, capsys, monkeypatch):
        lambda_step = oscint._lambda_step

        def flaky(phase, amp, lam, grids, edges, what, validate=True):
            if lam == 128.0:
                raise oscint.QuadratureNotConverged(f"order 10 is off order 14 on {what} by 1.00e+00 (> 0.001)")
            return lambda_step(phase, amp, lam, grids, edges, what, validate)

        monkeypatch.setattr(oscint, "_lambda_step", flaky)
        code = cli.main(["decay", "--phi", "x^2 + y^2", "--lmin", "64", "--lmax", "512"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "warning: lambda=128: order 10 is off order 14 on I(lambda=128.0" in out
        assert "gamma_hat" in out

    def test_two_lambdas_exit_before_any_quadrature(self, capsys, monkeypatch):
        def quadrature(*args):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(oscint, "_lambda_step", quadrature)
        code = cli.main(["decay", "--phi", "x^2 + y^2", "--lmin", "64", "--lmax", "128"])
        assert code == cli.EXIT_NUMERIC
        assert "at least three lambda points, got 2" in json.loads(capsys.readouterr().out)["error"]

    def test_randol_smoke_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "scan.csv"
        code = cli.main(
            [
                "decay",
                "--phi",
                "(y - x^2)^2",
                "--randol",
                "--m",
                "2",
                "--q",
                "2",
                "--grid",
                "8",
                "--lmin",
                "64",
                "--lmax",
                "256",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "s1,s2,M_value"
        assert len(lines) == 65
        assert "q=2" in capsys.readouterr().out

    def test_randol_prints_the_swept_lambda(self, capsys):
        # on the 8-cell grid no point rises after lambda = 512, so the scan stops two octaves on
        code = cli.main(["decay", "--phi", "(y - x^2)^2", "--randol", "--m", "2", "--grid", "8"])
        assert code == 0
        assert "lambda swept 64..2048 of 64..16384\n" in capsys.readouterr().out

    def test_randol_requires_m(self, capsys):
        code = cli.main(["decay", "--phi", "(y - x^2)^2", "--randol"])
        assert code == cli.EXIT_PARSE

    def test_randol_wrong_class_is_out_of_scope(self, capsys):
        code = cli.main(
            ["decay", "--phi", "x^2 + y^2", "--randol", "--m", "2", "--grid", "8", "--lmax", "128"]
        )
        assert code == cli.EXIT_OUT_OF_SCOPE

    def test_zero_phase_analyze_rejected(self, capsys):
        assert cli.main(["analyze", "--phi", "0"]) == cli.EXIT_PARSE

    def test_parse_error(self, capsys):
        assert cli.main(["decay", "--phi", "x +"]) == cli.EXIT_PARSE

    def test_infeasible_lambda(self, capsys):
        code = cli.main(["decay", "--phi", "x^2 + y^2", "--lmin", "64", "--lmax", str(1 << 17)])
        assert code == cli.EXIT_NUMERIC

    def test_infeasible_lambda_randol(self, capsys):
        code = cli.main(
            ["decay", "--phi", "(y - x^2)^2", "--randol", "--m", "2", "--lmin", "65536", "--lmax", "65536"]
        )
        assert code == cli.EXIT_NUMERIC
        assert "feasible" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize(
        "args",
        [
            ["--phi", "x^2 + y^2", "--radius", "1e200", "--lmax", "256"],
            ["--phi", "x^2 + y^2", "--radius", "4"],
            ["--phi", "(y - x^2)^2", "--randol", "--m", "2", "--radius", "1e200", "--lmax", "256"],
            ["--phi", "(y - x^2)^2", "--randol", "--m", "2", "--radius", "4"],
        ],
        ids=["radius-1e200", "radius-4", "randol-radius-1e200", "randol-radius-4"],
    )
    def test_node_budget_is_a_numeric_error(self, capsys, args):
        start = time.perf_counter()
        code = cli.main(["decay", *args])
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_NUMERIC
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == cli.EXIT_NUMERIC
        assert "coarse quadrature nodes" in payload["error"]

    @pytest.mark.parametrize(
        "args",
        [
            ["--radius=-1"],
            ["--radius", "nan"],
            ["--grid", "0"],
            ["--lmin", "0"],
            ["--lmin=-64"],
            ["--lmin", "nan"],
            ["--lmax", "inf"],
            ["--lmin", "1024", "--lmax", "64"],
        ],
        ids=[
            "radius-negative",
            "radius-nan",
            "grid-zero",
            "lmin-zero",
            "lmin-negative",
            "lmin-nan",
            "lmax-inf",
            "lmax-below-lmin",
        ],
    )
    def test_bad_numeric_input_is_a_parse_error(self, capsys, args):
        code = cli.main(["decay", "--phi", "x^2 + y^2", *args])
        assert code == cli.EXIT_PARSE
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == cli.EXIT_PARSE and payload["error"]

    @pytest.mark.parametrize("q", ["0", "-2", "2,0", "8,-1/2"])
    def test_randol_q_not_positive_is_a_parse_error(self, capsys, monkeypatch, q):
        # neither q = 0 (a sum of ones) nor q < 0 (a sum of M^-q) is an L^q signal
        monkeypatch.setattr(oscint, "randol_lq_scan", lambda *args, **kwargs: pytest.fail("scan ran"))
        code = cli.main(["decay", "--phi", "(y - x^2)^2", "--randol", "--m", "2", f"--q={q}", "--grid", "8", "--lmax", "128"])
        assert code == 2 == cli.EXIT_PARSE
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 2
        assert "--q exponents must be positive and finite" in payload["error"]


# -- every analyze input ends in a documented exit code ------------------------------

# malformed text from the same alphabet; the space keeps every integer at most 12
_SOUP = st.lists(
    st.sampled_from(["x", "y", "z", "+", "-", "*", "^", "/", "(", ")", ".", "0", "2", "12", "1/2", "1.5", "^12", ""]),
    max_size=12,
).map(" ".join)
_P_TOKENS = st.sampled_from(
    ["1", "2", "4/3", "3/2", "6/5", "0", "3", "-1", "1/0", "0/0", "abc", "", " ", "1.5", "1e3", "nan", "inf", "2/3/4", "x"]
)
_P_LISTS = st.one_of(
    st.lists(st.sampled_from(["1", "4/3", "3/2", "2"]), max_size=3),
    st.lists(_P_TOKENS, max_size=4),
).map(",".join)


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(PHASE_TEXTS, _SOUP), ps=_P_LISTS)
# degree 128: each took more than 30 s at the fixed truncation 2*deg + 16
@example(text="y^4*(y^3 + y*x^3)*(-1/3 + y^10 - y)^12 + ((y - x^3)^2 + x^9)", ps="")
@example(text="x*(y - x^3)^2 + x^9 + y^4*(y^3 + y*x^3)*(-1/3 + y^10 - y)^12", ps="1,4/3,2")
def test_analyze_ends_in_a_documented_exit_code(text, ps):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(["analyze", "--phi", text, "--p", ps])
        except SystemExit as exc:  # argparse rejects the argument list itself
            code = exc.code
    assert code in {cli.EXIT_OK, cli.EXIT_MISMATCH, cli.EXIT_PARSE, cli.EXIT_OUT_OF_SCOPE, cli.EXIT_NUMERIC}


# -- every decay input ends in a documented exit code --------------------------------

# Small phases: every feasible one costs little at lambda <= 256 and radius <= 1.
_SMALL_LEAVES = st.one_of(
    st.sampled_from(["x", "y", "0", "1", "2", "3/2", "-1/3", "1000000"]),
    st.builds("{}^{}".format, st.sampled_from(["x", "y"]), st.integers(0, 6)),
)
_SMALL_SUMS = st.lists(_SMALL_LEAVES, min_size=1, max_size=3).flatmap(
    lambda parts: st.builds(
        join_terms, st.just(parts), st.lists(st.sampled_from([" + ", " - ", "*"]), min_size=len(parts) - 1, max_size=len(parts) - 1)
    )
)
_DECAY_PHASES = st.one_of(
    st.sampled_from(
        [
            "x^2 + y^2", "x^2*y + y^3", "(y - x^2)^2", "(y - x^2)^2 + x^5", "x*y^2 + x^5", "x^2 + y^2 - 4*x^3",
            "1000000 + x^2 + y^2", "10^400 + x^2 + y^2", "10^400*x^2 + y^2", "10^-400*x^2 + y^2", "x +", "", "z",
        ]
    ),
    st.builds("({})^{}".format, _SMALL_SUMS, st.integers(1, 3)),
    _SMALL_SUMS,
)
# Per option: values that run, then values to spoil it with.  Every window
# that runs holds at most nine lambdas up to 256.
_DECAY_OPTIONS = {
    "window": (
        [("64", "256"), ("16", "128"), ("1", "16"), ("0.5", "4"), ("128", "256"), ("64", "64")],
        [
            ("256", "64"), ("nan", "256"), ("64", "nan"), ("inf", "inf"), ("-inf", "256"), ("64", "inf"), ("0", "256"),
            ("-64", "256"), ("64", "-1"), ("64", "65536"), ("64", "1e300"), ("1e-300", "1e-299"), ("x", "256"),
        ],
    ),
    "radius": (["0.25", "0.1", "0.4", "0.6", "1"], ["0", "-1", "nan", "inf", "1e-300", "1e-160", "1e-8", "1e200", "r"]),
    "grid": (["2", "8", "31", "32"], ["0", "-2", "129", "20000", "1000000000", "1" + "0" * 30, "g"]),
    "m": ([None, "1", "2", "3"], ["0", "-1", "-2", "6", "m"]),
    "q": (["", "2", "2,8", "1/2"], ["0", "-2", "1000", "1e3", "1/0", "nan", "q", "1" * 400]),
}


@st.composite
def _decay_args(draw):
    """A decay argument list: some options spoiled, the others drawn from values that run."""
    spoiled = draw(st.sets(st.sampled_from(sorted(_DECAY_OPTIONS)), max_size=2))
    picked = {name: draw(st.sampled_from(bad if name in spoiled else good)) for name, (good, bad) in _DECAY_OPTIONS.items()}
    (lmin, lmax), m = picked["window"], picked["m"]
    args = ["decay", "--phi", draw(_DECAY_PHASES), f"--lmin={lmin}", f"--lmax={lmax}"]
    args += [f"--radius={picked['radius']}", f"--grid={picked['grid']}", f"--q={picked['q']}"]
    if draw(st.booleans()):
        args.append("--randol")
    return args + ([] if m is None else [f"--m={m}"])


@settings(max_examples=150, deadline=None)
@given(args=_decay_args())
def test_decay_ends_in_a_documented_exit_code(args):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse rejects the argument list itself
            code = exc.code
    event(f"exit code {code}")
    assert code in {cli.EXIT_OK, cli.EXIT_MISMATCH, cli.EXIT_PARSE, cli.EXIT_OUT_OF_SCOPE, cli.EXIT_NUMERIC}
