"""Config parsing, expression grammar, subcommands, exit codes."""

from __future__ import annotations

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cywbench import cli


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text,point,expected", [
    ("1 + 2*3", [0, 0, 0], 7.0),
    ("(1 + 2)*3", [0, 0, 0], 9.0),
    ("2^3^2", [0, 0, 0], 512.0),          # right-associative power
    ("-x^2", [3, 0, 0], -9.0),
    ("sin(pi/2)", [0, 0, 0], 1.0),
    ("abs(-4)/2", [0, 0, 0], 2.0),
    ("exp(0) + cos(0)", [0, 0, 0], 2.0),
    ("x - y - z", [5, 2, 1], 2.0),        # left-associative subtraction
    ("2 + sin(2*pi*x)", [0.25, 0, 0], 3.0),
    (" x", [3, 0, 0], 3.0),
])
def test_expression_values(text, point, expected):
    f = cli.parse_expression(text)
    got = float(f(np.asarray([point], dtype=float))[0])
    assert abs(got - expected) < 1e-12


_MALFORMED = [
    "", "1 +", "foo(2)", "2 ** 3", "(1", "1 2", "x @ y", "nope",
    "+x", "0x10", "1_0", "1j", "True", "x % 2", "x // 2", "sin", "sin(x, y)",
    "sin(x=1)", "pi(2)", "2(3)", "x < y", "x.real", "[x]", "lambda: 1",
    "x if y else z", "__import__('os')",
]


@pytest.mark.parametrize("bad", _MALFORMED)
def test_expression_rejects_malformed(bad):
    with pytest.raises(cli.ConfigError):
        cli.parse_expression(bad)


@settings(max_examples=50, deadline=None)
@given(a=st.floats(-10, 10), b=st.floats(0.1, 10), c=st.floats(-10, 10))
def test_expression_linear_identity(a, b, c):
    f = cli.parse_expression("x*y + z")
    got = float(f(np.array([[a, b, c]]))[0])
    assert abs(got - (a * b + c)) < 1e-9 * max(1.0, abs(a * b + c))


def test_expression_vectorized():
    f = cli.parse_expression("x + 2*y")
    pts = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0]])
    assert np.allclose(f(pts), [5.0, 11.0])


# ---------------------------------------------------------------------------
# oracle: the tokenizer and recursive-descent parser that the whitelist over
# Python's parser replaced; accepted input must evaluate bitwise alike
# ---------------------------------------------------------------------------

ConfigError, _FUNCTIONS = cli.ConfigError, cli._FUNCTIONS


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "+-*/^()":
            tokens.append(("op", c))
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE" or
                             (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            try:
                tokens.append(("num", float(text[i:j])))
            except ValueError:
                raise ConfigError(f"bad number at position {i}: {text[i:j]!r}")
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        else:
            raise ConfigError(f"unexpected character {c!r} in expression")
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ConfigError(f"expected {op!r}, found {val!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ConfigError(f"trailing input after expression: {self.peek()[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            rhs = self.term()
            node = (lambda a, b: (lambda c: a(c) + b(c)) if op == "+"
                    else (lambda c: a(c) - b(c)))(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.next()
            rhs = self.factor()
            node = (lambda a, b: (lambda c: a(c) * b(c)) if op == "*"
                    else (lambda c: a(c) / b(c)))(node, rhs)
        return node

    def factor(self):
        # unary minus binds looser than '^': -x^2 == -(x^2)
        if self.peek() == ("op", "-"):
            self.next()
            inner = self.factor()
            return lambda c, a=inner: -a(c)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            expo = self.factor()  # right associative
            return lambda c, a=base, b=expo: a(c) ** b(c)
        return base

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return lambda c, v=val: np.full(c.shape[0], v)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return lambda c, f=_FUNCTIONS[val], a=arg: f(a(c))
            if val == "pi":
                return lambda c: np.full(c.shape[0], np.pi)
            axes = {"x": 0, "y": 1, "z": 2, "w": 3}
            if val in axes:
                k = axes[val]
                def coord(c, k=k, name=val):
                    if k >= c.shape[1]:
                        raise ConfigError(
                            f"coordinate {name!r} undefined on a "
                            f"{c.shape[1]}-dimensional chart"
                        )
                    return c[:, k]
                return coord
            raise ConfigError(f"unknown identifier {val!r} in expression")
        raise ConfigError(f"unexpected token {val!r} in expression")


_POINTS = [
    np.array([[0.0, 0.0, 0.0], [0.25, -1.5, 2.0], [3.0, 0.5, -0.75], [-2.0, 1e-3, 7.5]]),
    np.array([[0.0, 0.0, 0.0, 0.0], [0.25, -1.5, 2.0, -0.5], [3.0, 0.5, -0.75, 1.25]]),
]

_ACCEPTED_CORPUS = [
    "1 + 2*3", "(1 + 2)*3", "2^3^2", "-x^2", "-2^2", "--x", "x--y", "x*-y",
    "x^-2", "-x^-y", "2^-x^2", "sin(pi/2)", "abs(-4)/2", "exp(0) + cos(0)",
    "x - y - z", "x/y/z", "2 + sin(2*pi*x)", "sin(cos(exp(abs(x))))",
    "exp(-x^2 - y^2)", "1/0", "0/0", "(-x)^0.5", "((x))", "\tx", " x ",
    "1e3", ".5", "5.", "2.5E-2", "1.e+2", "1e400", "99999999999999999999",
    "00", "w + x",
]

_NUMBER = st.from_regex(r"(0|[1-9][0-9]{0,2})(\.[0-9]{0,3})?([eE][+-]?[0-9])?|\.[0-9]{1,3}",
                        fullmatch=True)
_GRAMMAR = st.recursive(
    st.one_of(_NUMBER, st.sampled_from(["x", "y", "z", "pi"])),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "^", " + ", " ^ "]),
                  inner).map("".join),
        inner.map(lambda e: "-" + e),
        st.tuples(st.sampled_from(sorted(_FUNCTIONS)), inner).map(
            lambda t: f"{t[0]}({t[1]})"),
        inner.map(lambda e: f"({e})"),
    ),
    max_leaves=12,
)


def _values(f, points):
    """``f(points)``, or None where the chart lacks a coordinate."""
    try:
        with np.errstate(all="ignore"):
            return f(points)
    except cli.ConfigError:
        return None


def _assert_matches_oracle(text):
    new, old = cli.parse_expression(text), _Parser(_tokenize(text)).parse()
    for points in _POINTS:
        a, b = _values(new, points), _values(old, points)
        assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True), text


@pytest.mark.parametrize("text", _ACCEPTED_CORPUS)
def test_expression_matches_oracle_on_corpus(text):
    _assert_matches_oracle(text)


@settings(max_examples=300, deadline=None)
@given(text=_GRAMMAR)
def test_expression_matches_oracle_on_grammar(text):
    _assert_matches_oracle(text)


@pytest.mark.parametrize("bad", _MALFORMED + [
    "sin()", "x^", "^x", "2^^3", "()", "1e", "1..2", "x $ y", "x, y", "\uff58", "1\x00",
])
def test_expression_rejects_like_oracle(bad):
    with pytest.raises(cli.ConfigError):
        _Parser(_tokenize(bad)).parse()
    with pytest.raises(cli.ConfigError):
        cli.parse_expression(bad)


@pytest.mark.parametrize("text,expected", [
    ("007", 7.0), ("\u0663", 3.0), ("\u00a0x", 0.25), ("1 +\n2", 3.0),
])
def test_expression_rejects_what_oracle_accepted(text, expected):
    """Leading-zero integers, non-ASCII digits, non-ASCII whitespace and line
    breaks outside parentheses are no longer part of an expression."""
    assert _Parser(_tokenize(text)).parse()(np.array([[0.25, 0.0, 0.0]]))[0] == expected
    with pytest.raises(cli.ConfigError):
        cli.parse_expression(text)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_parse_config_sections_and_comments():
    text = "[run]\npreset = flat-t3\n# note\nrefinement = 2\n\n[S]\nkind = constant\nlevel = 6\n"
    secs = cli.parse_config_text(text)
    assert secs["run"]["preset"] == "flat-t3"
    assert secs["S"]["level"] == "6"


@pytest.mark.parametrize("bad", [
    "key = 1\n",              # assignment before a section
    "[run]\njust a line\n",   # no equals sign
    "[]\n",                   # empty section name
    "[run]\n= 3\n",           # empty key
])
def test_parse_config_rejects_malformed(bad):
    with pytest.raises(cli.ConfigError):
        cli.parse_config_text(bad)


def test_run_config_validation():
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(refinement=-1).validated()
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(bc_mode="weird").validated()
    with pytest.raises(cli.ConfigError):
        cli.RunConfig(tolerances={"gamma": -1.0}).validated()


@pytest.mark.parametrize("text, key", [
    ("[run]\nrefinment = 3\n", "refinment"),
    ("[S]\nkind = constant\nlevle = 5\n", "levle"),
    ("[S]\nkind = constant\nbase = 1\n", "base"),
    ("[S]\nkind = named\nname = tau\nlevel = 2\n", "level"),
    ("[S]\nkind = admissible\nname = tau\n", "name"),
    ("[tolerance]\ngamma = 0.1\n", "tolerance"),
], ids=["run", "constant", "constant-base", "named-level", "admissible-name", "section"])
def test_config_rejects_unknown_keys(text, key):
    with pytest.raises(cli.ConfigError, match=f"unknown .*'{key}'"):
        cli.config_from_sections(cli.parse_config_text(text))


def test_config_accepts_every_documented_key():
    run = "[run]\npreset = bump-t3\nrefinement = 0\nbc_mode = closed\noutput_dir = out\n"
    for s_sec in ("kind = constant\nlevel = 6\n",
                  "kind = admissible\nbase = 1\nregion = marked\nlevel = 1\nwidth = auto\n",
                  "kind = named\nname = tau\n"):
        text = run + "[S]\n" + s_sec + "[tolerances]\ngamma = 0.1\n"
        cli.config_from_sections(cli.parse_config_text(text))


# ---------------------------------------------------------------------------
# subcommands and exit codes
# ---------------------------------------------------------------------------


def test_mesh_gen_writes_file(tmp_path):
    code = cli.main(["mesh", "gen", "--preset", "flat-t3", "--refinement",
                     "1", "--output-dir", str(tmp_path)])
    assert code == 0
    out = tmp_path / "flat-t3-r1.mesh"
    assert out.exists()
    assert out.read_text().startswith("CYWMESH 1\n")


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_eigen_subcommand(tmp_path):
    code = cli.main(["eigen", "--preset", "round-s3", "--refinement", "1",
                     "--output-dir", str(tmp_path)])
    assert code == 0
    rows = _csv_rows(tmp_path / "eigen.csv")
    assert rows[0] == ["eigenvalue", "residual", "sign_change_free"]
    assert abs(float(rows[1][0]) - 6.0) < 1e-9


def test_prescribe_trivial_exit_zero(tmp_path):
    code = cli.main(["prescribe", "--preset", "round-s3", "--refinement",
                     "1", "--constant-S", "6.0", "--output-dir",
                     str(tmp_path)])
    assert code == 0
    report = (tmp_path / "report.txt").read_text()
    assert "route trivial-constant" in report
    assert (tmp_path / "iterates.csv").exists()


def test_prescribe_tau_sphere_exit_three(tmp_path):
    code = cli.main(["prescribe", "--preset", "round-s3", "--refinement",
                     "1", "--named-S", "tau", "--output-dir", str(tmp_path)])
    assert code == 3
    rows = _csv_rows(tmp_path / "witnesses.csv")
    assert rows[0] == ["pair_id", "relation", "gap"]
    assert len(rows) > 1


def test_malformed_config_exit_two(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("key = no section\n")
    code = cli.main(["prescribe", "--config", str(bad)])
    assert code == 2
    code = cli.main(["prescribe", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2


def test_config_typo_exit_two(tmp_path):
    typo = tmp_path / "typo.cfg"
    typo.write_text("[run]\npreset = flat-t3\nrefinment = 3\n")
    code = cli.main(["mesh", "gen", "--config", str(typo), "--output-dir",
                     str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_check_condition_a_exit_codes(tmp_path):
    ok = cli.main(["check", "condition-a", "--preset", "round-s3",
                   "--refinement", "1", "--named-S", "one",
                   "--output-dir", str(tmp_path)])
    assert ok == 0
    bad = cli.main(["check", "condition-a", "--preset", "round-s3",
                    "--refinement", "1", "--named-S", "tau",
                    "--output-dir", str(tmp_path)])
    assert bad == 3


def test_bench_empty_and_matrix(tmp_path):
    assert cli.main(["bench", "--output-dir", str(tmp_path / "b0")]) == 0
    rows = _csv_rows(tmp_path / "b0" / "bench.csv")
    assert rows == [["config", "vertices", "status", "seconds"]]

    cfg = "[run]\npreset = round-s3\nrefinement = {r}\n[S]\nkind = constant\nlevel = 6.0\n"
    paths = []
    for r in (1, 2, 3):
        p = tmp_path / f"sweep{r}.cfg"
        p.write_text(cfg.format(r=r))
        paths.append(str(p))
    assert cli.main(["bench", *paths, "--output-dir", str(tmp_path / "b3")]) == 0
    rows = _csv_rows(tmp_path / "b3" / "bench.csv")
    assert len(rows) == 4  # header + 3 rows
    verts = [int(r[1]) for r in rows[1:]]
    assert verts == sorted(verts) and len(set(verts)) == 3  # strictly increasing
    assert all(r[2] == "ok" for r in rows[1:])


def test_bench_builds_each_preset_once(tmp_path, monkeypatch):
    from cywbench import geometry

    calls = []
    build = geometry.build_preset

    def counted(preset_id, refinement):
        calls.append((preset_id, refinement))
        return build(preset_id, refinement)

    monkeypatch.setattr(geometry, "build_preset", counted)
    path = tmp_path / "one.cfg"
    path.write_text("[run]\npreset = round-s3\nrefinement = 1\n"
                    "[S]\nkind = constant\nlevel = 6.0\n")
    assert cli.main(["bench", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    assert calls == [("round-s3", 1)]


def test_console_entry_point():
    # the subprocess imports the same cywbench package as this test
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    out = subprocess.run([sys.executable, "-m", "cywbench.cli", "--help"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "prescribe" in out.stdout


@pytest.mark.parametrize("command", [
    "eigen --preset flat-t3 --refinement 0 --bc-mode dirichlet",
    "prescribe --preset flat-t3 --refinement 0 --bc-mode dirichlet",
    "eigen --preset flat-t3 --refinement 0 --bc-mode robin",
    "prescribe --preset round-s3 --refinement 1 --bc-mode robin --constant-S 6",
    "mesh gen --preset nope --refinement 0",
    "gate --preset round-s3 --refinement 1 --constant-S 6",
    "gate --preset bump-t3 --refinement 1 --constant-S -1",
    "solve local --preset bump-t3 --refinement 1 --constant-S 0",
    "bench {nope}",
])
def test_invalid_input_exit_two(command, tmp_path):
    nope = tmp_path / "nope.cfg"
    nope.write_text("[run]\npreset = nope\nrefinement = 0\n")
    argv = command.format(nope=nope).split() + ["--output-dir", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG


def test_prescribe_empty_local_domain_exit_two(tmp_path, capsys):
    regions = [
        "ball(0.5,0.5,0.5,0.4)",  # its eroded core has no interior
        "ball(0.5,0.5,0.5,0.2)",  # the region has no interior
        "ball(0.5,0.5,0.5,0.3)\nwidth = 0.5",  # too small for any core
    ]
    cfg = tmp_path / "empty.cfg"
    for region in regions:
        cfg.write_text("[run]\npreset = bump-t3\nrefinement = 1\n"
                       "[S]\nkind = admissible\nbase = 2 + sin(2*pi*x)\n"
                       f"level = 1.0\nregion = {region}\n")
        for command in (["prescribe"], ["gate"], ["solve", "local"]):
            code = cli.main(command + ["--config", str(cfg), "--output-dir",
                                       str(tmp_path / "out")])
            assert code == cli.EXIT_CONFIG, (command, region)
            assert "Traceback" not in capsys.readouterr().err


def test_admissible_width_must_be_a_number(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[run]\npreset = bump-t3\nrefinement = 0\n"
                   "[S]\nkind = admissible\nbase = 2\nlevel = 1.0\nwidth = wide\n")
    code = cli.main(["prescribe", "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'wide' is not a number" in err and "Traceback" not in err
    for width, want in (("auto", "auto"), ("0.25", 0.25)):
        text = cfg.read_text().replace("width = wide", f"width = {width}")
        spec = cli.config_from_sections(cli.parse_config_text(text)).S_spec
        assert spec["width"] == want


def test_solve_local_gate_failure_exit_four(tmp_path, capsys):
    cfg = tmp_path / "gate.cfg"
    cfg.write_text("[run]\npreset = bump-t3\nrefinement = 1\n"
                   "[S]\nkind = admissible\nbase = 1\nlevel = 1.0\n"
                   "region = ball(0,0,0,0.5)\n")
    argv = ["--config", str(cfg), "--output-dir", str(tmp_path / "out")]
    assert cli.main(["gate"] + argv) == cli.EXIT_GATE
    gate_line = capsys.readouterr().out
    assert cli.main(["solve", "local"] + argv) == cli.EXIT_GATE
    err = capsys.readouterr().err
    assert err.startswith("energy gate failed: Q_eps ")
    # the same quotient and threshold the gate command prints
    assert gate_line.split()[1] in err and gate_line.split()[3] in err
    assert not (tmp_path / "out" / "continuation.txt").exists()


def test_prescribe_eigen_scaling_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("[run]\npreset = flat-t3\nrefinement = 1\n"
                   "[S]\nkind = admissible\nbase = 2 + sin(2*pi*x)\n"
                   "level = 1.0\nregion = ball(0.5,0.5,0.5,0.45)\n")
    code = cli.main(["prescribe", "--config", str(cfg), "--output-dir",
                     str(tmp_path / "out")])
    assert code == cli.EXIT_ITERATION
    err = capsys.readouterr().err
    assert err.startswith("pipeline failure: [eigen] could not scale the eigenfunction")
    assert "Traceback" not in err
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "failed_stage 'eigen'" in report.splitlines()


def _admissible_cfg(tmp_path, base):
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("[run]\npreset = bump-t3\nrefinement = 0\n"
                   f"[S]\nkind = admissible\nbase = {base}\n")
    return ["prescribe", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]


@pytest.mark.parametrize("base", [
    "(" * 3000 + "1" + ")" * 3000,
    "+".join(["1"] * 5000),
    "-" * 5000 + "1",
], ids=["parens-3000", "sum-5000", "minus-5000"])
def test_deep_expression_exit_two(base, tmp_path):
    assert cli.main(_admissible_cfg(tmp_path, base)) == cli.EXIT_CONFIG


def test_expression_too_deep_to_evaluate_exit_two(tmp_path, monkeypatch):
    def runaway(points):
        return runaway(points)

    monkeypatch.setattr(cli, "parse_expression", lambda text: runaway)
    assert cli.main(_admissible_cfg(tmp_path, "x")) == cli.EXIT_CONFIG


def test_check_obstructions_assembles_once(tmp_path, monkeypatch):
    from cywbench import operators

    calls = []
    assemble = operators.assemble

    def counted(*args, **kwargs):
        calls.append(kwargs.get("bc_mode"))
        return assemble(*args, **kwargs)

    monkeypatch.setattr(operators, "assemble", counted)
    code = cli.main(["check", "obstructions", "--preset", "round-s3", "--refinement",
                     "1", "--constant-S", "6", "--output-dir", str(tmp_path)])
    assert code == 0
    assert calls == ["closed"]


def test_prescribe_compiles_base_expression_once(tmp_path, monkeypatch):
    calls = []
    parse = cli.parse_expression

    def counted(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(cli, "parse_expression", counted)
    cli.main(_admissible_cfg(tmp_path, "2 + sin(2*pi*x)"))
    assert calls == ["2 + sin(2*pi*x)"]


def _readme_local_cfg(tmp_path):
    """The README's example ``local.cfg``, written to ``tmp_path``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.search(r"For example, `local.cfg`:\n\n```\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "local.cfg"
    path.write_text(text)
    return str(path)


def _gate_rows(outdir):
    rows = _csv_rows(outdir / "gate_sweep.csv")
    assert rows[0] == ["epsilon", "quotient", "pure_quotient"]
    return rows[1:]


def test_gate_on_readme_local_cfg(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["gate", "--config", _readme_local_cfg(tmp_path),
                     "--output-dir", str(out)]) == cli.EXIT_OK
    assert len(_gate_rows(out)) == 6


def test_gate_constant_target_uses_the_marked_region(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["gate", "--preset", "bump-t3", "--refinement", "1", "--constant-S", "1",
                     "--output-dir", str(out)]) == cli.EXIT_OK
    assert len(_gate_rows(out)) == 6


def test_solve_local_on_readme_local_cfg(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["solve", "local", "--config", _readme_local_cfg(tmp_path),
                     "--output-dir", str(out)]) == cli.EXIT_OK
    assert "converged True" in capsys.readouterr().out
    assert (out / "continuation.csv").exists() and (out / "continuation.txt").exists()


@pytest.mark.parametrize("argv", [
    ["gate", "--beta", "0.5"],
    ["solve", "local", "--beta0", "0.1"],
    ["solve", "local", "--beta0", "0"],
    ["gate", "--beta=-inf"],
    ["solve", "local", "--beta0=-inf"],
])
def test_nonnegative_beta_exit_two_before_any_work(argv, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(argv + ["--config", _readme_local_cfg(tmp_path), "--output-dir", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: --beta") and "Traceback" not in err
    assert not out.exists()


def test_prescribe_local_solve_refusal_writes_its_report(tmp_path):
    # the continuation's solution is not positive on the interior, after the
    # energy gate has passed
    cfg = tmp_path / "refused.cfg"
    cfg.write_text("[run]\npreset = bump-t3\nrefinement = 1\n\n[S]\nkind = admissible\n"
                   "base = 1\nlevel = 1.0\nregion = ball(0,0,0,0.5)\n")
    out = tmp_path / "out"
    code = cli.main(["prescribe", "--config", str(cfg), "--output-dir", str(out)])
    assert code == cli.EXIT_ITERATION
    report = (out / "report.txt").read_text()
    assert "\nfailed_stage 'local-solve'\n" in report
    assert "\ngate_pass True\n" in report
    assert len(_gate_rows(out)) == 6
