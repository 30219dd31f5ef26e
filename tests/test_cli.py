"""Config parsing, expression grammar, subcommands, exit codes."""

from __future__ import annotations

import csv
import os
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
])
def test_expression_values(text, point, expected):
    f = cli.parse_expression(text)
    got = float(f(np.asarray([point], dtype=float))[0])
    assert abs(got - expected) < 1e-12


@pytest.mark.parametrize("bad", [
    "", "1 +", "foo(2)", "2 ** 3", "(1", "1 2", "x @ y", "nope",
])
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


def test_eigen_subcommand(tmp_path):
    code = cli.main(["eigen", "--preset", "round-s3", "--refinement", "1",
                     "--output-dir", str(tmp_path)])
    assert code == 0
    rows = list(csv.reader(open(tmp_path / "eigen.csv")))
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
    rows = list(csv.reader(open(tmp_path / "witnesses.csv")))
    assert rows[0] == ["pair_id", "relation", "gap"]
    assert len(rows) > 1


def test_malformed_config_exit_two(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("key = no section\n")
    code = cli.main(["prescribe", "--config", str(bad)])
    assert code == 2
    code = cli.main(["prescribe", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2


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
    rows = list(csv.reader(open(tmp_path / "b0" / "bench.csv")))
    assert rows == [["config", "vertices", "status", "seconds"]]

    cfg = "[run]\npreset = round-s3\nrefinement = {r}\n[S]\nkind = constant\nlevel = 6.0\n"
    paths = []
    for r in (1, 2, 3):
        p = tmp_path / f"sweep{r}.cfg"
        p.write_text(cfg.format(r=r))
        paths.append(str(p))
    assert cli.main(["bench", *paths, "--output-dir", str(tmp_path / "b3")]) == 0
    rows = list(csv.reader(open(tmp_path / "b3" / "bench.csv")))
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
    "bench {nope}",
])
def test_invalid_input_exit_two(command, tmp_path):
    nope = tmp_path / "nope.cfg"
    nope.write_text("[run]\npreset = nope\nrefinement = 0\n")
    argv = command.format(nope=nope).split() + ["--output-dir", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG


def test_prescribe_empty_local_domain_exit_two(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("[run]\npreset = bump-t3\nrefinement = 1\n"
                   "[S]\nkind = admissible\nbase = 2 + sin(2*pi*x)\n"
                   "level = 1.0\nregion = ball(0.5,0.5,0.5,0.4)\n")
    code = cli.main(["prescribe", "--config", str(cfg), "--output-dir",
                     str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
