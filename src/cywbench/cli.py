"""Configuration-driven command line entry points.

Subcommands::

    cywbench mesh gen            write a preset mesh in the CYWMESH 1 format
    cywbench eigen               first eigenpair of the conformal operator
    cywbench gate                energy gate with the epsilon-sweep table
    cywbench solve local         local perturbed solve via continuation
    cywbench prescribe           full prescription pipeline
    cywbench check condition-a   antipodal symmetry check of a target field
    cywbench check obstructions  integral obstructions of a solved target
    cywbench bench               run a config matrix with per-stage timings

Configuration files are structured text: ``[section]`` headers and one
``key = value`` assignment per line (``#`` comments allowed).  Expression
fields use a small arithmetic grammar over the coordinates ``x``, ``y``,
``z`` (and ``w`` on four-dimensional charts)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power           # -x^2 parses as -(x^2)
    power  := atom ('^' factor)?           # right associative
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

with functions ``sin``, ``cos``, ``exp``, ``abs`` and the constant ``pi``.

Exit codes: 0 success, 2 configuration error, 3 obstruction refusal,
4 gate failure, 5 iteration failure, 6 verification failure.  The
``CYWBENCH_OUTPUT_DIR`` environment variable sets the default output
directory; all other parameters come from flags or config files.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import geometry as _geometry
from . import global_iteration as _global
from . import local_yamabe as _local
from . import operators as _operators
from . import sphere_tools as _sphere
from .constants import DimensionConstants
from .geometry import ScalarField

__all__ = [
    "RunConfig",
    "parse_config_text",
    "parse_expression",
    "run",
    "bench",
    "main",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_OBSTRUCTION",
    "EXIT_GATE",
    "EXIT_ITERATION",
    "EXIT_VERIFICATION",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OBSTRUCTION = 3
EXIT_GATE = 4
EXIT_ITERATION = 5
EXIT_VERIFICATION = 6

_STAGE_EXIT = {
    "route-selection": EXIT_CONFIG,
    "condition-a": EXIT_OBSTRUCTION,
    "energy-gate": EXIT_GATE,
    "verify-inequalities": EXIT_VERIFICATION,
}


class ConfigError(ValueError):
    """Malformed configuration input."""


# ---------------------------------------------------------------------------
# expression mini-grammar (recursive descent)
# ---------------------------------------------------------------------------

_FUNCTIONS: dict = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}


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


def parse_expression(text: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an arithmetic expression over coordinates to a vector function.

    The returned callable maps an ``(m, dim)`` coordinate array to ``m``
    values.
    """
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict:
    """Parse the ``[section]`` / ``key = value`` config format.

    Values are left as strings; typed access happens at consumption time so
    parse diagnostics can name the offending key.
    """
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"line {lineno}: empty section header")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: assignment before any [section]")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        sections[current][key] = value.strip()
    return sections


@dataclass
class RunConfig:
    """Everything one pipeline run needs."""

    preset: str = "flat-t3"
    refinement: int = 1
    bc_mode: str = "closed"
    S_spec: dict = field(default_factory=lambda: {"kind": "constant", "level": 1.0})
    tolerances: dict = field(default_factory=dict)
    output_dir: Optional[str] = None

    def validated(self) -> "RunConfig":
        if self.refinement < 0:
            raise ConfigError("refinement must be >= 0")
        if self.bc_mode not in ("closed", "robin"):
            raise ConfigError(f"unknown bc_mode {self.bc_mode!r}")
        for key, val in self.tolerances.items():
            if key != "gamma":
                raise ConfigError(f"unknown tolerance {key!r}; [tolerances] takes gamma")
            if float(val) <= 0:
                raise ConfigError(f"tolerance override {key!r} must be > 0")
        return self


def _output_dir(path=None) -> Path:
    """``path``, else $CYWBENCH_OUTPUT_DIR, else ".", created if missing."""
    outdir = Path(path or os.environ.get("CYWBENCH_OUTPUT_DIR", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _float(section: dict, key: str, default=None) -> float:
    if key not in section:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(section[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: {section[key]!r} is not a number")


def _int(section: dict, key: str, default=None) -> int:
    if key not in section:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(section[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: {section[key]!r} is not an integer")


def config_from_sections(sections: dict) -> RunConfig:
    """Build a RunConfig from parsed config sections."""
    run_sec = sections.get("run", {})
    cfg = RunConfig(
        preset=run_sec.get("preset", "flat-t3"),
        refinement=_int(run_sec, "refinement", 1),
        bc_mode=run_sec.get("bc_mode", "closed"),
        output_dir=run_sec.get("output_dir") or None,
    )
    s_sec = sections.get("S", {"kind": "constant", "level": "1.0"})
    kind = s_sec.get("kind", "constant")
    if kind == "constant":
        cfg.S_spec = {"kind": "constant", "level": _float(s_sec, "level", 1.0)}
    elif kind == "admissible":
        spec = {
            "kind": "admissible",
            "base": s_sec.get("base", "1"),
            "region": s_sec.get("region", "marked"),
            "level": _float(s_sec, "level", 1.0),
            "width": s_sec.get("width", "auto"),
        }
        parse_expression(spec["base"])  # validate eagerly
        cfg.S_spec = spec
    elif kind == "named":
        name = s_sec.get("name", "one")
        if name not in _NAMED_SPHERE_FUNCTIONS:
            raise ConfigError(f"unknown named sphere function {name!r}")
        cfg.S_spec = {"kind": "named", "name": name}
    else:
        raise ConfigError(f"unknown S kind {kind!r}")
    cfg.tolerances = {
        k: _float(sections.get("tolerances", {}), k)
        for k in sections.get("tolerances", {})
    }
    return cfg.validated()


# ---------------------------------------------------------------------------
# target-field construction
# ---------------------------------------------------------------------------


def _named_tau(points: np.ndarray) -> np.ndarray:
    return points[:, -1]


def _named_tau_squared(points: np.ndarray) -> np.ndarray:
    return points[:, -1] ** 2


def _named_one(points: np.ndarray) -> np.ndarray:
    return np.ones(points.shape[0])


_NAMED_SPHERE_FUNCTIONS = {
    "one": _named_one,
    "tau": _named_tau,
    "tau-squared": _named_tau_squared,
}


def _parse_region(mesh, geom, region_spec: str):
    """Region spec: ``marked`` (preset marked region) or ``ball(cx,cy,cz,r)``."""
    region_spec = region_spec.strip()
    if region_spec == "marked":
        center = np.asarray(geom.metadata.get("marked_region_center"))
        radius = geom.metadata.get("marked_region_radius")
        if center is None or radius is None:
            raise ConfigError("preset carries no marked region; give ball(...)")
    elif region_spec.startswith("ball(") and region_spec.endswith(")"):
        try:
            nums = [float(t) for t in region_spec[5:-1].split(",")]
        except ValueError:
            raise ConfigError(f"bad ball region spec {region_spec!r}")
        if len(nums) != mesh.vertices.shape[1] + 1:
            raise ConfigError(
                f"ball(...) needs {mesh.vertices.shape[1]} center coordinates "
                "and a radius"
            )
        center, radius = np.array(nums[:-1]), nums[-1]
    else:
        raise ConfigError(f"unknown region spec {region_spec!r}")

    def pred(coords):
        d = mesh.displacement(np.broadcast_to(center, coords.shape), coords)
        return np.einsum("ij,ij->i", d, d) < float(radius) ** 2

    return _geometry.extract_subdomain(mesh, pred)


def build_target_field(mesh, geom, spec: dict) -> ScalarField:
    """Materialize the target curvature field described by an S_spec."""
    kind = spec["kind"]
    if kind == "constant":
        return ScalarField(
            np.full(mesh.num_vertices, float(spec["level"])), mesh.mesh_id
        )
    if kind == "named":
        vals = _NAMED_SPHERE_FUNCTIONS[spec["name"]](mesh.vertices)
        return ScalarField(np.asarray(vals, dtype=np.float64), mesh.mesh_id)
    if kind == "admissible":
        base_fn = parse_expression(spec["base"])
        base = ScalarField(
            np.asarray(base_fn(mesh.vertices), dtype=np.float64), mesh.mesh_id
        )
        region = _parse_region(mesh, geom, spec["region"])
        width = spec.get("width", "auto")
        if width == "auto":
            width = 2.0 * mesh.min_edge_length()
        else:
            width = float(width)
        return _geometry.construct_admissible_function(
            base, region, float(spec["level"]), width, mesh
        )
    raise ConfigError(f"unknown S kind {kind!r}")


# ---------------------------------------------------------------------------
# emission helpers
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _emit_iteration_csv(outdir: Path, state) -> None:
    rows = []
    if state is not None:
        for k, (it, res) in enumerate(zip(state.iterates, state.residuals)):
            rows.append(
                [k, repr(res), repr(float(it.values.min())),
                 repr(float(it.values.max()))]
            )
    _write_csv(outdir / "iterates.csv", ["iteration", "residual", "min_u", "max_u"],
               rows)


def _emit_gate_csv(outdir: Path, thresholds) -> None:
    rows = []
    if thresholds is not None:
        meta = thresholds.metadata
        for eps in meta.get("eps_sweep", []):
            rows.append(
                [repr(eps), repr(meta["q_per_eps"][eps]),
                 repr(meta["q_pure_per_eps"][eps])]
            )
    _write_csv(outdir / "gate_sweep.csv", ["epsilon", "quotient", "pure_quotient"],
               rows)


def _emit_witness_csv(outdir: Path, verdict) -> None:
    def _pair_id(pair):
        a, b = pair
        if isinstance(a, (int, np.integer)):
            return f"{a}-{b}"
        return "-".join(
            "(" + ",".join(f"{c:.3g}" for c in np.asarray(getattr(p, "ambient", p))) + ")"
            for p in (a, b)
        )

    rows = [
        [_pair_id(pair), relation, repr(float(gap))]
        for pair, relation, gap in getattr(verdict, "witnesses", []) or []
    ]
    _write_csv(outdir / "witnesses.csv", ["pair_id", "relation", "gap"], rows)


def _exit_for_stage(stage: str) -> int:
    return _STAGE_EXIT.get(stage, EXIT_ITERATION)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _preset(cfg: RunConfig):
    """The config's preset mesh and geometry; a bad preset is a ConfigError."""
    try:
        mesh, geom = _geometry.build_preset(cfg.preset, cfg.refinement)
    except (KeyError, ValueError) as err:
        raise ConfigError(str(err)) from err
    if cfg.bc_mode == "robin" and mesh.is_closed:
        raise ConfigError(f"bc_mode 'robin' needs a preset with boundary, not {cfg.preset!r}")
    return mesh, geom


def run(config: RunConfig, preset=None) -> int:
    """Run the full pipeline for one config; write report and plot data.

    ``preset`` is the config's ``(mesh, geom)`` when the caller built it.
    """
    config = config.validated()
    outdir = _output_dir(config.output_dir)

    try:
        mesh, geom = preset or _preset(config)
        S = build_target_field(mesh, geom, config.S_spec)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    glue = _global.GluingConfig(gamma=config.tolerances.get("gamma", 1e-2))
    code = EXIT_OK
    try:
        report = _global.prescribe(mesh, geom, S, bc_mode=config.bc_mode,
                                   config=glue)
    except _global.PipelineError as err:
        report = err.report
        code = _exit_for_stage(err.stage)
        print(f"pipeline failure: {err}", file=sys.stderr)

    if report is not None:
        (outdir / "report.txt").write_text(_global.report_to_text(report))
        _emit_iteration_csv(outdir, report.iteration)
        _emit_gate_csv(outdir, report.thresholds)
        if report.obstructions is not None and hasattr(
            report.obstructions, "witnesses"
        ):
            _emit_witness_csv(outdir, report.obstructions)
    return code


def bench(config_paths, outdir=None) -> int:
    """Run every config, one wall-clock row each; exit 2 if any is invalid."""
    outdir = _output_dir(outdir)
    rows = []
    result = EXIT_OK
    for path in sorted(str(p) for p in config_paths):
        label = Path(path).stem
        t0 = time.perf_counter()
        try:
            cfg = config_from_sections(parse_config_text(Path(path).read_text()))
            cfg.output_dir = str(outdir / label)
            preset = _preset(cfg)
            nverts = preset[0].num_vertices
            code = run(cfg, preset)
            status = "ok" if code == EXIT_OK else f"exit-{code}"
        except (ConfigError, OSError) as err:
            nverts, status, result = 0, f"error: {err}", EXIT_CONFIG
        rows.append([label, nverts, status, repr(time.perf_counter() - t0)])
    _write_csv(outdir / "bench.csv", ["config", "vertices", "status", "seconds"],
               rows)
    for row in rows:
        print(",".join(str(c) for c in row))
    return result


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _load_config(args) -> RunConfig:
    sections = {}
    if getattr(args, "config", None):
        sections = parse_config_text(Path(args.config).read_text())
    cfg = config_from_sections(sections)
    for attr in ("preset", "refinement", "bc_mode", "output_dir"):
        val = getattr(args, attr.replace("-", "_"), None)
        if val is not None:
            setattr(cfg, attr, val)
    if getattr(args, "constant_S", None) is not None:
        cfg.S_spec = {"kind": "constant", "level": float(args.constant_S)}
    if getattr(args, "named_S", None) is not None:
        if args.named_S not in _NAMED_SPHERE_FUNCTIONS:
            raise ConfigError(f"unknown named sphere function {args.named_S!r}")
        cfg.S_spec = {"kind": "named", "name": args.named_S}
    return cfg.validated()


def _cmd_mesh_gen(args) -> int:
    cfg = _load_config(args)
    mesh, _ = _preset(cfg)
    outdir = _output_dir(cfg.output_dir)
    path = outdir / f"{cfg.preset}-r{cfg.refinement}.mesh"
    _geometry.write_mesh(mesh, path)
    print(f"{path} ({mesh.num_vertices} vertices, {mesh.tets.shape[0]} tets)")
    return EXIT_OK


def _cmd_eigen(args) -> int:
    cfg = _load_config(args)
    mesh, geom = _preset(cfg)
    ops = _operators.assemble(mesh, geom, DimensionConstants(3),
                              bc_mode=cfg.bc_mode)
    eig = _operators.first_eigenpair(ops, mass=args.mass, operator=args.operator)
    outdir = _output_dir(cfg.output_dir)
    _write_csv(outdir / "eigen.csv",
               ["eigenvalue", "residual", "sign_change_free"],
               [[repr(eig.eigenvalue), repr(eig.residual), eig.sign_change_free]])
    print(f"eigenvalue {eig.eigenvalue!r} residual {eig.residual!r}")
    return EXIT_OK


def _gate_inputs(cfg):
    mesh, geom = _preset(cfg)
    S = build_target_field(mesh, geom, cfg.S_spec)
    domain, lam = _global._pick_region_domain(mesh, geom, S)
    return mesh, geom, domain, lam


def _cmd_gate(args) -> int:
    cfg = _load_config(args)
    mesh, geom, domain, lam = _gate_inputs(cfg)
    thresholds = _local.energy_gate(
        mesh, domain, geom, DimensionConstants(3), lam, args.beta
    )
    outdir = _output_dir(cfg.output_dir)
    _emit_gate_csv(outdir, thresholds)
    print(
        f"Q_eps {thresholds.Q_eps!r} T_used {thresholds.metadata['T_used']!r} "
        f"pass {thresholds.gate_pass}"
    )
    return EXIT_OK if thresholds.gate_pass else EXIT_GATE


def _cmd_solve_local(args) -> int:
    cfg = _load_config(args)
    mesh, geom, domain, lam = _gate_inputs(cfg)
    try:
        trace = _local.beta_continuation(
            mesh, domain, geom, DimensionConstants(3), lam, args.beta0
        )
    except (RuntimeError, ValueError) as err:
        print(f"continuation failure: {err}", file=sys.stderr)
        return EXIT_ITERATION
    outdir = _output_dir(cfg.output_dir)
    rows = [
        [k, repr(beta), repr(float(sol.values.min())),
         repr(float(sol.values.max())), repr(lp)]
        for k, (beta, sol, lp) in enumerate(
            zip(trace.betas, trace.solutions, trace.lp_norms)
        )
    ]
    _write_csv(outdir / "continuation.csv",
               ["step", "beta", "min_u", "max_u", "lp_norm"], rows)
    (outdir / "continuation.txt").write_text(_local.trace_to_report(trace))
    print(f"steps {len(trace.betas)} converged {trace.converged}")
    return EXIT_OK if trace.converged else EXIT_ITERATION


def _cmd_prescribe(args) -> int:
    return run(_load_config(args))


def _cmd_check_condition_a(args) -> int:
    cfg = _load_config(args)
    mesh, _ = _preset(cfg)
    if cfg.S_spec.get("kind") != "named":
        raise ConfigError("condition-a check needs a named sphere function")
    Q_vec = _NAMED_SPHERE_FUNCTIONS[cfg.S_spec["name"]]
    verdict = _sphere.check_condition_a(
        mesh.vertices, lambda p: float(Q_vec(p[None, :])[0])
    )
    outdir = _output_dir(cfg.output_dir)
    _emit_witness_csv(outdir, verdict)
    print(f"verdict {verdict.verdict} witnesses {len(verdict.witnesses)}")
    return EXIT_OK if verdict.verdict != "fail" else EXIT_OBSTRUCTION


def _cmd_check_obstructions(args) -> int:
    cfg = _load_config(args)
    mesh, geom = _preset(cfg)
    S = build_target_field(mesh, geom, cfg.S_spec)
    u = _global.prescribe(mesh, geom, S, bc_mode=cfg.bc_mode).metadata["solution"]
    ops = _operators.assemble(mesh, geom, DimensionConstants(3),
                              bc_mode=cfg.bc_mode)
    obs = _sphere.obstruction_report(S, u, geom.scalar_curvature, ops)
    outdir = _output_dir(cfg.output_dir)
    rows = [["kw", k, repr(v)] for k, v in sorted(obs.kw_values.items())]
    rows += [["be", k, repr(v)] for k, v in sorted(obs.be_values.items())]
    _write_csv(outdir / "obstructions.csv", ["kind", "direction", "value"], rows)
    worst = max(
        [abs(v) for v in obs.kw_values.values()]
        + [abs(v) for v in obs.be_values.values()]
    )
    print(f"worst obstruction {worst!r} tolerance {obs.tolerance!r}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    return bench(args.configs, outdir=args.output_dir)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser) -> None:
    parser.add_argument("--config", help="config file ([section] + key = value)")
    parser.add_argument("--preset", help="geometry preset identifier")
    parser.add_argument("--refinement", type=int, help="mesh refinement level")
    parser.add_argument("--bc-mode", dest="bc_mode", choices=["closed", "robin"])
    parser.add_argument("--output-dir", dest="output_dir")
    parser.add_argument("--constant-S", dest="constant_S", type=float,
                        help="constant target curvature level")
    parser.add_argument("--named-S", dest="named_S",
                        choices=sorted(_NAMED_SPHERE_FUNCTIONS),
                        help="named sphere target function")


def _subcommand(action, name: str, summary: str) -> argparse.ArgumentParser:
    return action.add_parser(name, help=summary, allow_abbrev=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cywbench",
        description="conformal scalar-curvature prescription workbench",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = _subcommand(sub, "mesh", "mesh utilities")
    mesh_sub = p_mesh.add_subparsers(dest="mesh_command", required=True)
    p_gen = _subcommand(mesh_sub, "gen", "write a preset mesh file")
    _add_common(p_gen)
    p_gen.set_defaults(func=_cmd_mesh_gen)

    p_eigen = _subcommand(sub, "eigen", "first eigenpair")
    _add_common(p_eigen)
    p_eigen.add_argument("--mass", default="consistent",
                         choices=["consistent", "lumped"])
    p_eigen.add_argument("--operator", default="conformal",
                         choices=["conformal", "conformal-lumped", "laplacian"])
    p_eigen.set_defaults(func=_cmd_eigen)

    p_gate = _subcommand(sub, "gate", "energy gate with epsilon sweep")
    _add_common(p_gate)
    p_gate.add_argument("--beta", type=float, default=-0.1)
    p_gate.set_defaults(func=_cmd_gate)

    p_solve = _subcommand(sub, "solve", "solvers")
    solve_sub = p_solve.add_subparsers(dest="solve_command", required=True)
    p_local = _subcommand(solve_sub, "local", "local perturbed solve")
    _add_common(p_local)
    p_local.add_argument("--beta0", type=float, default=-0.1)
    p_local.set_defaults(func=_cmd_solve_local)

    p_presc = _subcommand(sub, "prescribe", "full prescription pipeline")
    _add_common(p_presc)
    p_presc.set_defaults(func=_cmd_prescribe)

    p_check = _subcommand(sub, "check", "obstruction checks")
    check_sub = p_check.add_subparsers(dest="check_command", required=True)
    p_ca = _subcommand(check_sub, "condition-a", "antipodal symmetry check")
    _add_common(p_ca)
    p_ca.set_defaults(func=_cmd_check_condition_a)
    p_obs = _subcommand(check_sub, "obstructions", "integral obstructions")
    _add_common(p_obs)
    p_obs.set_defaults(func=_cmd_check_obstructions)

    p_bench = _subcommand(sub, "bench", "run a config matrix")
    p_bench.add_argument("configs", nargs="*", help="config files")
    p_bench.add_argument("--output-dir", dest="output_dir")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_CONFIG if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except _global.PipelineError as err:
        print(f"pipeline failure: {err}", file=sys.stderr)
        return _exit_for_stage(err.stage)


if __name__ == "__main__":
    sys.exit(main())
