"""Command line interface.

Each subcommand loads its inputs from JSON files (--model, --ceiling, --hole),
runs one library entry point, and emits either a JSON envelope {command,
inputs, results, versions, seed} or a flat CSV table to --out or stdout.
Floats are always serialized at 17 significant digits so reruns are
byte-identical. Exit codes: 0 success, 1 domain errors (the envelope on stderr
carries the machine-readable code naming the violated precondition), 2 usage
errors (bad flags, unparseable words, unreadable files).
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys

import numpy as np

from . import __version__
from .asymptotics import (
    build_family,
    local_rate_sweep,
    verify_expansion,
)
from .errors import DomainError
from .montecarlo import SimulationConfig, estimate_deviation_prob, estimate_survival
from .open_system import _open_rate
from .pressure import check_pressure_equals_minus_rho
from .shift import (
    DEFAULT_STATE_CAP,
    CylinderFunction,
    MarkovShift,
    cylinder_measure,
    format_word,
    is_reduced,
    load_ceiling,
    load_model,
    parse_word,
)
from .suspension import build_suspension
from .zeta import zeta_op_factorized


# ===========================================================================
# Deterministic serialization
# ===========================================================================

def _format_float(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return f"{value:.17g}"


def _format_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_format_json(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            return "[]"
        items = ", ".join(_format_json(v, indent + 1) for v in seq)
        return "[" + items + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    return str(value)


def _emit(text: str, out_path: "str | None") -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_envelope(command, inputs, results, out_path, seed=None) -> None:
    doc = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "versions": {
            "flowescape": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "seed": seed,
    }
    _emit(_format_json(doc) + "\n", out_path)


def _emit_csv(header: "list[str]", rows, out_path) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    _emit("\n".join(lines) + "\n", out_path)


# ===========================================================================
# Shared loading
# ===========================================================================

def _load(args) -> tuple[MarkovShift, "CylinderFunction | None", "tuple[int, ...] | None"]:
    shift = load_model(args.model)
    ceiling = load_ceiling(shift, args.ceiling) if getattr(args, "ceiling", None) else None
    hole = parse_word(shift, args.hole) if getattr(args, "hole", None) else None
    return shift, ceiling, hole


def _inputs(args, *names) -> dict:
    return {name.replace("_", "-"): getattr(args, name) for name in names if getattr(args, name, None) is not None}


# ===========================================================================
# Subcommands
# ===========================================================================

def _cmd_validate(args) -> int:
    shift, ceiling, hole = _load(args)
    results = {
        "model": {
            "alphabet-size": shift.alphabet_size,
            "labels": list(shift.labels),
            "stationary": [float(v) for v in shift.stationary],
            "row-sum-error": float(np.abs(shift.transitions.sum(axis=1) - 1.0).max()),
            "irreducible": True,
        }
    }
    if ceiling is not None:
        system = build_suspension(shift, ceiling)
        results["ceiling"] = {
            "order": ceiling.order,
            "lattice": ceiling.lattice,
            "total-mass": system.total_mass,
            "blocks": len(system.block_measure),
        }
    if hole is not None:
        results["hole"] = {
            "word": format_word(shift, hole),
            "measure": cylinder_measure(shift, hole),
            "reduced": is_reduced(shift, hole),
        }
    _emit_envelope("validate", _inputs(args, "model", "ceiling", "hole"), results, args.out)
    return 0


def _cmd_escape_rate(args) -> int:
    shift, ceiling, hole = _load(args)
    system = build_suspension(shift, ceiling)
    representation, rate, radius = _open_rate(system, hole, "auto", DEFAULT_STATE_CAP)
    results = {
        "rho": rate,
        "spectral-radius": radius,
        "representation": representation,
        "lattice-scale": system.lattice_scale,
        "total-mass": system.total_mass,
    }
    _emit_envelope("escape-rate", _inputs(args, "model", "ceiling", "hole"), results, args.out)
    return 0


def _cmd_survival(args) -> int:
    from .open_system import survival_curve_flow

    shift, ceiling, hole = _load(args)
    system = build_suspension(shift, ceiling)
    curve = survival_curve_flow(system, hole, args.t_max)
    _emit_csv(["t", "survival"], [(t, float(v)) for t, v in enumerate(curve)], args.out)
    return 0


def _cmd_zeta_check(args) -> int:
    shift, ceiling, hole = _load(args)
    system = build_suspension(shift, ceiling)
    bundle = zeta_op_factorized(system, hole)
    q = bundle.quantities
    results = {
        "k0": q.k0,
        "alpha": q.alpha,
        "correlation": list(q.correlation),
        "zeta-closed-inverse": list(bundle.zeta_closed_inverse.coefficients),
        "zeta-open-inverse": list(bundle.zeta_open_inverse.coefficients),
        "cofactor": list(bundle.cofactor.coefficients),
        "max-deviation": bundle.max_deviation,
        "cofactor-value": bundle.cofactor_value,
        "cofactor-predicted": bundle.cofactor_predicted,
        "cofactor-gap": abs(bundle.cofactor_value - bundle.cofactor_predicted),
    }
    _emit_envelope("zeta-check", _inputs(args, "model", "ceiling", "hole"), results, args.out)
    return 0


def _cmd_asymptotics(args) -> int:
    shift, ceiling, hole = _load(args)
    family = build_family(shift, ceiling, hole)
    if args.nu_min < family.nu_min:
        raise ValueError(f"nu-min must be >= {family.nu_min} for this family")
    rows = verify_expansion(family, range(args.nu_min, args.nu_max + 1), args.order_k)
    _emit_csv(
        ["nu", "mu_nu", "z_nu", "s1", "s2", "partial_sum", "residual_over_mu_k"],
        [
            (r.nu, r.mu_nu, r.z_nu, r.s1, r.s2, r.partial_sum, r.residual_over_mu_k)
            for r in rows
        ],
        args.out,
    )
    return 0


def _cmd_local_rate(args) -> int:
    shift, ceiling, hole = _load(args)
    report = local_rate_sweep(shift, ceiling, hole, range(args.nu_min, args.nu_max + 1))
    _emit_csv(
        ["nu", "mu_nu", "ratio_ceiling", "ratio_unit", "limit_ceiling", "limit_unit"],
        [
            (r.nu, r.mu_nu, r.ratio_ceiling, r.ratio_unit, report.limit_ceiling, report.limit_unit)
            for r in report.rows
        ],
        args.out,
    )
    return 0


def _cmd_induced_pressure(args) -> int:
    shift, ceiling, hole = _load(args)
    report = check_pressure_equals_minus_rho(shift, ceiling, hole, args.t_max, eta=args.eta)
    _emit_csv(
        ["method", "beta", "rho", "abs_gap"],
        [(r.method, r.beta, r.rho, r.abs_gap) for r in report.rows],
        args.out,
    )
    return 0


def _cmd_simulate(args) -> int:
    shift, ceiling, hole = _load(args)
    system = build_suspension(shift, ceiling)
    config = SimulationConfig(seed=args.seed, samples=args.samples, t_max=args.t_max)
    est = estimate_survival(system, hole, config)
    _emit_csv(
        ["t", "estimate", "stderr"],
        [
            (int(t), float(p), float(s))
            for t, p, s in zip(est.ts, est.estimates, est.stderrs)
        ],
        args.out,
    )
    return 0


def _cmd_deviation(args) -> int:
    shift = load_model(args.model)
    ceiling = load_ceiling(shift, args.ceiling)
    ks = []
    k = 5
    while k <= args.t_max:
        ks.append(k)
        k *= 2
    if not ks:
        raise ValueError(f"t-max = {args.t_max} leaves no deviation scales (smallest is 5)")
    config = SimulationConfig(seed=args.seed, samples=args.samples, t_max=args.t_max)
    est = estimate_deviation_prob(shift, ceiling, args.epsilon, ks, config)
    _emit_csv(
        ["k", "epsilon", "p_hat", "stderr"],
        [
            (int(k), args.epsilon, float(p), float(s))
            for k, p, s in zip(est.k_values, est.probabilities, est.stderrs)
        ],
        args.out,
    )
    return 0


# ===========================================================================
# Parser and entry point
# ===========================================================================

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowescape",
        description="Escape rates of suspension flows over Markov shifts through cylinder holes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *, ceiling=True, hole=True, **extra):
        p = sub.add_parser(name)
        p.add_argument("--model", required=True, help="model JSON file")
        if ceiling:
            p.add_argument("--ceiling", required=extra.pop("ceiling_required", True), help="ceiling JSON file")
        if hole:
            p.add_argument("--hole", required=extra.pop("hole_required", True), help="hole word, in symbol labels")
        p.add_argument("--out", help="output file (default stdout)")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, ceiling_required=False, hole_required=False)
    add("escape-rate", _cmd_escape_rate)
    p = add("survival", _cmd_survival)
    p.add_argument("--t-max", type=int, required=True)
    p = add("zeta-check", _cmd_zeta_check)
    p = add("asymptotics", _cmd_asymptotics)
    p.add_argument("--nu-min", type=int, required=True)
    p.add_argument("--nu-max", type=int, required=True)
    p.add_argument("--order-k", type=int, required=True)
    p = add("local-rate", _cmd_local_rate)
    p.add_argument("--nu-min", type=int, required=True)
    p.add_argument("--nu-max", type=int, required=True)
    p = add("induced-pressure", _cmd_induced_pressure)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--eta", type=float)
    p = add("simulate", _cmd_simulate)
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p = add("deviation", _cmd_deviation, hole=False)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except DomainError as exc:
        doc = {
            "command": args.command,
            "error": {"code": exc.code, "message": str(exc)},
        }
        sys.stderr.write(_format_json(doc) + "\n")
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"{parser.prog} {args.command}: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
