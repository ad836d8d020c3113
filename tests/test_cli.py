"""End-to-end CLI behavior: envelopes, tables, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowescape.open_system as open_system
import flowescape.zeta as zeta
from flowescape import (
    build_suspension,
    escape_rate_flow,
    load_ceiling,
    load_model,
    survival_curve_flow,
)
from flowescape.cli import main


@pytest.fixture()
def files(tmp_path):
    """Model/ceiling fixtures written as the CLI expects to read them."""
    paths = {}
    docs = {
        "full2": {"transitions": [[0.5, 0.5], [0.5, 0.5]], "labels": ["0", "1"]},
        "gm": {"transitions": [[0.5, 0.5], [1.0, 0.0]], "labels": ["0", "1"]},
        "cycle2": {"transitions": [[0.0, 1.0], [1.0, 0.0]], "labels": ["0", "1"]},
        "unit": {"order": 1, "values": {"0": 1.0, "1": 1.0}, "lattice": 1.0},
        "step": {"order": 1, "values": {"0": 1.0, "1": 2.0}, "lattice": 1.0},
    }
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# Envelope commands
# ---------------------------------------------------------------------------

def test_validate_full_envelope(capsys, files):
    code, out, err = run(
        capsys,
        ["validate", "--model", files["full2"], "--ceiling", files["step"], "--hole", "01"],
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["command", "inputs", "results", "versions", "seed"]
    assert doc["command"] == "validate"
    assert set(doc["inputs"]) == {"model", "ceiling", "hole"}
    assert doc["results"]["model"]["stationary"] == [0.5, 0.5]
    assert doc["results"]["ceiling"]["total-mass"] == 1.5
    assert doc["results"]["hole"] == {"word": "01", "measure": 0.25, "reduced": True}
    assert set(doc["versions"]) == {"flowescape", "python", "numpy"}
    assert doc["seed"] is None


def test_validate_model_only(capsys, files):
    code, out, _ = run(capsys, ["validate", "--model", files["gm"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["model"]["stationary"] == pytest.approx([2 / 3, 1 / 3])
    assert "ceiling" not in doc["results"]


def test_escape_rate_exact_value(capsys, files):
    code, out, _ = run(
        capsys,
        ["escape-rate", "--model", files["full2"], "--ceiling", files["unit"], "--hole", "0"],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["rho"] == pytest.approx(math.log(2.0), abs=1e-15)
    assert results["spectral-radius"] == pytest.approx(0.5, abs=1e-15)
    assert results["lattice-scale"] == 1.0
    assert results["total-mass"] == 1.0
    assert results["representation"] in {"refined", "bordered"}


def test_escape_rate_rho_is_the_library_rate(capsys, tmp_path):
    # A small rate on a tall tower: -log(radius)/lambda would miss the
    # library rate by 2e-11 relative, while .17g round-trips it exactly.
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"transitions": [[0.9999, 0.0001], [0.5, 0.5]]}))
    ceiling = tmp_path / "ceiling.json"
    values = {"0": 0.05 * 57, "1": 0.05 * 13}
    ceiling.write_text(json.dumps({"order": 1, "values": values, "lattice": 0.05}))
    code, out, _ = run(
        capsys, ["escape-rate", "--model", str(model), "--ceiling", str(ceiling), "--hole", "1"]
    )
    assert code == 0
    shift = load_model(model)
    system = build_suspension(shift, load_ceiling(shift, ceiling))
    assert json.loads(out)["results"]["rho"] == escape_rate_flow(system, (1,))


def test_escape_rate_infinite_serializes(capsys, files):
    code, out, _ = run(
        capsys,
        ["escape-rate", "--model", files["cycle2"], "--ceiling", files["unit"], "--hole", "0"],
    )
    assert code == 0
    assert "Infinity" in out
    assert json.loads(out)["results"]["rho"] == math.inf


def test_escape_rate_solves_the_root_once(capsys, files, monkeypatch):
    # The radius and the rate come from one root: one tower determinant for
    # a bordered hole, one word-operator root for a refined one.
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counted(zeta, "_tower_leverrier")
    counted(open_system, "_open_root")
    # 2^13 words pass the default state cap, so `auto` takes the bordered route.
    cases = [("0" * 13, "bordered", "_tower_leverrier"), ("110", "refined", "_open_root")]
    for hole, representation, want in cases:
        calls.clear()
        code, out, _ = run(
            capsys,
            ["escape-rate", "--model", files["full2"], "--ceiling", files["step"], "--hole", hole],
        )
        assert code == 0
        assert json.loads(out)["results"]["representation"] == representation
        assert calls == [want]


def test_zeta_check_reports_factorization(capsys, files):
    code, out, _ = run(
        capsys,
        ["zeta-check", "--model", files["full2"], "--ceiling", files["unit"], "--hole", "01"],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["k0"] == 1
    assert results["alpha"] == 0.5
    assert results["zeta-open-inverse"] == [1.0, -1.0, 0.25]
    assert results["max-deviation"] == 0.0
    assert results["cofactor-gap"] < 1e-12


# ---------------------------------------------------------------------------
# Table commands
# ---------------------------------------------------------------------------

def test_survival_table_matches_library(capsys, files, full2, step_ceiling):
    code, out, _ = run(
        capsys,
        [
            "survival", "--model", files["full2"], "--ceiling", files["step"],
            "--hole", "0", "--t-max", "6",
        ],
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["t", "survival"]
    assert len(rows) == 7
    curve = survival_curve_flow(build_suspension(full2, step_ceiling), (0,), 6)
    for row, want in zip(rows, curve):
        assert float(row[1]) == pytest.approx(want, abs=1e-15)


def test_asymptotics_table(capsys, files):
    code, out, _ = run(
        capsys,
        [
            "asymptotics", "--model", files["full2"], "--ceiling", files["unit"],
            "--hole", "0", "--nu-min", "2", "--nu-max", "4", "--order-k", "2",
        ],
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["nu", "mu_nu", "z_nu", "s1", "s2", "partial_sum", "residual_over_mu_k"]
    assert [r[0] for r in rows] == ["2", "3", "4"]
    assert float(rows[0][3]) == pytest.approx(0.5)
    assert float(rows[2][4]) == pytest.approx(1.25)


def test_asymptotics_rejects_low_nu(capsys, files):
    code, out, err = run(
        capsys,
        [
            "asymptotics", "--model", files["full2"], "--ceiling", files["unit"],
            "--hole", "0", "--nu-min", "1", "--nu-max", "4", "--order-k", "2",
        ],
    )
    assert code == 2 and out == "" and "nu-min" in err


def test_local_rate_table(capsys, files):
    code, out, _ = run(
        capsys,
        [
            "local-rate", "--model", files["full2"], "--ceiling", files["step"],
            "--hole", "0", "--nu-min", "4", "--nu-max", "6",
        ],
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["nu", "mu_nu", "ratio_ceiling", "ratio_unit", "limit_ceiling", "limit_unit"]
    assert {row[4] for row in rows} == {rows[0][4]}
    assert float(rows[0][4]) == pytest.approx(1 / 3)
    assert float(rows[0][5]) == pytest.approx(0.5)


def test_induced_pressure_table(capsys, files):
    code, out, _ = run(
        capsys,
        [
            "induced-pressure", "--model", files["full2"], "--ceiling", files["unit"],
            "--hole", "0", "--t-max", "60",
        ],
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["method", "beta", "rho", "abs_gap"]
    by_method = {row[0]: row for row in rows}
    assert set(by_method) == {"root", "truncated"}
    assert float(by_method["root"][3]) < 1e-10
    assert float(by_method["truncated"][3]) < 0.05


def test_simulate_deterministic_and_out_file(capsys, files, tmp_path):
    argv = [
        "simulate", "--model", files["full2"], "--ceiling", files["unit"],
        "--hole", "0", "--t-max", "8", "--seed", "42", "--samples", "1000",
    ]
    code, first, _ = run(capsys, argv)
    assert code == 0
    _, second, _ = run(capsys, argv)
    assert first == second
    header, rows = rows_of(first)
    assert header == ["t", "estimate", "stderr"]
    assert rows[0] == ["0", "1", "0"]

    out_path = tmp_path / "table.csv"
    code, piped, _ = run(capsys, argv + ["--out", str(out_path)])
    assert code == 0 and piped == ""
    assert out_path.read_text() == first


def test_deviation_table_doubles_scales(capsys, files):
    code, out, _ = run(
        capsys,
        [
            "deviation", "--model", files["full2"], "--ceiling", files["step"],
            "--epsilon", "0.25", "--t-max", "20", "--seed", "7", "--samples", "2000",
        ],
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["k", "epsilon", "p_hat", "stderr"]
    assert [r[0] for r in rows] == ["5", "10", "20"]
    assert all(r[1] == "0.25" for r in rows)


def test_deviation_rejects_tiny_t_max(capsys, files):
    code, _, err = run(
        capsys,
        [
            "deviation", "--model", files["full2"], "--ceiling", files["step"],
            "--epsilon", "0.25", "--t-max", "4", "--seed", "7", "--samples", "2000",
        ],
    )
    assert code == 2 and "deviation" in err


# ---------------------------------------------------------------------------
# Exit code taxonomy
# ---------------------------------------------------------------------------

def test_domain_error_is_exit_one_with_envelope(capsys, files):
    code, out, err = run(
        capsys,
        ["escape-rate", "--model", files["gm"], "--ceiling", files["unit"], "--hole", "11"],
    )
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["command"] == "escape-rate"
    assert doc["error"]["code"] == "InadmissibleWord"


def test_usage_errors_are_exit_two(capsys, files, tmp_path):
    code, _, err = run(
        capsys,
        ["escape-rate", "--model", files["full2"], "--ceiling", files["unit"], "--hole", "0X"],
    )
    assert code == 2 and "'X'" in err

    missing = str(tmp_path / "missing.json")
    code, _, err = run(capsys, ["validate", "--model", missing])
    assert code == 2

    assert main(["no-such-command"]) == 2
    assert main(["survival", "--model", files["full2"]]) == 2


def _run_module(argv):
    """``python -m flowescape`` on ``argv`` as a process, so that an exception
    the CLI does not map shows as a traceback on stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "flowescape", *argv], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["induced-pressure", "--hole", "0", "--t-max", "inf"],
        ["induced-pressure", "--hole", "0", "--t-max", "60", "--eta", "nan"],
        ["simulate", "--hole", "0", "--t-max", "8", "--seed", "1", "--samples", str(2**63)],
    ],
    ids=["t-max-inf", "eta-nan", "samples-2**63"],
)
def test_non_finite_or_oversized_arguments_are_exit_two(files, argv):
    argv = argv[:1] + ["--model", files["full2"], "--ceiling", files["unit"]] + argv[1:]
    result = _run_module(argv)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"flowescape {argv[0]}: error: ")


def test_lattice_ratio_overflow_is_a_domain_error(tmp_path, files):
    # 1e300 / 1e-10 overflows the float range: no lattice step is nearest.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"order": 1, "values": {"0": 1e300, "1": 1.0}, "lattice": 1e-10}))
    result = _run_module(
        ["escape-rate", "--model", files["full2"], "--ceiling", str(path), "--hole", "0"]
    )
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    error = json.loads(result.stderr)["error"]
    assert error["code"] == "NonArithmeticCeiling"
    assert "overflows" in error["message"]


MALFORMED = {
    "labels-number": ("model", {"transitions": [[0.5, 0.5], [0.5, 0.5]], "labels": 5}),
    "transitions-object": ("model", {"transitions": {"a": 1}}),
    "lattice-string": ("ceiling", {"order": 1, "values": {"0": 1.0, "1": 1.0}, "lattice": "0.25"}),
    "order-null": ("ceiling", {"order": None, "values": {"0": 1.0, "1": 1.0}}),
    "order-fraction": ("ceiling", {"order": 1.7, "values": {"0": 1.0, "1": 1.0}}),
    "value-list": ("ceiling", {"order": 1, "values": {"0": [1.0], "1": 1.0}}),
    "values-list": ("ceiling", {"order": 1, "values": [1.0, 2.0]}),
}


def _validate_argv(files, tmp_path, kind, doc):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    model = str(path) if kind == "model" else files["full2"]
    ceiling = str(path) if kind == "ceiling" else files["unit"]
    return ["validate", "--model", model, "--ceiling", ceiling]


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_documents_are_exit_two(capsys, files, tmp_path, name):
    argv = _validate_argv(files, tmp_path, *MALFORMED[name])
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "", err
    assert err.startswith("flowescape validate: error: ")
    result = _run_module(argv)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr


def test_null_transition_entry_is_a_domain_error(capsys, files, tmp_path):
    doc = {"transitions": [[0.5, 0.5], [0.5, None]], "labels": ["0", "1"]}
    argv = _validate_argv(files, tmp_path, "model", doc)
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["code"] == "NotRowStochastic"
    result = _run_module(argv)
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    error = json.loads(result.stderr)["error"]
    assert error["code"] == "NotRowStochastic"
    assert "not finite" in error["message"]


def test_console_script_and_module_entry(files):
    result = subprocess.run(
        ["flowescape", "validate", "--model", files["full2"]],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["command"] == "validate"

    result = subprocess.run(
        [sys.executable, "-m", "flowescape", "validate", "--model", files["full2"]],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
