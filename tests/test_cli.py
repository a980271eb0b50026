"""End-to-end command-line behavior: formats, determinism, exit codes."""

import json
from importlib import resources

import pytest

from hamsim import load_hamiltonian
from hamsim.cli import main


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "ref.txt"
    path.write_text("0.5 X\n0.3 Z\n")
    return str(path)


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_bundled_models_parse():
    data = resources.files("hamsim").joinpath("data")
    ref = load_hamiltonian(str(data / "reference_1q.txt"))
    assert ref.n_terms == 2
    assert ref.lam == pytest.approx(0.8)
    chain = load_hamiltonian(str(data / "chain_4q.txt"))
    assert chain.n_qubits == 4
    assert chain.n_terms == 7


def test_analyze_csv_stdout(capsys):
    argv = [
        "analyze", "--lambda", "1.0", "--Lambda", "0.5", "--L", "4",
        "--t-grid", "log:1:100:5", "--epsilon", "1e-3",
    ]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,lambda_t,method,epsilon,gates"
    assert len(lines) == 1 + 5 * 3
    rc2, out2, _ = run_cli(argv, capsys)
    assert rc2 == 0
    assert out2 == out


def test_analyze_from_model_file(model_file, capsys):
    rc, out, _ = run_cli(
        ["analyze", "--hamiltonian", model_file, "--t", "2.0", "--methods", "qdrift,ts2"],
        capsys,
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    # lambda_t column reflects the parsed lambda = 0.8
    assert lines[1].split(",")[1] == repr(0.8 * 2.0)


def test_analyze_json_format(capsys):
    rc, out, _ = run_cli(
        [
            "analyze", "--lambda", "1.0", "--Lambda", "1.0", "--L", "2",
            "--t", "1.0", "--format", "json", "--methods", "qdrift,qswift2",
        ],
        capsys,
    )
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert {row["method"] for row in rows} == {"qdrift", "qswift2"}
    assert all(isinstance(row["gates"], int) for row in rows)


def test_analyze_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    rc, out, _ = run_cli(
        [
            "analyze", "--lambda", "1.0", "--Lambda", "1.0", "--L", "2",
            "--t", "1.0", "--out", str(out_path),
        ],
        capsys,
    )
    assert rc == 0
    assert out == ""
    text = out_path.read_text()
    assert text.startswith("t,lambda_t,method,epsilon,gates")


def test_analyze_vacuous_rows_exit_three(capsys):
    rc, out, _ = run_cli(
        [
            "analyze", "--lambda", "1.0", "--Lambda", "1.0", "--L", "2",
            "--t", "1e9", "--methods", "qswift2",
        ],
        capsys,
    )
    assert rc == 3
    assert ",NA" in out


def test_analyze_input_errors(capsys):
    rc, _, err = run_cli(["analyze", "--lambda", "1.0"], capsys)
    assert rc == 2
    assert "error" in err
    rc, _, err = run_cli(
        ["analyze", "--lambda", "1", "--Lambda", "1", "--L", "2", "--t-grid", "lin:1:2:3"],
        capsys,
    )
    assert rc == 2
    rc, _, err = run_cli(
        ["analyze", "--lambda", "1", "--Lambda", "1", "--L", "2", "--methods", "warp"],
        capsys,
    )
    assert rc == 2


def test_simulate_qdrift_report(model_file, capsys):
    argv = [
        "simulate", "--hamiltonian", model_file, "--method", "qdrift",
        "--t", "1.0", "--segments", "8", "--samples", "50", "--shots", "20",
    ]
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["method"] == "QDRIFT"
    assert report["buckets"] == {}
    assert report["seeds"] == {"master": 42}
    assert report["plan_count"] == 50
    assert "exact_reference" in report
    rc2, out2, _ = run_cli(argv, capsys)
    assert out2 == out


def test_simulate_qswift_report(model_file, capsys):
    rc, out, _ = run_cli(
        [
            "simulate", "--hamiltonian", model_file, "--method", "qswift",
            "--t", "1.0", "--segments", "8", "--samples", "40", "--shots", "20",
            "--seed", "7",
        ],
        capsys,
    )
    assert rc == 0
    report = json.loads(out)
    assert report["method"] == "QSWIFT2"
    assert set(report["buckets"]) == {"2"}
    assert report["seeds"] == {"master": 7}
    assert report["value"] == pytest.approx(
        report["baseline"] + sum(report["buckets"].values()), abs=1e-12
    )


def test_simulate_zero_time_reads_zero(model_file, capsys):
    rc, out, _ = run_cli(
        [
            "simulate", "--hamiltonian", model_file, "--method", "qdrift",
            "--t", "0.0", "--segments", "4", "--samples", "400", "--shots", "25",
        ],
        capsys,
    )
    assert rc == 0
    report = json.loads(out)
    assert report["exact_reference"] == pytest.approx(0.0, abs=1e-12)
    assert abs(report["value"]) < 0.1


def test_simulate_trotter_variants(model_file, capsys):
    rc, out, _ = run_cli(
        [
            "simulate", "--hamiltonian", model_file, "--method", "trotter",
            "--order", "2", "--segments", "4", "--samples", "20", "--shots", "20",
        ],
        capsys,
    )
    assert rc == 0
    report = json.loads(out)
    assert report["method"] == "TS2"
    assert report["plan_count"] == 1
    assert report["shot_count"] == 400
    assert report["stderr"] > 0.0
    rc, out, _ = run_cli(
        [
            "simulate", "--hamiltonian", model_file, "--method", "rtrotter",
            "--order", "1", "--segments", "4", "--samples", "20", "--shots", "20",
        ],
        capsys,
    )
    assert rc == 0
    report = json.loads(out)
    assert report["method"] == "RTS1"
    assert report["plan_count"] == 20
    assert report["value"] == report["baseline"]
    assert report["stderr"] > 0.0


def test_simulate_all_order(model_file, capsys):
    rc, out, _ = run_cli(
        [
            "simulate", "--hamiltonian", model_file, "--method", "all-order",
            "--t", "1.0", "--segments", "4", "--samples", "2000",
        ],
        capsys,
    )
    assert rc == 0
    report = json.loads(out)
    assert report["method"] == "ALLORDER"
    assert report["b_power"] > 1.0
    assert report["stderr"] > 0.0
    assert abs(report["value"] - report["exact_reference"]) <= 5 * report["stderr"]


def test_simulate_writes_output_file(model_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc, out, _ = run_cli(
        [
            "simulate", "--hamiltonian", model_file, "--method", "qdrift",
            "--segments", "2", "--samples", "5", "--shots", "5",
            "--out", str(out_path),
        ],
        capsys,
    )
    assert rc == 0
    assert out == ""
    assert json.loads(out_path.read_text())["method"] == "QDRIFT"


def test_simulate_missing_file_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--hamiltonian", "/nonexistent/model.txt"])
    assert err.value.code == 2


def test_simulate_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5 XQ\n")
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--hamiltonian", str(bad)])
    assert err.value.code == 2


def test_simulate_width_overflow_exits_four(tmp_path, capsys):
    wide = tmp_path / "wide.txt"
    wide.write_text("1.0 " + "X" + "I" * 21 + "\n")
    rc, _, err = run_cli(
        [
            "simulate", "--hamiltonian", str(wide), "--method", "qdrift",
            "--segments", "1", "--samples", "1", "--shots", "1",
        ],
        capsys,
    )
    assert rc == 4
    assert "error" in err


def test_simulate_bad_inputs_exit_two(model_file, capsys):
    rc, _, err = run_cli(
        ["simulate", "--hamiltonian", model_file, "--observable", "XX"],
        capsys,
    )
    assert rc == 2
    rc, _, err = run_cli(
        [
            "simulate", "--hamiltonian", model_file, "--method", "qswift",
            "--segments", "2", "--order", "5",
        ],
        capsys,
    )
    assert rc == 2


def test_budget_formats(model_file, tmp_path, capsys):
    base = [
        "budget", "--hamiltonian", model_file, "--t", "1.25",
        "--segments", "16", "--order", "3", "--epsilon", "0.05",
    ]
    rc, out, _ = run_cli(base, capsys)
    assert rc == 0
    assert "baseline" in out
    assert "total circuits:" in out

    rc, out, _ = run_cli(base + ["--format", "csv"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "bucket,k,coeff,n_sample,circuits"
    assert lines[1].startswith("baseline,0,")
    assert lines[-1].startswith("total,")

    rc, out, _ = run_cli(base + ["--format", "json"], capsys)
    assert rc == 0
    blob = json.loads(out)
    assert blob["rows"][0]["bucket"] == "baseline"
    assert [row["bucket"] for row in blob["rows"][1:]] == ["2", "3", "4", "2,2"]
    assert blob["n_total"] == sum(row["circuits"] for row in blob["rows"])


def test_budget_bad_epsilon_exits_two(model_file, capsys):
    rc, _, err = run_cli(
        [
            "budget", "--hamiltonian", model_file,
            "--segments", "8", "--order", "2", "--epsilon", "-1",
        ],
        capsys,
    )
    assert rc == 2
    assert "error" in err


def test_verify_core_suite_passes(capsys):
    rc, out, _ = run_cli(["verify", "--suite", "core"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")
