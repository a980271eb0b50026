"""End-to-end command-line behavior: formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import hamsim
from hamsim import cli, load_hamiltonian
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


def test_cli_import_stays_light():
    # the runtime never needs SciPy, and the estimators' process pool
    # imports its modules when it starts: the CLI loads without SciPy,
    # concurrent.futures or multiprocessing
    script = (
        "import sys, hamsim.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('scipy', 'concurrent.futures', 'multiprocessing'))))"
    )
    src = str(Path(hamsim.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


def test_runtime_runs_without_scipy():
    # SciPy is a test dependency only: every verify suite and a simulate
    # that computes exact_reference from the dense oracle load none of it
    script = (
        "import contextlib, io, sys\n"
        "from importlib import resources\n"
        "from hamsim.cli import main\n"
        "model = str(resources.files('hamsim') / 'data' / 'reference_1q.txt')\n"
        "with contextlib.redirect_stdout(io.StringIO()) as report:\n"
        "    codes = [main(['verify', '--suite', 'all']),\n"
        "             main(['simulate', '--hamiltonian', model, '--samples', '20', '--shots', '10'])]\n"
        "assert codes == [0, 0], codes\n"
        "assert '\"exact_reference\": null' not in report.getvalue()\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    src = str(Path(hamsim.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


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


CHAIN_FILE = str(resources.files("hamsim").joinpath("data/chain_4q.txt"))
BUDGET = ["budget", "--hamiltonian", CHAIN_FILE, "--segments", "16", "--order", "3"]


@pytest.mark.parametrize("argv, bucket", [
    # tau^2 fits a float at t = 1e100, the bucket's variance coeff^2 does not
    (["simulate", "--hamiltonian", CHAIN_FILE, "--t", "1e100"], "2"),
    (BUDGET + ["--t", "1e300", "--epsilon", "0.05"], "2"),
    (BUDGET + ["--t", "1e50", "--epsilon", "0.05"], "4"),
    # the coefficients fit, the sample count n_rows / epsilon^2 does not
    (BUDGET + ["--epsilon", "1e-200"], "baseline"),
])
def test_overflowing_bucket_exits_two(argv, bucket, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: bucket {bucket} ")
    assert "overflows" in err or "float" in err


ALL_ORDER = ["simulate", "--method", "all-order"]  # no --segments: N by the rule


@pytest.mark.parametrize("command, t", [
    *((command, t) for t in ("inf", "nan") for command in [
        ["simulate", "--method", "qdrift"],
        ["simulate", "--method", "qswift"],
        ["simulate", "--method", "trotter"],
        ["simulate", "--method", "trotter", "--order", "4"],
        ["simulate", "--method", "rtrotter"],
        ALL_ORDER,
        BUDGET[:1] + BUDGET[3:] + ["--epsilon", "0.05"],
    ]),
    (ALL_ORDER, "1e100"),
], ids=lambda v: "-".join(v[::2]) if isinstance(v, list) else v)
def test_non_finite_time_exits_two(command, t, capsys):
    # one error naming the input, before any NumPy warning can leak. The
    # finite t = 1e100 passes the all-order rule, which caps N at
    # CIRCUIT_CAP / 5, and its tau ~ 1e94 passes the sampled block sizes
    argv = command[:1] + ["--hamiltonian", CHAIN_FILE, "--t", t] + command[1:]
    if command[0] == "simulate":
        argv += ["--samples", "5", "--shots", "5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(argv, capsys)
    assert (rc, out, err.count("\n")) == (2, "", 1)
    if t == "1e100":
        assert err.startswith("error: all-order blocks at tau = 1.42") and "n = 500" in err
    else:
        assert err == f"error: evolution time t = {t} is not finite\n"


def test_analyze_overflowing_counts_are_na_rows(capsys):
    rc, out, err = run_cli(
        ["analyze", "--lambda", "3", "--Lambda", "1", "--L", "3", "--t", "1e200",
         "--methods", "qdrift,qswift2,qswift3,ts1,ts2,ts4,ts_best"],
        capsys,
    )
    assert (rc, err) == (3, "")
    gates = dict(line.split(",")[2::2] for line in out.splitlines()[1:])
    assert [gates[m] for m in ("qdrift", "qswift2", "qswift3", "ts1")] == ["NA"] * 4
    assert gates["ts_best"] == str(min(int(gates["ts2"]), int(gates["ts4"])))


@pytest.mark.parametrize("args", [
    ["--t", "inf"], ["--t", "nan"], ["--t-grid", "log:1:inf:3"], ["--t-grid", "log:nan:2:3"],
    ["--lambda", "inf"], ["--Lambda", "nan"],
])
def test_analyze_non_finite_inputs_exit_two(args, capsys):
    argv = ["analyze", "--lambda", "3", "--Lambda", "1", "--L", "3", *args]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(argv, capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "finite" in err


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
    assert report["plan_count"] == 2000
    # every trajectory is read exactly: no measurement shots are simulated
    assert report["shot_count"] == 0
    assert report["budgets"]["baseline"]["coeff"] > 1.0
    assert report["buckets"] == {}
    assert report["stderr"] > 0.0
    assert abs(report["value"] - report["exact_reference"]) <= 5 * report["stderr"]


def test_simulate_all_order_segments_by_cost(capsys):
    # without --segments all-order runs round(8 (lambda t)^2) segments, 65
    # on chain_4q at t = 1, and says so; an explicit --segments runs as
    # given, and every other method keeps 16
    base = ["simulate", "--hamiltonian", CHAIN_FILE, "--samples", "20", "--shots", "5"]
    reports = {}
    for method in ("all-order", "qdrift", "rtrotter"):
        for segments in ([], ["--segments", "16"]):
            rc, out, _ = run_cli(base + ["--method", method, *segments], capsys)
            assert rc == 0
            reports[method, bool(segments)] = json.loads(out)
    assert reports["all-order", False]["budgets"]["baseline"]["n_segments"] == 65
    assert reports["all-order", True]["budgets"]["baseline"]["n_segments"] == 16
    assert reports["all-order", False]["value"] != reports["all-order", True]["value"]
    for method in ("qdrift", "rtrotter"):
        assert reports[method, False] == reports[method, True]
        assert "n_segments" not in reports[method, False]["budgets"]["baseline"]
    rc, out, _ = run_cli(base + ["--method", "all-order", "--segments", "65"], capsys)
    assert json.loads(out) == reports["all-order", False]


def test_simulate_all_order_at_large_tau(capsys):
    # chain_4q at N = 1: t = 40 is tau = 114 and runs; at t = 400 the block
    # sizes pass n = 500 and B^N overflows, which exits 2
    chain = str(resources.files("hamsim").joinpath("data/chain_4q.txt"))
    base = ["simulate", "--hamiltonian", chain, "--method", "all-order",
            "--segments", "1", "--samples", "50", "--t"]
    rc, out, err = run_cli(base + ["40"], capsys)
    assert rc == 0
    assert np.isfinite(json.loads(out)["budgets"]["baseline"]["coeff"])
    # a 1-sigma interval wider than [-1, 1] is flagged on stderr
    assert json.loads(out)["stderr"] > 1 and err.startswith("warning:")
    ordinary = ["simulate", "--hamiltonian", chain, "--method", "all-order",
                "--segments", "16", "--samples", "50", "--t", "0.5"]
    rc, out, err = run_cli(ordinary, capsys)
    assert rc == 0 and json.loads(out)["stderr"] < 1 and err == ""
    rc, _, err = run_cli(base + ["400"], capsys)
    assert rc == 2
    assert err.startswith("error:")


def test_simulate_writes_output_file(model_file, tmp_path, capsys):
    # --out writes the bytes the same command prints, final newline included
    out_path = tmp_path / "report.json"
    argv = ["simulate", "--hamiltonian", model_file, "--method", "qdrift",
            "--segments", "2", "--samples", "5", "--shots", "5"]
    rc, out, _ = run_cli(argv + ["--out", str(out_path)], capsys)
    assert rc == 0
    assert out == ""
    assert json.loads(out_path.read_text())["method"] == "QDRIFT"
    rc, printed, _ = run_cli(argv, capsys)
    assert rc == 0
    assert out_path.read_bytes() == printed.encode()


def test_main_reuses_one_parser(model_file, tmp_path, capsys, monkeypatch):
    # one process, one parser: each call's exit code, output and written
    # file equal a freshly built parser's, and --out does not carry over
    out_path = tmp_path / "report.json"
    sim = ["simulate", "--hamiltonian", model_file, "--segments", "4",
           "--samples", "10", "--shots", "10"]
    calls = [
        sim + ["--method", "trotter"],
        ["simulate", "--hamiltonian", model_file, "--method", "bogus"],
        ["verify", "--suite", "core"],
        ["analyze", "--lambda", "1.0", "--Lambda", "0.5", "--L", "4", "--t-grid", "log:1:100:3"],
        sim + ["--method", "rtrotter", "--order", "2", "--seed", "7", "--observable", "x",
               "--out", str(out_path)],
        sim + ["--method", "trotter"],
    ]

    def outcome(run, argv):
        try:
            rc = run(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        written = out_path.read_text() if out_path.exists() else None
        out_path.unlink(missing_ok=True)
        return rc, captured.out, captured.err, written

    def fresh(argv):
        args = build_parser().parse_args(argv)
        return args.fn(args)

    build_parser = cli.build_parser
    want = [outcome(fresh, argv) for argv in calls]
    assert [w[0] for w in want] == [0, 2, 0, 0, 0, 0]
    assert want[4][1] == "" and want[4][3] is not None and want[5] == want[0]
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    got = [outcome(main, argv) for argv in calls]
    assert len(built) == 1
    assert got == want


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


UNREADABLE_MODELS = {
    "directory": lambda tmp: tmp,
    "under_a_file": lambda tmp: tmp / "ref.txt" / "model.txt",
    "not_utf8": lambda tmp: tmp / "latin1.txt",
}
LOADING_COMMANDS = {
    "simulate": ["simulate", "--segments", "2", "--samples", "2", "--shots", "2"],
    "budget": ["budget", "--segments", "8", "--order", "2", "--epsilon", "0.1"],
    "analyze": ["analyze"],
}


@pytest.mark.parametrize("command", sorted(LOADING_COMMANDS))
@pytest.mark.parametrize("kind", sorted(UNREADABLE_MODELS))
def test_unreadable_model_file_exits_two(kind, command, model_file, tmp_path, capsys):
    # an unreadable --hamiltonian is bad input: one error line and exit 2,
    # not a traceback
    (tmp_path / "latin1.txt").write_bytes("0.5 X\n# caf\xe9\n".encode("latin-1"))
    path = str(UNREADABLE_MODELS[kind](tmp_path))
    argv = LOADING_COMMANDS[command] + ["--hamiltonian", path]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


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
    # an order below 1 is refused, never raised to 1
    for method, order in (("qswift", "-3"), ("qswift", "0"), ("trotter", "0"),
                          ("trotter", "-1"), ("rtrotter", "0")):
        rc, out, err = run_cli(
            ["simulate", "--hamiltonian", model_file, "--method", method, "--order", order,
             "--samples", "5", "--shots", "5"],
            capsys,
        )
        assert (rc, out) == (2, ""), (method, order)
        assert err.startswith("error:")


@pytest.mark.parametrize("method", ["qdrift", "qswift", "trotter", "rtrotter", "all-order"])
def test_simulate_observable_checked_for_every_method(method, tmp_path, capsys):
    path = tmp_path / "pair.txt"
    path.write_text("0.5 XX\n0.3 ZI\n0.2 IZ\n")
    base = [
        "simulate", "--hamiltonian", str(path), "--method", method,
        "--segments", "4", "--samples", "20", "--shots", "10", "--observable",
    ]
    values = []
    for axes in ("zi", "ZI"):
        rc, out, _ = run_cli(base + [axes], capsys)
        assert rc == 0
        values.append(json.loads(out)["value"])
    assert values[0] == values[1]
    rc, _, err = run_cli(base + ["Z"], capsys)
    assert rc == 2
    assert err.startswith("error:")


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


def assert_verify_suite_passes(suite, capsys):
    rc, out, _ = run_cli(["verify", "--suite", suite], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_core_suite_passes(capsys):
    assert_verify_suite_passes("core", capsys)


@pytest.mark.parametrize("suite", ["slopes", "all"])
def test_verify_suite_passes(suite, capsys):
    assert_verify_suite_passes(suite, capsys)


@pytest.mark.parametrize("command", sorted(LOADING_COMMANDS))
def test_unwritable_out_exits_two(command, model_file, tmp_path, capsys):
    # an --out in a missing directory is bad input: one error line naming
    # the path, exit 2, nothing on stdout
    out_path = tmp_path / "missing" / "out.txt"
    argv = LOADING_COMMANDS[command] + ["--hamiltonian", model_file, "--out", str(out_path)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out_path}: No such file or directory\n"
    assert not out_path.parent.exists()


def test_unwritable_out_exits_before_the_estimate(model_file, tmp_path, monkeypatch, capsys):
    # the --out path is checked before any sampling, not after it
    def never(*args, **kwargs):
        raise AssertionError("estimated before checking --out")

    monkeypatch.setattr(cli, "estimate_qswift", never)
    out_path = tmp_path / "missing" / "out.txt"
    with pytest.raises(SystemExit) as err:
        main(LOADING_COMMANDS["simulate"] + ["--hamiltonian", model_file, "--out", str(out_path)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out_path}: No such file or directory\n"


@pytest.mark.parametrize("command", sorted(LOADING_COMMANDS))
def test_failed_run_leaves_out_untouched(command, tmp_path, capsys):
    # a run that fails after the --out check neither creates nor truncates it
    bad_model = tmp_path / "bad.txt"
    bad_model.write_text("0.5 Q\n")
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier output\n")
    for out_path in (kept, tmp_path / "new.txt"):
        argv = LOADING_COMMANDS[command] + ["--hamiltonian", str(bad_model), "--out", str(out_path)]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert kept.read_text() == "earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "kept.txt"]
