import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import arrstab
from arrstab.cli import EXIT_MISMATCH, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main
from arrstab.stability import StabilityReport
from arrstab.symfunc import from_text

from helpers import per_n_report


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_char_text():
    code, out, _ = run_cli("char", "--d", "2", "--k", "3", "--i", "3", "--n", "6")
    assert code == EXIT_OK
    assert out.strip() == "s[6] + s[5,1] + s[4,2] + s[3,3]"


def test_char_zero_cases():
    code, out, _ = run_cli("char", "--d", "2", "--k", "3", "--i", "1", "--n", "8")
    assert code == EXIT_OK and out.strip() == "0"
    code, out, _ = run_cli("char", "--d", "2", "--k", "3", "--i", "3", "--n", "2")
    assert code == EXIT_OK and out.strip() == "0"


def test_char_json_round_trip():
    code, out, _ = run_cli(
        "char", "--d", "2", "--k", "3", "--i", "3", "--n", "5", "--format", "json"
    )
    assert code == EXIT_OK
    text_code, text_out, _ = run_cli("char", "--d", "2", "--k", "3", "--i", "3", "--n", "5")
    from arrstab.symfunc import SymmetricFunction

    assert SymmetricFunction.from_json_obj(json.loads(out)) == from_text(text_out.strip())


def test_table_csv():
    code, out, _ = run_cli(
        "table", "--d", "2", "--k", "3", "--i", "3..5", "--format", "csv"
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["k,i,bound", "3,3,6", "3,4,7", "3,5,8"]


def test_table_text_layout():
    code, out, _ = run_cli("table", "--d", "2", "--k", "3", "--i", "3..4")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("i") and lines[1].startswith("bound")
    assert lines[0].split()[1:] == ["3", "4"]
    assert lines[1].split()[1:] == ["6", "7"]


def test_table_json_round_trip_equivalent_to_csv():
    code, out, _ = run_cli(
        "table", "--d", "2", "--k", "3", "--i", "3..4", "--format", "json"
    )
    assert code == EXIT_OK
    reports = [StabilityReport.from_json_obj(obj) for obj in json.loads(out)]
    code, csv_out, _ = run_cli(
        "table", "--d", "2", "--k", "3", "--i", "3..4", "--format", "csv"
    )
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert rows[0] == ["k", "i", "bound"]
    for rep, row in zip(reports, rows[1:]):
        assert [str(rep.k), str(rep.i), rep.bound_text()] == row


@pytest.mark.parametrize("k, degrees", [(3, range(3, 9)), (4, range(5, 9))])
def test_table_rows_match_per_n_reports(k, degrees):
    # the d=2 rows of the paper's table, rendered from reports built n by n
    reports = [per_n_report(2, k, i) for i in degrees]
    span = f"{degrees[0]}..{degrees[-1]}"
    code, out, _ = run_cli("table", "--d", "2", "--k", str(k), "--i", span, "--format", "json")
    assert code == EXIT_OK
    assert out == json.dumps([rep.to_json_obj() for rep in reports], sort_keys=True) + "\n"
    code, out, _ = run_cli("table", "--d", "2", "--k", str(k), "--i", span, "--format", "csv")
    assert code == EXIT_OK
    assert out == "\n".join(["k,i,bound"] + [rep.csv_row() for rep in reports]) + "\n"


def test_table_horizon_limited():
    code, out, _ = run_cli(
        "table", "--d", "2", "--k", "3", "--i", "3", "--horizon", "4", "--format", "csv"
    )
    assert code == EXIT_OK
    assert out.splitlines()[1] == "3,3,horizon-limited"


def test_cli_import_leaves_process_pool_unloaded():
    # no command runs a process pool, so importing the CLI loads none
    src = os.path.dirname(os.path.dirname(arrstab.__file__))
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import arrstab.cli; "
        "print('concurrent.futures' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_output_file(tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        "table", "--d", "2", "--k", "3", "--i", "3", "--format", "csv",
        "--output", str(target),
    )
    assert code == EXIT_OK and out == ""
    assert target.read_text().splitlines() == ["k,i,bound", "3,3,6"]


def test_progress_goes_to_stderr():
    _, out, err = run_cli("table", "--d", "2", "--k", "3", "--i", "3", "--format", "csv")
    assert "support" in err
    assert "support" not in out


def test_verify_k_mode():
    code, out, _ = run_cli(
        "verify", "--d", "2", "--k", "3", "--n-max", "5", "--format", "csv"
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["d", "case", "n", "i", "formula", "oracle", "result"]
    assert all(row[-1] == "MATCH" for row in rows[1:])
    assert any(row[4] != "0" for row in rows[1:])


def test_verify_lambda_mode():
    code, out, _ = run_cli(
        "verify", "--d", "2", "--lambda", "[2]", "--n-max", "5", "--format", "text"
    )
    assert code == EXIT_OK
    assert "MISMATCH" not in out
    assert "all match" in out


def test_verify_lambda_three_includes_formula_rows():
    code, out, _ = run_cli(
        "verify", "--d", "2", "--lambda", "[3]", "--n-max", "4", "--format", "csv"
    )
    assert code == EXIT_OK
    assert any("k=3" in line for line in out.splitlines())


def test_verify_mismatch_exit_code(monkeypatch):
    import arrstab.cli as cli
    from arrstab.symfunc import schur

    monkeypatch.setattr(cli, "kequal_char", lambda n, i, d, k: schur((n,)))
    code, out, _ = run_cli(
        "verify", "--d", "2", "--k", "3", "--n-max", "3", "--format", "text"
    )
    assert code == EXIT_MISMATCH
    assert "MISMATCH" in out


def test_verify_oracle_limit_exit_code():
    code, _, err = run_cli("verify", "--d", "2", "--k", "3", "--n-max", "9")
    assert code == EXIT_RESOURCE
    assert "limit" in err


def test_oracle_limit_env(monkeypatch):
    monkeypatch.setenv("ARRSTAB_ORACLE_LIMIT", "4")
    code, _, err = run_cli("verify", "--d", "2", "--k", "3", "--n-max", "5")
    assert code == EXIT_RESOURCE
    monkeypatch.setenv("ARRSTAB_ORACLE_LIMIT", "5")
    code, _, _ = run_cli("verify", "--d", "2", "--k", "3", "--n-max", "5")
    assert code == EXIT_OK


def test_verify_refuses_empty_range():
    for case in (["--k", "5"], ["--lambda", "[2,2]"]):
        code, out, err = run_cli("verify", "--d", "2", *case, "--n-max", "3")
        assert code == EXIT_USAGE and out == ""
        assert "below the first size" in err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_oracle_limit_option_is_usage_error(value):
    code, _, err = run_cli("verify", "--d", "2", "--k", "3", "--n-max", "3", "--oracle-limit", value)
    assert code == EXIT_USAGE and "usage error" in err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_oracle_limit_env_is_usage_error(monkeypatch, value):
    monkeypatch.setenv("ARRSTAB_ORACLE_LIMIT", value)
    code, _, err = run_cli("verify", "--d", "2", "--k", "3", "--n-max", "3")
    assert code == EXIT_USAGE and "usage error" in err


@pytest.mark.parametrize("command", ["table", "bounds"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_nonpositive_horizon_is_usage_error(command, value):
    code, out, err = run_cli(command, "--d", "2", "--k", "3", "--i", "3", "--horizon", value)
    assert code == EXIT_USAGE and out == ""
    assert "--horizon: must be at least 1" in err


def test_bounds_k_mode():
    code, out, _ = run_cli("bounds", "--d", "2", "--k", "3", "--i", "3")
    assert code == EXIT_OK
    assert "theorem bounds: 6" in out
    assert "certified sharp bound: 6" in out


def test_bounds_two_theorem_values():
    code, out, _ = run_cli("bounds", "--d", "2", "--k", "8", "--i", "13", "--horizon", "1")
    assert code == EXIT_OK
    assert "104/5, 26" in out


def test_bounds_lambda_mode():
    code, out, _ = run_cli("bounds", "--d", "2", "--lambda", "[2]", "--i", "4")
    assert code == EXIT_OK
    assert out.strip() == "general bound: 16"


def test_bounds_zero_degree():
    code, out, _ = run_cli("bounds", "--d", "4", "--k", "5", "--i", "0")
    assert code == EXIT_OK
    assert "theorem bounds: 0" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--k", "3", "--lambda", "[2]"], "bounds needs exactly one of --k or --lambda"),
        (["--lambda", "[2]", "--horizon", "4"], "--horizon applies only with --k"),
    ],
    ids=["k-and-lambda", "horizon-with-lambda"],
)
def test_bounds_refuses_options_it_would_ignore(argv, message):
    code, out, err = run_cli("bounds", "--d", "2", "--i", "3", *argv)
    assert code == EXIT_USAGE and out == ""
    assert message in err


def test_usage_errors():
    code, _, err = run_cli("char", "--d", "1", "--k", "3", "--i", "1", "--n", "2")
    assert code == EXIT_USAGE
    code, _, _ = run_cli("table", "--d", "2", "--k", "2", "--i", "3")
    assert code == EXIT_USAGE
    code, _, _ = run_cli("verify", "--d", "2", "--n-max", "4")
    assert code == EXIT_USAGE
    code, _, _ = run_cli("verify", "--d", "2", "--k", "3", "--lambda", "[2]", "--n-max", "4")
    assert code == EXIT_USAGE
    code, _, _ = run_cli("table", "--d", "2", "--k", "3", "--i", "5..3")
    assert code == EXIT_USAGE
    code, _, _ = run_cli("nonsense")
    assert code == EXIT_USAGE


def test_verify_d3_k4():
    code, out, _ = run_cli(
        "verify", "--d", "3", "--k", "4", "--n-max", "5", "--format", "text"
    )
    assert code == EXIT_OK
    assert "all match" in out


def test_malformed_values_are_usage_errors():
    code, _, err = run_cli("table", "--d", "2", "--k", "3", "--i", "abc")
    assert code == EXIT_USAGE and "usage error" in err
    code, _, err = run_cli("verify", "--d", "2", "--lambda", "[1,2]", "--n-max", "4")
    assert code == EXIT_USAGE
    code, _, err = run_cli("bounds", "--d", "2", "--lambda", "oops", "--i", "1")
    assert code == EXIT_USAGE
