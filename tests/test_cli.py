"""Command-line interface: subcommands, exit codes, report determinism."""

import json
import os
import subprocess
import sys

import pytest

from weylkit import cli, spin_monomial


def run_cli(*args, env_extra=None, flags=()):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, *flags, "-m", "weylkit.cli", *args],
                          capture_output=True, text=True, env=env)


def test_decompose_frozen_output():
    r = run_cli("decompose", "--rank", "5", "--delta", "1,3")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d == {"D": [3, 1], "case": "i", "delta_prime": [1, 3],
                 "orbits": [[4], [5], [1, 2, 3]], "rank": 5}


def test_decompose_empty_delta():
    r = run_cli("decompose", "--rank", "4")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["orbits"] == [[1], [2], [3], [4]]


def test_decompose_bad_index_exits_2():
    r = run_cli("decompose", "--rank", "4", "--delta", "9")
    assert r.returncode == 2


def test_verify_report_shape():
    r = run_cli("verify", "--suite", "relweyl", "--rank", "3")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["schema"] == "weylkit-report/1"
    assert rep["suite"] == "relweyl"
    assert rep["version"] == "0.1.0"
    assert rep["summary"]["fail"] == 0
    for rec in rep["records"]:
        assert set(rec) >= {"id", "status", "details"}
        assert rec["status"] in ("pass", "fail", "skipped")


def test_verify_byte_identity():
    a = run_cli("verify", "--suite", "relweyl", "--rank", "3")
    b = run_cli("verify", "--suite", "relweyl", "--rank", "3")
    assert a.stdout == b.stdout


def test_verify_extend_under_optimize_flag():
    # python -O strips asserts; the extension checks must not depend on them
    plain = run_cli("verify", "--suite", "extend", "--seed", "0")
    opt = run_cli("verify", "--suite", "extend", "--seed", "0", flags=("-O",))
    assert plain.returncode == opt.returncode == 0
    assert opt.stdout == plain.stdout


@pytest.mark.parametrize("suite", ["relations", "relweyl"])
def test_verify_rank3_suites_under_optimize_flag(suite):
    plain = run_cli("verify", "--suite", suite, "--rank", "3")
    opt = run_cli("verify", "--suite", suite, "--rank", "3", flags=("-O",))
    assert plain.returncode == opt.returncode == 0
    assert opt.stdout == plain.stdout


@pytest.mark.parametrize("args", [
    ("--suite", "shadows", "--max-orbits", "2", "--random-count", "5",
     "--seed", "1"),
    ("--suite", "table1"),
], ids=["shadows", "table1"])
def test_verify_table_suites_under_optimize_flag(args):
    plain = run_cli("verify", *args)
    opt = run_cli("verify", *args, flags=("-O",))
    assert plain.returncode == opt.returncode == 0
    assert opt.stdout == plain.stdout


def test_relations_suite_builds_one_spin_context(monkeypatch):
    built = []

    class Counting(spin_monomial.SpinCtx):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(spin_monomial, "SpinCtx", Counting)
    args = cli.build_parser().parse_args(["verify", "--suite", "relations",
                                          "--rank", "3"])
    records = list(cli._suite_relations(args))
    assert len(records) == 1 + 2 ** 3
    assert all(status == "pass" for _, status, _ in records)
    assert built == [(3,)]


def test_verify_rank_above_cap_skips():
    r = run_cli("verify", "--suite", "relweyl", "--rank", "6")
    rep = json.loads(r.stdout)
    assert rep["summary"]["skipped"] == 1
    assert rep["records"][0]["status"] == "skipped"


def test_verify_text_mode():
    r = run_cli("verify", "--suite", "relweyl", "--rank", "3", "--text")
    assert r.returncode == 0
    assert "summary:" in r.stdout


def test_verify_out_file(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("verify", "--suite", "relweyl", "--rank", "3",
                "--out", str(out))
    assert r.returncode == 0
    rep = json.loads(out.read_text())
    assert rep["suite"] == "relweyl"


def test_jobs_option_is_a_usage_error():
    r = run_cli("verify", "--suite", "relweyl", "--rank", "2", "--jobs", "2")
    assert r.returncode == 2
    assert "unrecognized arguments: --jobs 2" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("suite", ["relweyl", "relations", "all"])
def test_verify_rank_below_two_exits_2(suite):
    r = run_cli("verify", "--suite", suite, "--rank", "1")
    assert r.returncode == 2
    assert r.stderr.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("flag, value", [("--max-orbits", "0"),
                                         ("--random-count", "-3")])
def test_verify_bad_shadows_size_exits_2(flag, value):
    r = run_cli("verify", "--suite", "shadows", flag, value)
    assert r.returncode == 2
    assert r.stderr.splitlines()[-1].startswith(f"error: suite shadows "
                                                f"needs {flag[2:]} >= ")
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_unknown_suite_exits_2():
    r = run_cli("verify", "--suite", "nonsense")
    assert r.returncode == 2


def test_build_parser_in_process():
    p = cli.build_parser()
    args = p.parse_args(["decompose", "--rank", "4", "--delta", "1"])
    assert args.rank == 4


def test_main_exit_codes_in_process(capsys):
    assert cli.main(["decompose", "--rank", "4", "--delta", "1,2"]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "relweyl", "--rank", "2"]) == 0
    capsys.readouterr()
