import json
import pathlib
import subprocess
import sys

import pytest

from braided_fock.cli import main, parse_word, ParseError
from braided_fock.rmatrix import standard_sln_R
from braided_fock.tensor import TensorOp


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseWord:
    def test_mode_syntax(self):
        assert parse_word("t[2]_1 t[0]_2") == ((2, 1), (0, 2))
        assert parse_word("t[-3]_2") == ((-3, 2),)

    def test_wedge_shorthand(self):
        assert parse_word("t2 t1 t2") == ((0, 2), (0, 1), (0, 2))

    def test_empty(self):
        assert parse_word("") == ()

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_word("t[1]_1 blah")
        assert err.value.position == 7


class TestCheckCommand:
    def test_hecke_pass(self, capsys):
        code, out, _ = run(capsys, "check", "hecke", "--n", "3")
        assert code == 0 and "pass" in out

    def test_pybe_pass(self, capsys):
        code, out, _ = run(capsys, "check", "pybe", "--n", "2")
        assert code == 0

    def test_ybe_pass(self, capsys):
        code, out, _ = run(capsys, "check", "ybe", "--n", "2", "--output", "json")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_unitarity_deterministic_json(self, capsys):
        a = run(capsys, "check", "unitarity", "--n", "2", "--seed", "5", "--output", "json")
        b = run(capsys, "check", "unitarity", "--n", "2", "--seed", "5", "--output", "json")
        assert a == b and a[0] == 0

    def test_moderel(self, capsys):
        code, out, _ = run(capsys, "check", "moderel", "--i", "2", "--j", "-1", "--n", "2")
        assert code == 0

    def test_moderel_missing_args(self, capsys):
        code, _, err = run(capsys, "check", "moderel", "--n", "2")
        assert code == 2

    def test_modeind(self, capsys):
        code, _, _ = run(capsys, "check", "modeind", "--i", "2", "--j", "0", "--n", "2")
        assert code == 0

    def test_mode_checks_dispatch_by_kind(self, capsys):
        # gap 1 is a valid exchange pair but too small for the recursion check
        code, out, _ = run(capsys, "check", "moderel", "--i", "1", "--j", "0")
        assert code == 0 and out.startswith("moderel")
        code, out, err = run(capsys, "check", "modeind", "--i", "1", "--j", "0")
        assert code == 2 and "need i - j >= 2" in err and out == ""

    def test_unknown_kind(self, capsys):
        code, _, _ = run(capsys, "check", "nonsense")
        assert code == 2

    def test_identity_matrix_fails(self, capsys, tmp_path):
        blob = TensorOp.identity(2, 2).to_json()
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(blob))
        code, out, _ = run(capsys, "check", "hecke", "--matrix", str(path))
        assert code == 1 and "witness" in out

    @pytest.mark.parametrize("kind, witness", [
        ("pybe", "[[1, 1, 2], [1, 2, 1], "
                 "'2*q^2*z*w - 2*q^2*z - 4*z*w + 4*z + 2*q^-2*z*w - 2*q^-2*z']"),
        ("ybe", "[[2, 1, 1], [2, 1, 1], '2*q^3 - 4*q + 2*q^-1']"),
    ])
    def test_broken_matrix_file_fails_with_pinned_witness(self, capsys, kind, witness):
        path = pathlib.Path(__file__).parent / "data" / "lambda_doubled_n2.json"
        code, out, _ = run(capsys, "check", kind, "--matrix", str(path))
        assert code == 1
        assert out == "%s n=2: FAIL\nwitness: %s\n" % (kind, witness)

    def test_standard_matrix_from_file(self, capsys, tmp_path):
        blob = standard_sln_R(2).R.to_json()
        path = tmp_path / "r.json"
        path.write_text(json.dumps(blob))
        code, _, _ = run(capsys, "check", "hecke", "--matrix", str(path))
        assert code == 0

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "hecke", "--matrix", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("entries, message", [
        ([[[1, 1], [1, 1], {"1": 1.7}]], "must be an integer"),
        ([[[1, 1], [1, 1], {"1": True}]], "must be an integer"),
        ([[[1, 1], [1, 1], "q"]], "map from exponents"),
        ([[[1, 1], [1, 1], {"q": 1}]], "malformed exponent key"),
        ([[[1, 1], [1, 1], {"1.0": 1}]], "malformed exponent key"),
        ([[[1, 1], [1, 1]]], "malformed entry"),
        ([[[1, 1], [1.0, 1], {"1": 1}]], "must be an integer"),
        ([[[1, 1], [1, 1], {"1": 1}], [[1, 1], [1, 1], {"1": 1}]], "duplicate entry"),
    ])
    def test_malformed_matrix_rejected(self, capsys, tmp_path, entries, message):
        # an n = 1 matrix whose coercion to q would pass the Hecke check
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"n": 1, "legs": 2, "entries": entries}))
        code, out, err = run(capsys, "check", "hecke", "--matrix", str(path))
        assert code == 2 and message in err and out == ""

    def test_coercible_matrix_is_valid(self, capsys, tmp_path):
        # the same matrix with an integer coefficient passes
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"n": 1, "legs": 2, "entries": [[[1, 1], [1, 1], {"1": 1}]]}))
        code, out, _ = run(capsys, "check", "hecke", "--matrix", str(path))
        assert code == 0 and "pass" in out

    @pytest.mark.parametrize("blob", [[], {"n": 1, "legs": 2}, {"n": "1", "legs": 2, "entries": []},
                                      {"n": 1, "legs": 2, "entries": {}}])
    def test_malformed_operator_rejected(self, capsys, tmp_path, blob):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(blob))
        code, _, _ = run(capsys, "check", "hecke", "--matrix", str(path))
        assert code == 2


class TestNfCommand:
    def test_adjacent_expansion(self, capsys):
        code, out, _ = run(capsys, "nf", "t[1]_1 t[0]_2", "--n", "2")
        assert code == 0 and "t[0]_2 t[1]_1" in out

    def test_diagonal_zero(self, capsys):
        code, out, _ = run(capsys, "nf", "t[0]_1 t[0]_1", "--n", "2")
        assert code == 0 and out.strip() == "0"

    def test_empty_word_is_unit(self, capsys):
        code, out, _ = run(capsys, "nf", "", "--n", "2")
        assert code == 0 and out.strip() == "(1) 1"

    def test_parse_error_position(self, capsys):
        code, _, err = run(capsys, "nf", "t[1]_1 x2", "--n", "2")
        assert code == 2 and "position 7" in err

    def test_index_out_of_range(self, capsys):
        code, _, err = run(capsys, "nf", "t[0]_5", "--n", "2")
        assert code == 2

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "nf", "t[3]_1 t[0]_2 t[-2]_1", "--n", "2",
                           "--budget", "1")
        assert code == 3 and "budget" in err

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("BRAIDED_FOCK_BUDGET", "1")
        code, _, err = run(capsys, "nf", "t[3]_1 t[0]_2 t[-2]_1", "--n", "2")
        assert code == 3

    def test_negative_budget_rejected(self, capsys):
        code, _, err = run(capsys, "nf", "t[2]_1 t[0]_2", "--n", "2", "--budget", "-3")
        assert code == 2 and "--budget" in err

    def test_zero_budget_allows_no_rewrite(self, capsys):
        code, out, _ = run(capsys, "nf", "t[0]_1 t[2]_2", "--n", "2", "--budget", "0")
        assert code == 0 and out.strip() == "(1) t[0]_1 t[2]_2"
        code, _, err = run(capsys, "nf", "t[2]_1 t[0]_2", "--n", "2", "--budget", "0")
        assert code == 3 and "budget 0 exceeded" in err

    @pytest.mark.parametrize("value", ["-1", "abc", " 5", "2.0", "+3"])
    def test_env_budget_must_be_decimal(self, capsys, monkeypatch, value):
        monkeypatch.setenv("BRAIDED_FOCK_BUDGET", value)
        code, _, err = run(capsys, "heisenberg", "1", "1")
        assert code == 2 and "BRAIDED_FOCK_BUDGET" in err

    def test_gerv_rules_flag(self, capsys):
        code, out, _ = run(capsys, "nf", "t[2]_1 t[0]_2", "--n", "2",
                           "--rules", "gerv", "--output", "json")
        assert code == 0
        words = [tuple(map(tuple, t["word"])) for t in json.loads(out)["normal_form"]["terms"]]
        assert all(len(w) == 2 and {m for m, _ in w} == {0, 2} for w in words)

    def test_json_echo(self, capsys):
        code, out, _ = run(capsys, "nf", "t2 t1", "--n", "2", "--output", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["normal_form"]["terms"][0]["word"] == [[0, 1], [0, 2]]


class TestHeisenbergCommand:
    def test_level_one_n3(self, capsys):
        code, out, _ = run(capsys, "heisenberg", "1", "1", "--n", "3")
        assert code == 0 and "pass" in out

    def test_level_two_json(self, capsys):
        code, out, _ = run(capsys, "heisenberg", "2", "2", "--n", "2", "--output", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob["pass"] is True and blob["engine"] == {"0": 2, "-4": 2}
        assert blob["extrapolation"] is False

    def test_off_diagonal(self, capsys):
        code, out, _ = run(capsys, "heisenberg", "2", "1", "--n", "2", "--output", "json")
        assert code == 0 and json.loads(out)["engine"] == {}

    def test_extrapolation_label(self, capsys):
        code, out, _ = run(capsys, "heisenberg", "3", "3", "--n", "2", "--output", "json")
        assert code == 0 and json.loads(out)["extrapolation"] is True

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "heisenberg", "0", "1", "--n", "2")
        assert code == 2 and "positive" in err

    def test_level_four_off_diagonal(self, capsys):
        code, out, _ = run(capsys, "heisenberg", "4", "1", "--n", "2", "--output", "json")
        blob = json.loads(out)
        assert code == 0 and blob["pass"] is True and blob["engine"] == {}
        assert blob["extrapolation"] is True

    def test_level_four_diagonal(self, capsys):
        code, out, _ = run(capsys, "heisenberg", "4", "4", "--n", "2", "--output", "json")
        blob = json.loads(out)
        assert code == 0 and blob["engine"] == {"0": 4, "-8": 4}

    def test_log_pruned(self, capsys):
        code, out, _ = run(capsys, "heisenberg", "1", "1", "--n", "2",
                           "--log-pruned", "--output", "json")
        assert code == 0
        assert len(json.loads(out)["pruned"]) > 0

    def test_deterministic(self, capsys):
        a = run(capsys, "heisenberg", "1", "1", "--n", "2", "--output", "json")
        b = run(capsys, "heisenberg", "1", "1", "--n", "2", "--output", "json")
        assert a == b


class TestOtherCommands:
    def test_lemma33(self, capsys):
        code, out, _ = run(capsys, "lemma33", "--n", "2")
        assert code == 0 and "pass" in out

    def test_dims(self, capsys):
        code, out, _ = run(capsys, "dims", "--n", "3", "--output", "json")
        assert code == 0
        blob = json.loads(out)
        assert [r["rank"] for r in blob["rows"]] == [1, 3, 3, 1]

    def test_dims_with_user_matrix(self, capsys, tmp_path):
        blob = standard_sln_R(3).R.to_json()
        path = tmp_path / "r3.json"
        path.write_text(json.dumps(blob))
        code, out, _ = run(capsys, "dims", "--matrix", str(path), "--output", "json")
        assert code == 0 and json.loads(out)["n"] == 3

    def test_dims_with_relation_vanishing_at_a_sample_point(self, capsys):
        # the (1, 1) relation coefficient 5q - 7 vanishes at q = 7/5
        path = pathlib.Path(__file__).parent / "data" / "diagonal_5q_n2.json"
        code, out, err = run(capsys, "dims", "--matrix", str(path), "--output", "json")
        assert (code, err) == (0, "")
        assert [r["rank"] for r in json.loads(out)["rows"]] == [1, 2, 1]

    def test_dims_rejects_non_pbw_matrix(self, capsys, tmp_path):
        blob = TensorOp.identity(2, 2).to_json()
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(blob))
        code, _, err = run(capsys, "dims", "--matrix", str(path))
        assert code == 2 and "non-PBW" in err

    def test_bench_removed(self, capsys):
        # bench/run.py is the benchmark; the subcommand that timed three
        # millisecond workloads is gone
        code, out, err = run(capsys, "bench")
        assert code == 2 and "invalid choice: 'bench'" in err and out == ""

    def test_no_command(self, capsys):
        assert main([]) == 2


class TestOptionsPerCommand:
    # each subcommand declares only the options it reads; these were once
    # accepted everywhere and silently ignored
    @pytest.mark.parametrize("argv", [
        ["check", "hecke", "--budget", "5"],
        ["nf", "t2 t1", "--seed", "3"],
        ["heisenberg", "1", "1", "--seed", "3"],
        ["lemma33", "--seed", "3"],
        ["lemma33", "--budget", "-3"],
        ["dims", "--seed", "3"],
        ["dims", "--budget", "5"],
    ], ids=lambda argv: "%s%s" % (argv[0], argv[-2]))
    def test_unread_option_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "unrecognized arguments" in err and out == ""

    @pytest.mark.parametrize("argv", [
        ["hecke", "--seed", "3"],
        ["hecke", "--rules", "gerv"],
        ["hecke", "--i", "5"],
        ["ybe", "--j", "1"],
        ["pybe", "--seed", "0"],
        ["unitarity", "--i", "3"],
        ["unitarity", "--rules", "theorem21"],
        ["moderel", "--i", "1", "--j", "0", "--seed", "3"],
        ["modeind", "--i", "2", "--j", "0", "--seed", "3"],
    ], ids=lambda argv: "%s%s" % (argv[0], argv[-2]))
    def test_check_kind_rejects_unread_option(self, capsys, argv):
        # check takes these options for some kinds only; a value given to a
        # kind that would ignore it, even the default value, is rejected
        code, out, err = run(capsys, "check", *argv, "--n", "2")
        assert code == 2 and "check %s does not read %s" % (argv[0], argv[-2]) in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["check", "moderel", "--i", "6", "--j", "0"],
        ["lemma33"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_env_budget_governs_commands_without_flag(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("BRAIDED_FOCK_BUDGET", "0")
        code, out, err = run(capsys, *argv)
        assert code == 3 and "budget 0 exceeded" in err and out == ""

    def test_rules_choices_are_the_library_variants(self, capsys):
        from braided_fock.modealg import VARIANTS

        for variant in VARIANTS:
            code, _, _ = run(capsys, "check", "moderel", "--i", "1", "--j", "0",
                             "--rules", variant)
            assert code == 0
        code, _, err = run(capsys, "nf", "t2 t1", "--rules", "nonsense")
        assert code == 2 and "invalid choice" in err


class TestGoldenFiles:
    CASES = {
        "heisenberg_22_n2.json": ["heisenberg", "2", "2", "--n", "2", "--output", "json"],
        "nf_t2t1_n2.json": ["nf", "t2 t1", "--n", "2", "--output", "json"],
        "dims_n2.json": ["dims", "--n", "2", "--output", "json"],
        "check_hecke_n3.json": ["check", "hecke", "--n", "3", "--output", "json"],
        "check_pybe_n3.json": ["check", "pybe", "--n", "3", "--output", "json"],
        "check_unitarity_n2_seed5.json": ["check", "unitarity", "--n", "2", "--seed", "5",
                                          "--output", "json"],
        "lemma33_n3.json": ["lemma33", "--n", "3", "--output", "json"],
        "check_modeind_i2_j0_n3.json": ["check", "modeind", "--i", "2", "--j", "0", "--n", "3",
                                        "--output", "json"],
        "heisenberg_33_n3_pruned.json": ["heisenberg", "3", "3", "--n", "3", "--log-pruned",
                                         "--output", "json"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_byte_identical(self, capsys, name):
        golden = pathlib.Path(__file__).parent / "golden" / name
        code, out, _ = run(capsys, *self.CASES[name])
        assert code == 0
        assert out == golden.read_text()

    def test_wide_span_twist_byte_identical(self, capsys):
        # a twisted R with exponents up to 24000: its checks multiply Laurent
        # entries, and their reports keep their bytes
        here = pathlib.Path(__file__).parent
        path = str(here / "data" / "twist_3000_n3.json")
        out = ""
        for kind in ("hecke", "ybe", "pybe"):
            code, text, _ = run(capsys, "check", kind, "--matrix", path, "--output", "json")
            assert code == 0
            out += text
        assert out == (here / "golden" / "check_twist_3000_n3.json").read_text()


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "braided_fock.cli", "check", "hecke", "--n", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and "pass" in proc.stdout


def test_import_loads_neither_dataclasses_nor_inspect():
    # both cost import time and memory in every fresh process
    import os

    import braided_fock

    src = os.path.dirname(os.path.dirname(braided_fock.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, braided_fock; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
