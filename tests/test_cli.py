import hashlib
import re
import subprocess
import sys

import pytest

import nes.cli as cli
import nes.properties as properties
from nes import App
from nes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_echoes_canonical_rendering(capsys):
    code, out, err = run(capsys, "parse", "(x)  y   (\\z. z)")
    assert (code, err) == (0, "")
    assert out == "x y (\\z. z)\n"


def test_parse_evaluates_meta_nodes(capsys):
    code, out, _ = run(capsys, "parse", "{x := y} x")
    assert code == 0
    assert out == "y\n"


def test_parse_error_goes_to_stderr_with_status_2(capsys):
    code, out, err = run(capsys, "parse", "[x := y x")
    assert code == 2
    assert out == ""
    assert "1:10" in err


def test_fv_canonical_order(capsys):
    code, out, _ = run(capsys, "fv", "y (x0 x) ([w := v] w) x1")
    assert code == 0
    assert out == "v\nx\nx0\nx1\ny\n"


def test_fv_closed_term_prints_nothing(capsys):
    code, out, _ = run(capsys, "fv", "\\x. x")
    assert (code, out) == (0, "")


def test_swap(capsys):
    code, out, _ = run(capsys, "swap", "x", "y", "\\x. x z")
    assert code == 0
    assert out == "\\y. y z\n"


def test_subst_reads_as_replace_x_by_u_in_t(capsys):
    code, out, _ = run(capsys, "subst", "x", "y", "\\y. x y")
    assert code == 0
    assert out == "\\y0. y y0\n"


def test_aeq_true_false_exit_codes(capsys):
    code, out, _ = run(capsys, "aeq", "\\x. x", "\\y. y")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "aeq", "\\x. y", "\\y. y")
    assert (code, out) == (1, "false\n")


def test_canon(capsys):
    code, out, _ = run(capsys, "canon", "(\\x. x ([y := z] y)) w")
    assert code == 0
    assert out == "(\\. #0 ([:= z] #0)) w\n"


def test_expr_from_file(capsys, tmp_path):
    path = tmp_path / "term.nes"
    path.write_text("\\x. x y\n", encoding="utf-8")
    code, out, _ = run(capsys, "parse", f"@{path}")
    assert (code, out) == (0, "\\x. x y\n")


def test_missing_file_is_status_2(capsys, tmp_path):
    code, out, err = run(capsys, "parse", f"@{tmp_path}/absent.nes")
    assert code == 2
    assert err != ""


def test_deep_term_is_status_2_without_traceback(capsys, tmp_path):
    # canonicalize recurses, so a deep term is too deep for canon
    path = tmp_path / "deep.nes"
    path.write_text("\\x. " * 10_000 + "x\n", encoding="utf-8")
    code, out, err = run(capsys, "canon", f"@{path}")
    assert (code, out) == (2, "")
    assert err == "term nested too deeply\n"


def test_parse_and_fv_take_a_deep_term(capsys, tmp_path):
    path = tmp_path / "deep.nes"
    text = "\\x. " * 10**5 + "x y"
    path.write_text(text + "\n", encoding="utf-8")
    assert run(capsys, "parse", f"@{path}") == (0, text + "\n", "")
    assert run(capsys, "fv", f"@{path}") == (0, "y\n", "")


def test_parse_evaluates_deeply_nested_meta_nodes(capsys, tmp_path):
    path = tmp_path / "deep.nes"
    path.write_text("{x := y} " * 10**5 + "x\n", encoding="utf-8")
    assert run(capsys, "parse", f"@{path}") == (0, "y\n", "")


def test_bad_atom_argument_is_status_2(capsys):
    code, _, err = run(capsys, "swap", "not an atom", "y", "x")
    assert code == 2
    assert "not an atom" in err


def test_leading_zero_index_is_status_2(capsys):
    code, out, err = run(capsys, "aeq", "\\x01. x1", "\\y. y")
    assert (code, out) == (2, "")
    assert "1:2" in err and "'x01'" in err


@pytest.mark.parametrize(
    "argv, status, out",
    [
        (["aeq", "\\x. x", "\\y. y"], 0, "true\n"),
        (["aeq", "\\x. x", "y"], 1, "false\n"),
        (["parse", "(x"], 2, ""),
    ],
    ids=["true", "false", "bad-input"],
)
def test_python_dash_m_nes_passes_the_exit_status_through(argv, status, out, child_env):
    result = subprocess.run(
        [sys.executable, "-m", "nes", *argv],
        env=child_env,
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout) == (status, out), result.stderr


def test_cold_import_leaves_out_dataclasses_and_inspect(child_env):
    # dataclasses pulls in inspect, ast, dis and tokenize: most of a cold
    # start's import time
    probe = (
        "import sys, nes.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=child_env,
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def test_cold_import_leaves_out_argparse_gettext_and_re(child_env):
    # argparse and gettext were most of what a cold start spent in nes.cli;
    # typing itself imports re, so it comes first, and then any import of re
    # fails
    probe = (
        "import sys, typing; sys.modules['re'] = None; import nes.cli; "
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=child_env,
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus", "x"],
        ["parse"],
        ["parse", "x", "y"],
        ["swap", "x", "y"],
        ["check", "extra"],
        ["check", "--bogus", "1"],
        ["parse", "--cases", "1", "x"],
        ["check", "--cas", "5"],  # no unique-prefix abbreviations
        ["check", "--cases"],
        ["check", "--lemma"],
        ["check", "--cases", "many"],
        ["check", "--seed", "1.5"],
        ["check", "--max-size=big"],
        ["check", "--format", "json"],
    ],
    ids=lambda argv: "_".join(argv) or "no-command",
)
def test_usage_error_is_status_2_without_traceback(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: nes ") and "nes: error: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["check", "-h"], ["swap", "x", "--help"]],
    ids=lambda argv: "_".join(argv),
)
def test_help_is_status_0_on_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: nes parse EXPR") and "--max-size 20" in out


def test_usage_states_genconfigs_defaults():
    # nes check passes on only the options it is given, so GenConfig holds
    # the defaults, and the usage text is the one other place that states
    # them
    shown = dict(re.findall(r"\[--(cases|seed|max-size|pool) ([^]]*)\]", cli._USAGE))
    config = properties.GenConfig()
    assert shown == {
        "cases": str(config.cases), "seed": str(config.seed),
        "max-size": str(config.max_size),
        "pool": ",".join(map(str, config.atom_pool)),
    }


def test_check_options_equals_form_and_last_value_wins(capsys):
    code, out, _ = run(
        capsys, "check", "--lemma=vswap_id", "--cases", "7", "--seed=3",
        "--cases=50", "--seed", "9", "--format=tsv", "--format", "text",
    )
    assert code == 0
    assert out == "ok   vswap_id                   cases=50 failures=0 seed=9\n"


def test_double_dash_ends_options(capsys):
    code, out, _ = run(capsys, "swap", "x", "--", "y", "\\x. x z")
    assert (code, out) == (0, "\\y. y z\n")


# Pins which laws ran and their verdicts.  While every law passes, a tsv
# line holds only the law's name, the case count, the failure count and
# the seed, so a change to what a seed draws or to a fresh name msubst
# picks does not show here: test_drawn_inputs_are_pinned pins the draws.
@pytest.mark.parametrize(
    "flags, digest",
    [
        (
            ["--cases", "400", "--seed", "7", "--max-size", "15"],
            "f0f2b8db9d6b9ae006c5fb4d892403e913c330adbcf220149f618f8d0bf7d80e",
        ),
        (
            ["--cases", "300", "--pool", "x"],
            "304f0e083e01285179553adc60dc0d6d48594eb6abe410ada902ea771a70be5e",
        ),
    ],
    ids=["seed-7-size-15", "pool-x"],
)
def test_check_tsv_output_is_pinned(capsys, flags, digest):
    code, out, err = run(capsys, "check", "--format", "tsv", *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_single_lemma_text(capsys):
    code, out, _ = run(
        capsys, "check", "--lemma", "vswap_id", "--cases", "50", "--seed", "9"
    )
    assert code == 0
    assert out == "ok   vswap_id                   cases=50 failures=0 seed=9\n"


def test_check_tsv_format(capsys):
    code, out, _ = run(
        capsys, "check",
        "--lemma", "swap_involutive", "--lemma", "aeq_refl",
        "--cases", "25", "--format", "tsv",
    )
    assert code == 0
    assert out == "swap_involutive\t25\t0\t0\naeq_refl\t25\t0\t0\n"


def test_check_unknown_lemma_lists_catalogue(capsys):
    code, out, err = run(capsys, "check", "--lemma", "nope")
    assert code == 2
    assert out == ""
    assert "unknown lemma" in err and "swap_involutive" in err


def test_check_pool_and_flags(capsys):
    code, out, _ = run(
        capsys, "check",
        "--lemma", "aeq_oracle", "--cases", "40",
        "--max-size", "8", "--pool", "a,b", "--seed", "4",
    )
    assert code == 0
    assert "failures=0" in out


def test_check_pool_with_a_repeated_atom_is_status_2(capsys):
    code, out, err = run(capsys, "check", "--lemma", "aeq_refl", "--pool", "x,x")
    assert (code, out) == (2, "")
    assert "atom_pool must not repeat an atom" in err


def test_check_byte_identical_across_runs(capsys):
    flags = ["check", "--lemma", "m_subst_lemma", "--cases", "30", "--seed", "2"]
    _, first, _ = run(capsys, *flags)
    _, second, _ = run(capsys, *flags)
    assert first == second


def test_check_restores_the_recursion_limit(capsys):
    before = sys.getrecursionlimit()
    code, _, _ = run(capsys, "check", "--lemma", "swap_id", "--cases", "1",
                     "--max-size", "3000")
    assert code == 0
    assert sys.getrecursionlimit() == before


@pytest.mark.parametrize(
    "fmt, expected",
    [
        (
            "text",
            "FAIL every_term_is_app_free     cases=50 failures=13 seed=0\n"
            "     counterexample:\n"
            "       t = x x\n",
        ),
        (
            "tsv",
            "every_term_is_app_free\t50\t13\t0\n"
            "# counterexample:\n"
            "#   t = x x\n",
        ),
    ],
    ids=["text", "tsv"],
)
def test_check_failing_law_report(capsys, monkeypatch, fmt, expected):
    # a deliberately false statement, listed so that --lemma accepts it
    name = "every_term_is_app_free"
    prop = properties._Prop(
        draw=lambda d: {"t": d.term()},
        body=lambda t: not isinstance(t, App),
    )
    monkeypatch.setitem(properties._CATALOGUE, name, prop)
    monkeypatch.setattr(cli, "PROPERTY_NAMES", cli.PROPERTY_NAMES + (name,))
    code, out, err = run(
        capsys, "check", "--lemma", name, "--cases", "50", "--format", fmt
    )
    assert (code, out, err) == (1, expected, "")
