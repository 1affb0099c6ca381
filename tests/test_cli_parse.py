import argparse
import contextlib
import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gonalgeo import cli
from gonalgeo.cli import build_parser, main
from gonalgeo.errors import ParameterError

# the CLI grammar, written out apart from cli._COMMANDS so that a wrong
# table entry shows: option -> "int", "text", "flag" or its choices
COMMON = {"--cache-dir": "text", "--workers": "int", "--output": ("json", "csv", "table"), "--budget": "int"}
SHAPE = {"--k": "int", "--b": "int", "--g": "int"}
FAMILY = {"--c": "int", "--base-genus": "int", "--special-base": "flag"}
OPTIONS = {
    "census": COMMON | SHAPE,
    "oracle-check": COMMON | SHAPE | {"--oracle-only": "flag"},
    "invariants": COMMON | SHAPE | FAMILY | {"--audit": "flag"},
    "audit": COMMON | SHAPE | FAMILY,
    "asymptotics": COMMON | {"--case": ("odd", "even")},
    "delta": COMMON | {"--window": "int", "--d-max": "int"},
}
REQUIRED = {
    "census": ("--k",),
    "oracle-check": ("--k",),
    "invariants": ("--k", "--c", "--base-genus"),
    "audit": ("--k", "--c", "--base-genus"),
    "asymptotics": ("--case",),
    "delta": (),
}
DEFAULTS = {
    "--cache-dir": None, "--workers": None, "--output": "table", "--budget": cli.DEFAULT_ENUM_BUDGET,
    "--b": None, "--g": None, "--special-base": False, "--oracle-only": False, "--audit": False,
    "--window": 8, "--d-max": 10**6,
}
HANDLERS = {
    "census": cli.cmd_census,
    "oracle-check": cli.cmd_oracle_check,
    "invariants": cli.cmd_invariants,
    "audit": cli.cmd_audit,
    "asymptotics": cli.cmd_asymptotics,
    "delta": cli.cmd_delta,
}
COMMANDS = tuple(OPTIONS)
ALL_OPTIONS = {option: kind for options in OPTIONS.values() for option, kind in options.items()}


def _dest(option: str) -> str:
    return option.lstrip("-").replace("-", "_")


def _value(kind, valid: bool):
    """Strategy for the tokens that follow an option: a valid value and
    its parsed form, or a bad one (parsed form None)."""
    if kind == "flag":
        return st.just(((), True))
    if kind == "text":
        return st.sampled_from(["cache", "a dir"]).map(lambda t: ((t,), t))
    if kind == "int":
        good = st.integers(-3, 40).map(lambda n: ((str(n),), n))
        bad = st.sampled_from(["x", "1.5", ""]).map(lambda t: ((t,), None))
    else:
        good = st.sampled_from(kind).map(lambda t: ((t,), t))
        bad = st.sampled_from(["xml", "ODD"]).map(lambda t: ((t,), None))
    return good if valid else st.one_of(good, bad)


@st.composite
def clean_argv(draw):
    """A line the grammar accepts, with the namespace it must parse to."""
    command = draw(st.sampled_from(COMMANDS))
    options = OPTIONS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=5))
    chosen += [option for option in REQUIRED[command] if option not in chosen]
    chosen = draw(st.permutations(chosen))
    argv = [command]
    expected = {"func": HANDLERS[command]}
    expected |= {_dest(o): DEFAULTS[o] for o in options if o not in REQUIRED[command]}
    if command == "delta":
        g, k = draw(st.integers(-3, 40)), draw(st.integers(-3, 40))
        epsilon = draw(st.sampled_from(["1/2", "3", "1e3"]))
        argv += [str(g), str(k), epsilon]
        expected |= {"g": g, "k": k, "epsilon": epsilon}
    for option in chosen:
        tokens, parsed = draw(_value(options[option], valid=True))
        argv += [option, *tokens]
        expected[_dest(option)] = parsed
    return argv, expected


@st.composite
def any_argv(draw):
    """Commands, non-commands, any option of any command with a good or
    bad value, help and stray positionals, in any order."""
    argv = [draw(st.sampled_from(COMMANDS + ("cen", "frobnicate", "--output", "-h")))]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            option = draw(st.sampled_from(sorted(ALL_OPTIONS)))
            tokens, _parsed = draw(_value(ALL_OPTIONS[option], valid=False))
            argv += [option, *tokens]
        else:
            argv.append(draw(st.sampled_from(["-h", "stray", "7", "1/2", "json"])))
    return argv, None


def _outcome(parser, argv):
    """What ``parser`` makes of ``argv``: its namespace without
    ``command``, which only the full parser sets, its error or its help."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parser.parse_args(argv)
    except ParameterError as exc:
        return ("error", str(exc))
    except cli._Exit as exc:
        return ("help", exc.status, out.getvalue())
    return ("parsed", {key: value for key, value in vars(args).items() if key != "command"})


@settings(max_examples=300, deadline=None)
@given(st.one_of(clean_argv(), any_argv()))
def test_one_command_parser_parses_as_the_full_parser(drawn):
    argv, expected = drawn
    full = _outcome(build_parser(), argv)
    if argv[0] in COMMANDS:
        assert _outcome(cli._command_parser(argv[0]), argv[1:]) == full
    if expected is not None:
        assert full == ("parsed", expected)
        assert vars(build_parser().parse_args(argv))["command"] == argv[0]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [("-h",), ("--help",), *((name, "-h") for name in COMMANDS)])
def test_help_returns_zero_instead_of_exiting(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: gonalgeo")
    assert err == ""


def test_bare_call_returns_an_argument_error(capsys):
    assert run_cli(capsys) == (4, "", "error: a command is required\n")


@pytest.fixture
def built(monkeypatch):
    """The names of the subparsers built while the test runs."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, *args, **kwargs):
        names.append(name)
        return add_parser(self, name, *args, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    return names


@pytest.mark.parametrize(
    "argv",
    [(), ("-h",), ("cen",), ("--output", "json", "census", "--k", "3")],
    ids=["bare", "help", "abbreviation", "option-first"],
)
def test_lines_not_led_by_a_command_build_every_command(capsys, built, parsers, argv):
    main(list(argv))
    assert built == list(COMMANDS)
    assert parsers == {"_Parser": 1 + len(COMMANDS), "_SubParsersAction": 1}


def test_full_parser_builds_every_command(built):
    build_parser()
    assert built == list(COMMANDS)


@pytest.fixture
def parsers(monkeypatch):
    """The _Parser and _SubParsersAction objects constructed while the
    test runs, by class name."""
    made = {"_Parser": 0, "_SubParsersAction": 0}
    for cls in (cli._Parser, argparse._SubParsersAction):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return made


@pytest.mark.parametrize(
    "argv",
    [(name, "--help") for name in COMMANDS] + [("asymptotics", "--case", "odd")],
    ids=[*COMMANDS, "asymptotics-run"],
)
def test_command_led_line_constructs_one_parser(tmp_path, capsys, parsers, argv):
    # the command's own, with no program parser and no subparsers action
    assert main([*argv, "--cache-dir", str(tmp_path)]) == 0
    assert parsers == {"_Parser": 1, "_SubParsersAction": 0}


def test_process_entry_builds_only_the_named_command(tmp_path, monkeypatch, capsys, parsers, built):
    argv = ["census", "--k", "3", "--b", "4", "--cache-dir", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", ["gonalgeo", *argv])
    assert main() == 0
    assert parsers == {"_Parser": 1, "_SubParsersAction": 0}
    assert built == []


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_is_the_same_from_either_parser(command):
    alone = _outcome(cli._command_parser(command), ["--help"])
    assert alone[:2] == ("help", 0)
    assert alone[2].startswith(f"usage: gonalgeo {command} [-h]")
    assert alone == _outcome(build_parser(), [command, "--help"])
