import argparse
import contextlib
import functools
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gonalgeo
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


def _reference_parser(name):
    """A command's parser built the way it was before the shared groups
    became parents: a fresh ``_Parser`` with one add_argument per row,
    ``-h`` among them."""
    _name, groups, _help, arguments, handler = cli._COMMAND_ROWS[name]
    parser = cli._Parser(prog=f"gonalgeo {name}", add_help=False, allow_abbrev=False)
    for flags, keywords in [row for group in groups for row in cli._GROUPS[group]] + list(arguments):
        parser.add_argument(*flags, **keywords)
    parser.set_defaults(func=handler)
    return parser


@settings(max_examples=300, deadline=None)
@given(st.one_of(clean_argv(), any_argv()))
def test_one_command_parser_parses_as_the_full_parser(drawn):
    argv, expected = drawn
    full = _outcome(build_parser(), argv)
    if argv[0] in COMMANDS:
        assert _outcome(cli._command_parser(argv[0]), argv[1:]) == full
        assert _outcome(_reference_parser(argv[0]), argv[1:]) == full
    if expected is not None:
        assert full == ("parsed", expected)
        assert vars(build_parser().parse_args(argv))["command"] == argv[0]


# the values a drawn line gives an option or a positional: small, zero,
# negative and large ints, an int past the digit limit, words, and
# rationals whose parts are zero or past the digit limit; "@" stands for
# the temporary cache directory
INTS = st.one_of(st.integers(-3, 12).map(str), st.sampled_from(["10" * 6, "1" * 4301]))
WORDS = st.sampled_from(["x", "json", "odd", "1/0", "1e-5000", "1/10", "@", "@/sub"])
EPSILONS = st.sampled_from(["1/10", "1/2", "3", "0", "1/0", "1e-5000"])


def _drawn_value(option: str, noisy: bool):
    """Strategy for the value after an option: of its kind, or on a noisy
    line any int or word."""
    kind = ALL_OPTIONS.get(option, "int")
    if kind == "text":
        return st.sampled_from(["@", "@/sub"])
    if noisy:
        return st.one_of(INTS, WORDS)
    if kind == "int":
        # degrees from 2, genera from 0 and even branch counts, mostly
        low, step = {"--k": (2, 1), "k": (2, 1), "--b": (1, 2), "--g": (0, 1), "g": (0, 1)}.get(option, (1, 1))
        return st.one_of(st.integers(low, 8).map(lambda n: str(n * step)), st.just("10" * 6))
    return st.sampled_from(kind)


@st.composite
def run_argv(draw):
    """A command line for ``main``: a command name, its required options
    and --b or --g where it has them, and drawn options of its own, each
    with a value of its kind; a noisy line also takes any value, an
    option of any command and a stray word.  Last comes a --budget of at
    most 10^4."""
    noisy = draw(st.sampled_from((False, False, False, True)))
    command = draw(st.sampled_from(COMMANDS))
    own = sorted(OPTIONS[command])
    chosen = list(REQUIRED[command]) + draw(st.lists(st.sampled_from(own), unique=True, max_size=4))
    if "--b" in own:
        chosen.append(draw(st.sampled_from(("--b", "--g"))))
    if noisy:
        chosen.append(draw(st.sampled_from(sorted(ALL_OPTIONS))))
    argv = [command]
    if command == "delta":
        genus, degree = draw(_drawn_value("g", noisy)), draw(_drawn_value("k", noisy))
        argv += [genus, degree, draw(st.one_of(EPSILONS, INTS, WORDS) if noisy else EPSILONS)]
    for option in draw(st.permutations(chosen)):
        argv.append(option)
        if ALL_OPTIONS[option] != "flag":
            argv.append(draw(_drawn_value(option, noisy)))
    if noisy:
        argv.append(draw(st.one_of(INTS, WORDS)))
    budget = st.integers(-1, 10**4) if noisy else st.sampled_from((10**4, 1000, 1))
    return argv + ["--budget", str(draw(budget))]


@settings(max_examples=300, deadline=None)
@given(argv=run_argv())
def test_drawn_command_lines_end_in_a_contract_code(argv):
    # any line, run through main, returns 0, 2, 3 or 4 without raising,
    # prints no traceback and leaves no temporary file in the cache
    with tempfile.TemporaryDirectory() as d, mock.patch.dict(os.environ, {"GG_CACHE_DIR": d}):
        line = [token.replace("@", d) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(line)
        assert code in (0, 2, 3, 4), (line, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert [p for p in Path(d).rglob("*") if p.name.endswith(".tmp")] == []


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
    assert alone == _outcome(_reference_parser(command), ["--help"])


def test_each_shared_group_is_built_once_per_process(monkeypatch, capsys, parsers):
    # a fresh cache stands in for a fresh process
    made = []

    def counting(name, _build=cli._group.__wrapped__):
        made.append(name)
        return _build(name)

    monkeypatch.setattr(cli, "_group", functools.cache(counting))
    assert main(["invariants", "--help"]) == 0
    assert made == ["common", "shape", "family"]
    # the groups never parse, so they are plain containers, not _Parsers
    assert parsers == {"_Parser": 1, "_SubParsersAction": 0}
    for command in COMMANDS:
        assert main([command, "--help"]) == 0
    build_parser()
    main([])
    assert made == ["common", "shape", "family"]
    # a command's parser adopts the group's actions, not copies of them
    for command, group, option in (("census", "shape", "--k"), ("delta", "common", "--budget"), ("audit", "family", "--c")):
        assert cli._command_parser(command)._option_string_actions[option] is cli._group(group)._option_string_actions[option]


def test_every_command_parser_holds_the_one_shared_help_action():
    # -h is a row of the common group, adopted by every command parser on
    # either parse path; only the program parser builds its own
    shared = cli._group("common")._option_string_actions["-h"]
    assert shared is cli._group("common")._option_string_actions["--help"]
    program = build_parser()
    subparsers = program._subparsers._group_actions[0].choices
    assert list(subparsers) == list(COMMANDS)
    for command in COMMANDS:
        for parser in (cli._command_parser(command), subparsers[command]):
            assert parser._option_string_actions["-h"] is shared
            assert parser._option_string_actions["--help"] is shared
            assert [action for action in parser._actions if action.dest == "help"] == [shared]
    assert program._option_string_actions["-h"] is not shared


def _fields(action):
    # every field parsing reads; ``action.container`` is left out: argparse
    # reassigns it whenever a parser adopts the action, and reads it only
    # under conflict_handler="resolve", which no parser here uses
    return tuple(getattr(action, field) for field in (
        "option_strings", "dest", "default", "type", "choices", "required", "help", "nargs", "metavar",
    ))


@settings(max_examples=200, deadline=None)
@given(st.one_of(clean_argv(), any_argv()))
def test_parsing_through_main_leaves_the_shared_groups_as_built(drawn):
    # valid lines, errors and help, each run at a --budget small enough
    # that no walk runs long, relative cache directories landing in a
    # temporary working directory; afterwards every shared action still
    # equals a freshly built one
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d, mock.patch.dict(os.environ, {"GG_CACHE_DIR": d}):
        os.chdir(d)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(drawn[0] + ["--budget", "1000"])
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4)
    for name in cli._GROUPS:
        fresh = cli._group.__wrapped__(name)._actions
        assert [_fields(action) for action in cli._group(name)._actions] == [_fields(action) for action in fresh]


def test_command_parsers_built_in_turn_share_no_defaults():
    groups = [cli._group(name)._defaults for name in cli._GROUPS]
    for command in COMMANDS:
        first, second = cli._command_parser(command), cli._command_parser(command)
        assert first._defaults is not second._defaults
        assert all(first._defaults is not group for group in groups)
        first.set_defaults(func=None, extra=1)
        assert second._defaults == {"func": HANDLERS[command]}
    assert groups == [{}, {}, {}]


def test_a_parser_reads_the_terminal_width_once(monkeypatch, capsys):
    # argparse builds a formatter for every add_argument; without the
    # parser's own width each of them asks the terminal again
    reads = []
    size = shutil.get_terminal_size

    def counting(*args, **kwargs):
        reads.append(args)
        return size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    assert main(["census", "--help"]) == 0
    assert len(reads) == 1
    reads.clear()
    build_parser()
    # the program parser's own -h, and each command that adds rows of its
    # own; census and audit add none, and the shared -h reads no width
    assert len(reads) == 1 + len([row for row in cli._COMMANDS if row[3]]) == 5


def test_help_takes_the_width_each_parser_reads(monkeypatch, capsys):
    # the width is read per parser, not kept for the process, and the
    # shared -h prints the help of the parser that parses: one process
    # prints the program's and each command's help at each width as a
    # fresh interpreter does
    src = Path(gonalgeo.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for argv in (["--help"], *([command, "--help"] for command in COMMANDS)):
        texts = []
        for columns in ("60", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            assert main(argv) == 0
            texts.append(capsys.readouterr().out)
            fresh = subprocess.run(
                [sys.executable, "-m", "gonalgeo", *argv],
                env=env | {"COLUMNS": columns}, capture_output=True, text=True, check=True,
            )
            assert fresh.stdout == texts[-1], (argv, columns)
        assert texts[0] != texts[1], argv
