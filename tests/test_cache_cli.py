import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from copy import deepcopy
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gonalgeo
import gonalgeo.cache
import gonalgeo.cli
import gonalgeo.reference
from gonalgeo.cache import (
    DEFAULT_CACHE_DIR,
    ENV_CACHE_DIR,
    _temporary,
    census_file,
    census_path,
    census_payload,
    json_text,
    load_or_compute,
    read_census,
    resolve_cache_dir,
    write_census,
)
from gonalgeo.cli import DEFAULT_ENUM_BUDGET, _guard_budget, _parse_fraction, main
from gonalgeo.covers import MAX_DEGREE, algebra_price, block_states, oracle_products
from gonalgeo.degeneration import full_census
from gonalgeo.digits import int_digit_limit
from gonalgeo.errors import CapacityError, InvariantViolation, ParameterError
from gonalgeo.version import TOOL_VERSION

from conftest import ENVELOPE, skew_double_transposition_step


def test_resolve_cache_dir_precedence(monkeypatch, tmp_path):
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    assert str(resolve_cache_dir(None)) == DEFAULT_CACHE_DIR
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "fromenv"))
    assert resolve_cache_dir(None) == tmp_path / "fromenv"
    assert resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"


def test_payload_schema(census_store):
    payload = census_payload(census_store(3, 4)[1])
    assert list(payload) == [
        "k", "b", "N", "N_tilde", "N1", "N22", "N3", "M_table", "e", "N_sing",
        "tool_version",
    ]
    assert payload["k"] == 3 and payload["b"] == 4
    # every count is a decimal string, for arbitrary-precision readers
    assert payload["N"] == "24" and payload["N_tilde"] == "4"
    assert payload["N1"] == "1" and payload["N22"] == "0" and payload["N3"] == "3"
    assert payload["M_table"] == [{"j": 1, "i": 0, "count": "1"}]
    assert payload["e"] == "1" and payload["N_sing"] == "0"


# JSON values whose strings carry quotes, backslashes, control and
# non-ASCII characters, with negative and long ints, and floats finite
# or not, -0.0 among them
_JSON_STRINGS = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800'), st.characters()))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**400), 10**400)
    | st.floats() | st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0]) | _JSON_STRINGS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_JSON_STRINGS, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_json_text_is_json_dumps_with_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_refuses_an_int_past_the_digit_limit():
    limit = int_digit_limit()
    if not limit:
        pytest.skip("this interpreter converts ints of any length")
    doc = {"counts": [1, 10**limit]}
    with pytest.raises(ValueError):
        json.dumps(doc, indent=2)
    with pytest.raises(ValueError):
        json_text(doc)
    assert json_text({"counts": [1, 10**limit - 1]}) == json.dumps({"counts": [1, 10**limit - 1]}, indent=2)


def test_a_cold_census_prints_the_document_it_writes(tmp_path, capsys):
    # one payload and one encoding serve the cache file and the report
    assert main(["census", "--k", "4", "--b", "10", "--output", "json", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out == census_path(tmp_path, 4, 10).read_text()
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    # a warm census prints the same, from the document it reads
    assert main(["census", "--k", "4", "--b", "10", "--output", "json", "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == out


def test_round_trip(tmp_path, census_store):
    cen = census_store(4, 6)[1]
    path = write_census(tmp_path, cen)
    assert path == census_path(tmp_path, 4, 6)
    cen2 = read_census(tmp_path, 4, 6)
    assert cen2 == cen
    # rewriting is byte-identical
    before = path.read_bytes()
    write_census(tmp_path, cen2)
    assert path.read_bytes() == before


def test_read_census_failure_modes(tmp_path, census_store):
    with pytest.raises(ParameterError, match="no census document at"):
        read_census(tmp_path, 3, 4)

    path = write_census(tmp_path, census_store(3, 4)[1])
    good = path.read_text()
    doc = json.loads(good)
    # the (3, 4) document under the name of (3, 6) is not the census of (3, 6)
    (tmp_path / "census_k3_b6.json").write_text(good)
    with pytest.raises(InvariantViolation, match=r"does not hold the census of \(3, 6\)"):
        read_census(tmp_path, 3, 6)

    # anything but the document's own bytes fails the one test: text that
    # is no JSON, a key dropped, tampered counts, the same JSON without its
    # indent, another tool version, a missing final newline
    stripped = {key: value for key, value in doc.items() if key != "N1"}
    for text in (
        "{ not json",
        json.dumps(stripped),
        json.dumps(doc | {"N1": "2", "N3": "2"}, indent=2) + "\n",
        json.dumps(doc),
        json.dumps(doc | {"tool_version": "0.0.0"}, indent=2) + "\n",
        good[:-1],
    ):
        path.write_text(text)
        with pytest.raises(InvariantViolation, match=f"census document {re.escape(str(path))} does not hold"):
            read_census(tmp_path, 3, 4)
    path.write_text(good)
    assert read_census(tmp_path, 3, 4) == census_store(3, 4)[1]

    # a directory where the document should be cannot be read
    census_path(tmp_path, 4, 6).mkdir()
    with pytest.raises(ParameterError, match="cannot read census document"):
        read_census(tmp_path, 4, 6)


def test_load_or_compute_uses_the_cache(tmp_path, monkeypatch):
    # the census is computed every time; the cache holds its export, which
    # is written only when the file does not hold those bytes already, and
    # written over, and named, when it holds others
    cen = load_or_compute(tmp_path, 3, 4)
    assert cen.raw_count == 24
    path = census_path(tmp_path, 3, 4)
    good, before = path.read_bytes(), path.stat()
    import gonalgeo.cache as cache_mod

    def refuse(*args, **kwargs):
        raise AssertionError("an unchanged document was written again")

    monkeypatch.setattr(cache_mod, "write_census", refuse)
    assert load_or_compute(tmp_path, 3, 4) == cen
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    monkeypatch.undo()
    path.write_text("{}")
    with pytest.raises(InvariantViolation, match=rf"{re.escape(str(path))} did not hold the census of \(3, 4\)"):
        load_or_compute(tmp_path, 3, 4)
    assert path.read_bytes() == good
    assert load_or_compute(tmp_path, 3, 4) == cen


def test_write_census_leaves_no_partial_file(tmp_path, monkeypatch, census_store):
    import gonalgeo.cache as cache_mod

    def refuse(src, dst):
        raise OSError("rename refused")

    cen = census_store(3, 4)[1]
    monkeypatch.setattr(cache_mod.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_census(tmp_path, cen)
    assert list(tmp_path.iterdir()) == []

    monkeypatch.undo()
    path = write_census(tmp_path, cen)
    before = path.read_bytes()
    monkeypatch.setattr(cache_mod.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_census(tmp_path, cen)
    # the document already in place survives a failed rewrite untouched
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_census_json_and_cache(tmp_path, capsys):
    d = str(tmp_path / "cache")
    code, out, err = run_cli(
        capsys, "census", "--k", "3", "--b", "4", "--cache-dir", d, "--output", "json"
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["N_tilde"] == "4"
    path = census_path(d, 3, 4)
    # stdout and the cache document are the same bytes
    assert out == path.read_text()
    before = path.read_bytes()
    code, out2, _err = run_cli(
        capsys, "census", "--k", "3", "--b", "4", "--cache-dir", d, "--output", "json"
    )
    assert code == 0
    assert out2 == out
    assert path.read_bytes() == before


def test_cli_census_accepts_genus_selector(tmp_path, capsys):
    d = str(tmp_path)
    code, out, _err = run_cli(
        capsys, "census", "--k", "3", "--g", "0", "--cache-dir", d, "--output", "json"
    )
    assert code == 0
    assert json.loads(out)["b"] == 4
    code, _out, err = run_cli(
        capsys, "census", "--k", "3", "--g", "1", "--b", "4", "--cache-dir", d
    )
    assert code == 4
    assert "disagree" in err


def test_cli_census_table_and_csv(tmp_path, capsys):
    d = str(tmp_path)
    code, out, _err = run_cli(capsys, "census", "--k", "4", "--b", "6", "--cache-dir", d)
    assert code == 0
    assert "N_tilde" in out
    assert "j=1 i=0 count=12" in out
    assert "note: split cells list the smaller-degree component" in out

    code, out, _err = run_cli(
        capsys, "census", "--k", "4", "--b", "6", "--cache-dir", d, "--output", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert ["N_tilde", "120"] in rows
    assert ["M_table", "1", "0", "12"] in rows
    assert ["M_table", "2", "0", "3"] in rows


def test_cli_oracle_check(tmp_path, capsys):
    code, out, _err = run_cli(
        capsys, "oracle-check", "--k", "3", "--b", "6",
        "--cache-dir", str(tmp_path), "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["oracle_raw"] == doc["enumeration_raw"] == "240"

    # the oracle for (4, 10) forms 399 term products and the walk takes 112
    # block-state visits; --oracle-only prices the oracle alone
    code, out, err = run_cli(
        capsys, "oracle-check", "--k", "4", "--b", "10", "--oracle-only",
        "--budget", "398", "--cache-dir", str(tmp_path), "--output", "json",
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: the character oracle for (4, 10) forms more term products "
        "than the budget 398; raise --budget to force\n"
    )
    code, out, _err = run_cli(
        capsys, "oracle-check", "--k", "4", "--b", "10", "--oracle-only",
        "--budget", "399", "--cache-dir", str(tmp_path), "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_raw"] == "4959360"
    assert "enumeration_raw" not in doc


def test_oracle_check_reads_the_census_walk(tmp_path, capsys, monkeypatch):
    # a step from the double transposition to a transposition taken 3
    # ways instead of 2 skews the walk, and oracle-check must see it: it
    # compares the walk's tally with the census field by field, and the
    # central tally is the first to move at (4, 8)
    skew_double_transposition_step(monkeypatch)
    code, out, err = run_cli(capsys, "oracle-check", "--k", "4", "--b", "8", "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == (
        "invariant violation: the walk and the class-algebra census disagree "
        "on the central tally at (4, 8)\n"
    )
    # the census takes no walk step, so it writes the unskewed document
    code, skewed, _err = run_cli(capsys, "census", "--k", "4", "--b", "8", "--cache-dir", str(tmp_path), "--output", "json")
    assert code == 0
    monkeypatch.undo()
    code, lone, _err = run_cli(capsys, "census", "--k", "4", "--b", "8", "--cache-dir", str(tmp_path / "lone"), "--output", "json")
    assert code == 0
    assert skewed == lone == census_path(tmp_path, 4, 8).read_text()


def test_a_state_no_pair_completes_is_an_invariant_violation(tmp_path, capsys, monkeypatch):
    # with every need reported as 0 the walk keeps states the last two
    # entries cannot complete; the first it meets is a 3-cycle on one of
    # two blocks.  Only oracle-check walks
    steps = gonalgeo.reference._block_steps
    monkeypatch.setattr(
        gonalgeo.reference, "_block_steps", lambda state: tuple((s, n, 0) for s, n, _ in steps(state))
    )
    code, out, err = run_cli(capsys, "oracle-check", "--k", "5", "--b", "10", "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == "invariant violation: the walk kept ((1, 1), (3,)) two entries from the end: no pair completes it\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_budget_guard(tmp_path, capsys):
    # the class-algebra census of (4, 10) is priced at 601 term products:
    # the 399 of the connected tables, 62 for the T3 tables' peels, and 140
    # for its 4 cells
    assert algebra_price(4, 10, census=True) == 601
    code, _out, err = run_cli(
        capsys, "census", "--k", "4", "--b", "10", "--budget", "600",
        "--cache-dir", str(tmp_path),
    )
    assert code == 3
    assert "the class-algebra census for (4, 10) forms more term products" in err
    assert "budget 600" in err
    assert "oracle-check --oracle-only" in err
    assert not census_path(tmp_path, 4, 10).exists()
    assert run_cli(
        capsys, "census", "--k", "4", "--b", "10", "--budget", "601",
        "--cache-dir", str(tmp_path),
    )[0] == 0
    # enumerating oracle-check prices its walk, once its oracle, at 399 term
    # products, fits: the walk for (4, 32) is priced at S(4) = 14 block
    # states in each of 30 layers
    code, _out, err = run_cli(
        capsys, "oracle-check", "--k", "4", "--b", "32", "--budget", "419",
        "--cache-dir", str(tmp_path),
    )
    assert code == 3
    assert "the block-state walk for (4, 32), which oracle-check compares with the census" in err


# each is priced within the default budget and finishes in seconds
@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--k", "4", "--b", "12"),
        ("census", "--k", "3", "--b", "18"),
        ("census", "--k", "13", "--b", "24"),
        ("delta", "19", "11", "1/10"),
        ("oracle-check", "--k", "9", "--b", "16"),
    ],
    ids=["4-12", "3-18", "13-24", "delta-19", "oracle-9-16"],
)
def test_cli_budget_guard_accepts_a_cheap_walk(tmp_path, capsys, argv):
    assert run_cli(capsys, *argv, "--cache-dir", str(tmp_path))[0] == 0


WALK_REFUSED = "takes more block-state visits than the budget"
CENSUS_REFUSED = "forms more term products than the budget"
CAPACITY_REFUSED = f"is past {MAX_DEGREE}, the largest degree any engine is priced at"


def _never(what):
    def called(*args):
        raise AssertionError(f"{what}{args} ran after the command should have been refused")
    return called


# oracle-check prices the oracle, the walk and the census before it counts
# any of them: the oracle for (60, 120) alone takes about a minute
@pytest.mark.parametrize(
    "argv, refused",
    [
        (("--k", "60", "--b", "120", "--budget", str(10**11)),
         f"the block-state walk for (60, 120), which oracle-check compares with the census, "
         f"takes more block-state visits than the budget {10**11}; raise --budget to force, "
         "or use --oracle-only to skip it"),
        (("--k", "4", "--b", "32", "--budget", "419"),
         "the block-state walk for (4, 32), which oracle-check compares with the census, "
         "takes more block-state visits than the budget 419; raise --budget to force, "
         "or use --oracle-only to skip it"),
        (("--k", "4", "--b", "10", "--budget", "600"),
         "the class-algebra census for (4, 10) forms more term products than the budget 600; "
         "raise --budget to force, or use 'oracle-check --oracle-only' for the count alone"),
    ],
    ids=["walk-60-120", "walk-4-32", "census-4-10"],
)
def test_oracle_check_prices_every_engine_before_it_counts(tmp_path, capsys, monkeypatch, argv, refused):
    monkeypatch.setattr(gonalgeo.cli, "class_count_via_oracle", _never("class_count_via_oracle"))
    monkeypatch.setattr(gonalgeo.cli, "full_census", _never("full_census"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle-check", *argv, "--cache-dir", str(tmp_path))
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (3, "", f"error: {refused}\n")


# a family's base data and the band's epsilon and window are checked
# before the census is priced or computed
@pytest.mark.parametrize(
    "argv, message",
    [
        (("invariants", "--k", "4", "--b", "10", "--c", "-1", "--base-genus", "0"), "branch divisor degree must be nonnegative, got -1"),
        (("invariants", "--k", "4", "--b", "10", "--c", "1", "--base-genus", "-1"), "base genus must be nonnegative, got -1"),
        (("audit", "--k", "4", "--b", "10", "--c", "-1", "--base-genus", "0"), "branch divisor degree must be nonnegative, got -1"),
        (("audit", "--k", "4", "--b", "10", "--c", "1", "--base-genus", "-1"), "base genus must be nonnegative, got -1"),
        (("delta", "2", "4", "0"), "epsilon must be positive, got 0"),
        (("delta", "2", "4", "1/10", "--window", "-1"), "window must be nonnegative, got -1"),
    ],
    ids=["invariants-c", "invariants-base-genus", "audit-c", "audit-base-genus", "delta-epsilon", "delta-window"],
)
def test_bad_family_or_band_arguments_are_refused_before_the_census(tmp_path, capsys, monkeypatch, argv, message):
    gonalgeo.cli._census_of.cache_clear()
    monkeypatch.setattr(gonalgeo.cli, "full_census", _never("full_census"))
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert (code, out, err) == (4, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


# where two refusals apply, the one the admission step reaches first wins:
# bad arguments before a budget, capacity or digit refusal, and in
# oracle-check every engine's price before the oracle count is printed,
# which at the default digit limit of 4300 is too long at (3, 10000) and (4, 5600)
G_PAST_DIGITS = str(10**6)
EPSILON_REFUSED = "error: epsilon must be positive, got 0\n"
C_REFUSED = "error: branch divisor degree must be nonnegative, got -1\n"
BASE_GENUS_REFUSED = "error: base genus must be nonnegative, got -1\n"
WINDOW_REFUSED = "error: window must be nonnegative, got -1\n"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (("invariants", "--k", "4", "--b", "10", "--c", "-1", "--base-genus", "0", "--budget", "1"), 4, C_REFUSED),
        (("audit", "--k", "4", "--b", "10", "--c", "1", "--base-genus", "-1", "--budget", "1"), 4, BASE_GENUS_REFUSED),
        (("invariants", "--k", "61", "--g", "0", "--c", "1", "--base-genus", "-1"), 4, BASE_GENUS_REFUSED),
        (("audit", "--k", "61", "--g", "0", "--c", "-1", "--base-genus", "0"), 4, C_REFUSED),
        (("invariants", "--k", "3", "--g", G_PAST_DIGITS, "--c", "1", "--base-genus", "-1", "--budget", str(10**8)), 4, BASE_GENUS_REFUSED),
        (("audit", "--k", "3", "--g", G_PAST_DIGITS, "--c", "-1", "--base-genus", "0", "--budget", str(10**8)), 4, C_REFUSED),
        (("delta", "1", "4", "0", "--budget", "1"), 4, EPSILON_REFUSED),
        (("delta", "1", "4", "1/10", "--window", "-1", "--budget", "1"), 4, WINDOW_REFUSED),
        (("delta", "0", "61", "0"), 4, EPSILON_REFUSED),
        (("delta", "0", "61", "1/10", "--window", "-1"), 4, WINDOW_REFUSED),
        (("delta", G_PAST_DIGITS, "3", "0", "--budget", str(10**8)), 4, EPSILON_REFUSED),
        (("delta", G_PAST_DIGITS, "3", "1/10", "--window", "-1", "--budget", str(10**8)), 4, WINDOW_REFUSED),
        (("oracle-check", "--k", "3", "--b", "10000", "--budget", "10000"), 3,
         "error: the block-state walk for (3, 10000), which oracle-check compares with the census, "
         "takes more block-state visits than the budget 10000; raise --budget to force, or use --oracle-only to skip it\n"),
        (("oracle-check", "--k", "4", "--b", "5600", "--budget", "100000"), 3,
         "error: the class-algebra census for (4, 5600) forms more term products than the budget 100000; "
         "raise --budget to force, or use 'oracle-check --oracle-only' for the count alone\n"),
    ],
    ids=[
        "invariants-c-over-budget", "audit-base-genus-over-budget",
        "invariants-base-genus-past-degree-60", "audit-c-past-degree-60",
        "invariants-base-genus-past-digits", "audit-c-past-digits",
        "delta-epsilon-over-budget", "delta-window-over-budget",
        "delta-epsilon-past-degree-60", "delta-window-past-degree-60",
        "delta-epsilon-past-digits", "delta-window-past-digits",
        "oracle-walk-over-digits", "oracle-census-over-digits",
    ],
)
def test_the_first_refusal_of_the_admission_step_wins(tmp_path, capsys, argv, code, err):
    assert run_cli(capsys, *argv, "--cache-dir", str(tmp_path)) == (code, "", err)
    assert list(tmp_path.iterdir()) == []


# the walk's price, S(k) (b - 2), passes the default budget of 10^6 at (15,
# 82), (16, 90) and at degree 2 of genus 10^30, where the class algebra is
# cheap; a census at degree 3 of genus 10^30 is priced past any budget the
# walk was, and a degree of a million is past the cap at any budget
@pytest.mark.parametrize(
    "argv, refused",
    [
        (("oracle-check", "--k", "15", "--b", "82"), WALK_REFUSED),
        (("oracle-check", "--k", "16", "--b", "90"), WALK_REFUSED),
        (("oracle-check", "--k", "2", "--g", str(10**30)), WALK_REFUSED),
        (("census", "--k", "3", "--g", str(10**30)), CENSUS_REFUSED),
        (("census", "--k", "1000000", "--g", "0"), CAPACITY_REFUSED),
        (("census", "--k", "1000000", "--g", "0", "--budget", str(10**90)), CAPACITY_REFUSED),
        (("delta", str(10**30), "3", "1/10"), CENSUS_REFUSED),
    ],
    ids=["15-82", "16-90", "k2-huge-g", "k3-huge-g", "k-million", "k-million-budget", "delta-huge-g"],
)
def test_cli_budget_guard_refuses_at_once(tmp_path, capsys, argv, refused):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert refused in err
    assert list(tmp_path.iterdir()) == []


# each once ran for seconds, (800000, 1599998) for over 10 s in the guard
# itself: a huge degree is past the cap at any budget, and an oracle count
# at a large b is priced by its powers
@pytest.mark.parametrize(
    "argv, unlimited, refused",
    [
        (("census", "--k", "1000000", "--g", "0", "--budget", str(10**1000)), False, CAPACITY_REFUSED),
        (("census", "--k", "800000", "--g", "0", "--budget", str(10**1000)), False, CAPACITY_REFUSED),
        (("oracle-check", "--k", "3000", "--g", "0", "--oracle-only", "--budget", str(10**60)), False, CAPACITY_REFUSED),
        (("oracle-check", "--k", "12", "--b", "200000", "--oracle-only", "--output", "json"), True, CENSUS_REFUSED),
        (("census", "--k", str(10**30), "--g", "0", "--budget", str(10**1000)), False, CAPACITY_REFUSED),
        (("census", "--k", str(10**30), "--g", "0"), False, CAPACITY_REFUSED),
        (("oracle-check", "--k", str(10**30), "--g", "0"), False, CAPACITY_REFUSED),
    ],
    ids=["census-k-million", "census-k-800000", "oracle-k-3000", "oracle-b-200000", "census-k-huge", "census-k-huge-default", "oracle-k-huge"],
)
def test_a_huge_shape_is_refused_within_a_second(tmp_path, capsys, monkeypatch, argv, unlimited, refused):
    if unlimited:  # as with PYTHONINTMAXSTRDIGITS=0, where the digit bound refuses nothing
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert refused in err
    assert list(tmp_path.iterdir()) == []


def test_budget_guard_lower_bound_never_passes_the_exact_price():
    # priced over one layer, a budget of exactly S(n) must not be refused,
    # nor one of exactly the census's price at genus 0 and at genus 20;
    # past the cap every engine is refused at any budget
    for n in range(1, MAX_DEGREE + 1):
        _guard_budget(n, 3, block_states(n), "walk")
        for b in (2 * n - 2 or 2, 2 * n + 38):
            _guard_budget(n, b, algebra_price(n, b, census=True))
    n = MAX_DEGREE + 1
    for engine, b in (("walk", 3), ("census", 2 * n - 2), ("census", 2 * n + 38)):
        with pytest.raises(CapacityError, match=CAPACITY_REFUSED):
            _guard_budget(n, b, 10**1000, engine)


def test_budget_guard_lower_bound_never_passes_the_exact_oracle_price():
    # a budget of exactly the oracle's price must not be refused, at a
    # short tuple or a long one; past the cap it is refused at any budget
    for n in range(1, MAX_DEGREE + 1):
        for b in (2 * n, 10**9):
            _guard_budget(n, b, algebra_price(n, b), "oracle")
    for b in (2 * MAX_DEGREE + 2, 10**9):
        with pytest.raises(CapacityError, match=CAPACITY_REFUSED):
            _guard_budget(MAX_DEGREE + 1, b, 10**1000, "oracle")


def test_the_default_budget_accepts_every_oracle_query_of_the_geography_workload():
    # the geography workload asks the oracle alone at k = 2 ... 12 with b
    # up to 2k + 2; the tables' products depend on k alone and peak at
    # 15 491, and powers of at most 26 * 6 bits add 6 more
    for k in range(2, 13):
        for b in range(2 * k - 2, 2 * k + 3, 2):
            _guard_budget(k, b, DEFAULT_ENUM_BUDGET, "oracle")
    assert oracle_products(12) == 15491
    assert algebra_price(12, 26) == 15497


def test_cli_budget_guard_refuses_a_huge_degree_before_the_exact_price(tmp_path, capsys):
    # a degree of a million is past the cap, at any budget, before any price
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "census", "--k", "1000000", "--g", "0", "--budget", str(10**300),
        "--cache-dir", str(tmp_path),
    )
    assert time.perf_counter() - start < 0.3
    assert code == 3
    assert out == ""
    assert err == (
        f"error: degree 1000000 is past {MAX_DEGREE}, the largest degree any engine is priced at: "
        f"the class-algebra tables of degree {MAX_DEGREE} alone form 263341585 term products\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_cli_census_file_name_too_long_to_look_up_is_a_capacity_error(tmp_path, capsys):
    # C(2, 2)^g = 1, so the digit bound passes a degree-2 census of any
    # genus, and the budget passes its walk; b has 401 digits
    b = 2 * 10**400 + 2
    code, out, err = run_cli(
        capsys, "census", "--k", "2", "--g", str(10**400), "--budget", str(10**500),
        "--cache-dir", str(tmp_path),
    )
    assert code == 3
    assert out == ""
    assert err == f"error: the census cache file name for (2, {b}) is too long for the file system\n"
    assert list(tmp_path.iterdir()) == []


# only census writes a document, so only census checks its file name;
# invariants and audit at the same shape answer without the cache
# directory (test_a_query_needs_no_census_file_name)
@pytest.mark.parametrize("made, argv", [
    (True, ("census",)),
    (True, ("census", "--output", "json")),
    (False, ("census",)),
    (False, ("census", "--budget", str(10**500))),
])
def test_a_census_file_name_too_long_is_refused_before_any_walk(tmp_path, capsys, made, argv):
    # a cache directory not made yet is judged by its nearest existing
    # ancestor, is not made, and the census is refused before it is priced
    d = tmp_path / "D"
    if made:
        d.mkdir()
    command, *extra = argv
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, command, "--k", "2", "--g", str(10**400), *extra, "--cache-dir", str(d)
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == (
        f"error: the census cache file name for (2, {2 * 10**400 + 2}) is too long for the file system\n"
    )
    assert list(tmp_path.iterdir()) == ([d] if made else [])
    assert not made or list(d.iterdir()) == []


@pytest.mark.parametrize("made", [True, False])
@pytest.mark.parametrize("command", ["invariants", "audit"])
def test_a_query_needs_no_census_file_name(tmp_path, capsys, made, command):
    # b = 2 * 10^400 + 2 makes a file name too long for the file system, but
    # a query computes its census, a degree-2 one in a few steps, and leaves
    # the cache directory alone
    d = tmp_path / "D"
    if made:
        d.mkdir()
    argv = (command, "--k", "2", "--g", str(10**400), "--c", "8", "--base-genus", "2")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(d), "--output", "json")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert json.loads(out)["b"] == 2 * 10**400 + 2
    assert list(tmp_path.iterdir()) == ([d] if made else [])
    assert not made or list(d.iterdir()) == []


@pytest.mark.parametrize("made", [True, False])
def test_census_file_refuses_exactly_what_the_file_system_would(tmp_path, made):
    d = tmp_path / "D" if made else tmp_path / "D" / "E"
    if made:
        d.mkdir()
    # the temporary name adds a dot, the pid, 8 hex digits, two more dots
    # and ".tmp" to "census_k3_b<digits>.json"
    digits = os.pathconf(tmp_path, "PC_NAME_MAX") - 31 - len(str(os.getpid()))
    longest = int("2" * digits)
    path = census_file(d, 3, longest)
    assert path == census_path(d, 3, longest)
    assert d.exists() is made
    d.mkdir(parents=True, exist_ok=True)
    (d / _temporary(path.name)).touch()  # the file system takes the name, and refuses one digit more
    with pytest.raises(OSError) as refused:
        (d / _temporary(census_path(d, 3, longest * 10 + 2).name)).touch()
    assert refused.value.errno == errno.ENAMETOOLONG
    with pytest.raises(CapacityError, match=f"for \\(3, 2{{{digits + 1}}}\\) is too long"):
        census_file(d, 3, longest * 10 + 2)


# each is priced inside its budget (the class-algebra census of genus
# 10^400 at 10^598 term products), but Conn(3, b) >= 3^g has about
# 477000 digits, or a genus past the range of a float; a census too long to
# print is never cached, so the existing cache directory is not searched,
# where a file name for b past 250 digits would be too long to look up.  A
# genus at the digit limit parses, but b = 2g + 2k - 2 has one digit more
NINES = "9" * (int_digit_limit() or 4300)
B_TOO_LONG = "the branch count b is at least 10^"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("census", "--k", "3", "--g", str(10**6), "--budget", str(10**8)),
         "the tuple count N for (3, 2000004) is at least 10^477121"),
        (("delta", str(10**400), "3", "1/10", "--budget", str(10**700)),
         f"the tuple count N for (3, {2 * 10**400 + 4}) is at least 10^"),
        (("oracle-check", "--k", "3", "--g", str(10**400), "--oracle-only"),
         f"the oracle count for (3, {2 * 10**400 + 4}) is at least 10^"),
        (("census", "--k", "3", "--g", NINES), B_TOO_LONG),
        (("delta", NINES, "3", "1/10"), B_TOO_LONG),
        (("oracle-check", "--k", "3", "--g", NINES, "--oracle-only"), B_TOO_LONG),
    ],
    ids=["census", "delta-huge-g", "oracle-huge-g", "census-g-at-limit", "delta-g-at-limit", "oracle-g-at-limit"],
)
def test_cli_refuses_from_the_digit_bound_before_counting(tmp_path, capsys, argv, message):
    if not int_digit_limit():
        pytest.skip("this interpreter prints integers of any length")
    d = tmp_path / "cache"
    d.mkdir()
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(d))
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert message in err
    assert f"more than the {int_digit_limit()} digits this interpreter prints" in err
    assert list(d.iterdir()) == []


def test_cli_argument_errors_at_the_digit_limit(tmp_path, capsys):
    for argv, message in (
        (("census", "--k", "3", "--b", "4", "--g", NINES), "disagree: b must be 2g + 2k - 2 = "),
        (("census", "--k", NINES, "--b", "4"), "branch count 4 below 2k - 2 = "),
    ):
        code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and message in err
    assert list(tmp_path.iterdir()) == []


def test_cli_census_too_long_to_print(tmp_path, capsys):
    # priced at 966 term products, but N for (3, 10000) has 4771 digits
    d = tmp_path / "cache"
    code, out, err = run_cli(
        capsys, "census", "--k", "3", "--b", "10000", "--cache-dir", str(d), "--output", "json",
    )
    if int_digit_limit() and int_digit_limit() < 4771:
        assert code == 3
        assert out == ""
        assert "the tuple count N for (3, 10000) is at least 10^4770" in err
        assert not d.exists() or list(d.iterdir()) == []
    else:
        assert code == 0
        assert len(json.loads(out)["N"]) == 4771
        assert census_path(d, 3, 10000).exists()


def test_cli_oracle_only_refuses_from_a_lower_bound_past_the_digit_limit(tmp_path, capsys):
    limit = int_digit_limit()
    if not limit:
        pytest.skip("this interpreter prints integers of any length")
    # Conn(3, 2g + 4) >= 3^g, here hundreds of times the limit's digits
    b = 2 * 1000 * limit + 4
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "oracle-check", "--k", "3", "--b", str(b), "--oracle-only",
        "--cache-dir", str(tmp_path),
    )
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert f"the oracle count for (3, {b}) is at least 10^" in err
    assert f"more than the {limit} digits this interpreter prints" in err


def test_cli_oracle_count_too_long_to_print(tmp_path, capsys):
    # the connected count for (3, 10000) has 4771 digits
    code, out, err = run_cli(
        capsys, "oracle-check", "--k", "3", "--b", "10000", "--oracle-only",
        "--cache-dir", str(tmp_path), "--output", "json",
    )
    if int_digit_limit() and int_digit_limit() < 4771:
        assert code == 3
        assert out == ""
        assert "oracle count for (3, 10000) is at least 10^4770" in err
    else:
        assert code == 0
        assert len(json.loads(out)["oracle_raw"]) == 4771


def test_cli_cached_count_too_long_to_read(tmp_path, capsys):
    # no command reads the document, so a count past the digit limit in it
    # changes no report, and census writes its own document over it and
    # names it
    d = str(tmp_path)
    argv = ("invariants", "--k", "3", "--b", "4", "--c", "8", "--base-genus", "2", "--cache-dir", d)
    assert run_cli(capsys, "census", "--k", "3", "--b", "4", "--cache-dir", d)[0] == 0
    path = census_path(d, 3, 4)
    good = path.read_bytes()
    fresh = run_cli(capsys, *argv)
    long_count = "1" + "0" * max(int_digit_limit(), 4300)
    path.write_text(json.dumps(json.loads(good) | {"N": long_count}))
    assert run_cli(capsys, *argv) == fresh
    assert fresh[0] == 0
    assert_census_replaces(capsys, tmp_path, path.read_bytes(), good)


def test_cli_epsilon_past_float_range_has_no_approximation(tmp_path, capsys):
    code, out, _err = run_cli(
        capsys, "delta", "0", "3", "1e400", "--cache-dir", str(tmp_path), "--output", "json",
    )
    assert code == 0
    epsilon = json.loads(out)["certificate"]["epsilon"]
    assert epsilon == {"numerator": "1" + "0" * 400, "denominator": "1", "approx": None}


# an argument at the digit limit parses, but what the command derives from
# it runs past the limit: the parameter genus for a large branch degree,
# the very-ampleness floor and then the invariants for a large base genus,
# and the base genus at d_min (about 72 / epsilon) for a tiny epsilon; an
# epsilon ten times smaller puts d_min past --d-max, and the trailing
# trajectory prints its degrees as offsets from d_max and its ratios as floats
TOO_LONG = "digits this interpreter prints"


@pytest.mark.parametrize(
    "argv, message, unlimited_code",
    [
        (("invariants", "--k", "3", "--b", "4", "--c", "{nines}", "--base-genus", "0"), TOO_LONG, 0),
        (("invariants", "--k", "3", "--b", "4", "--c", "8", "--base-genus", "{nines}"), TOO_LONG, 0),
        (("delta", "2", "2", "1/1{zeros}", "--d-max", "{nines}"), TOO_LONG, 0),
        (("delta", "2", "2", "1/1{zeros}0", "--d-max", "{nines}"), "d=d_max-7 ratio=~8.0", 3),
    ],
    ids=["branch-degree", "base-genus", "epsilon", "trajectory"],
)
def test_cli_values_too_long_to_print(tmp_path, capsys, argv, message, unlimited_code):
    d = str(tmp_path)
    assert run_cli(capsys, "census", "--k", "3", "--b", "4", "--cache-dir", d)[0] == 0
    digits = int_digit_limit() or 4300
    argv = [a.format(nines="9" * digits, zeros="0" * (digits - 2)) for a in argv]
    code, out, err = run_cli(capsys, *argv, "--cache-dir", d, "--output", "json")
    if int_digit_limit():
        assert code == 3
        assert out == ""
        assert message in err
        trajectory = [line for line in err.splitlines() if line.startswith("  d=")]
        assert len(set(trajectory)) == len(trajectory)
    else:
        assert code == unlimited_code


def test_cli_capacity_guard(tmp_path, capsys):
    # neither engine has a degree bound: at degree 13 the oracle answers
    # and the walk checks it, each priced within the default budget
    code, out, _err = run_cli(
        capsys, "oracle-check", "--k", "13", "--b", "24",
        "--cache-dir", str(tmp_path), "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["oracle_raw"] == doc["enumeration_raw"]


def test_cli_census_refusal_advice_works(tmp_path, capsys):
    # the census of (20, 112), priced at 371 175 term products, is refused
    # at a budget of 200 000 with advice to ask the oracle alone, which is
    # priced at 189 411 and answers
    budget = ("--budget", "200000")
    code, out, err = run_cli(capsys, "census", "--k", "20", "--b", "112", *budget, "--cache-dir", str(tmp_path))
    assert (code, out) == (3, "")
    assert "use 'oracle-check --oracle-only'" in err
    code, out, _err = run_cli(
        capsys, "oracle-check", "--k", "20", "--b", "112", "--oracle-only", *budget,
        "--cache-dir", str(tmp_path), "--output", "json",
    )
    assert code == 0
    assert "enumeration_raw" not in json.loads(out)
    assert list(tmp_path.iterdir()) == []


# the oracle's tables cost 189 179 term products at degree 20, 823 272 at
# degree 26 and 1 027 258 at degree 27, past the default budget; its powers
# cost little at these b; degree 10^6 is past the cap at any budget
@pytest.mark.parametrize(
    "k, b, code",
    [(20, 112, 0), (28, 64, 3), (60, 118, 3), (1000000, 1999998, 3)],
)
def test_cli_oracle_is_priced_by_its_products(tmp_path, capsys, k, b, code):
    start = time.perf_counter()
    got, out, err = run_cli(
        capsys, "oracle-check", "--k", str(k), "--b", str(b), "--oracle-only",
        "--cache-dir", str(tmp_path),
    )
    assert time.perf_counter() - start < 2
    assert got == code
    if code:
        assert out == ""
        if k > MAX_DEGREE:
            assert err.startswith(f"error: degree {k} {CAPACITY_REFUSED}")
        else:
            assert err == (
                f"error: the character oracle for ({k}, {b}) forms more term products "
                "than the budget 1000000; raise --budget to force\n"
            )


def test_cli_invariants_and_audit(tmp_path, capsys):
    d = str(tmp_path)
    assert run_cli(capsys, "census", "--k", "3", "--b", "4", "--cache-dir", d)[0] == 0
    code, out, _err = run_cli(
        capsys, "invariants", "--k", "3", "--b", "4", "--c", "8",
        "--base-genus", "2", "--cache-dir", d, "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["invariants"]["k2"]["numerator"] == "-224"
    assert doc["invariants"]["chi"] == {
        "numerator": "-28", "denominator": "1", "approx": -28.0,
    }
    assert doc["invariants"]["notes"] == ["slope omitted: denominator is zero"]
    assert doc["cautions"] and "very-ampleness" in doc["cautions"][0]
    assert doc["noether"] == "12*chi = k2 + euler verified exactly"
    assert "audit" not in doc

    code, out, _err = run_cli(
        capsys, "invariants", "--k", "3", "--b", "4", "--c", "8", "--base-genus", "2",
        "--cache-dir", d, "--output", "json", "--audit",
    )
    doc = json.loads(out)
    assert doc["audit"]["derived_kf2"]["numerator"] == "-224"

    code, out, _err = run_cli(
        capsys, "audit", "--k", "3", "--b", "4", "--c", "8", "--base-genus", "2",
        "--cache-dir", d, "--output", "json",
    )
    assert code == 0
    audit = json.loads(out)["audit"]
    assert audit["reference_kf2"]["numerator"] == "-480"
    assert audit["derived_kf2"]["numerator"] == "-224"
    assert audit["derived_matches_closed"] is True
    assert audit["reference_discrepancy"]["numerator"] == "-256"


@pytest.mark.parametrize("output", ["json", "table"])
def test_a_document_from_another_tool_version_reads_like_any_other(tmp_path, capsys, output):
    # no command reads a document, so the version that wrote one changes no
    # query's report; census writes its own version's document over it and
    # names it once, and then prints what it printed before
    d = str(tmp_path)
    argvs = (
        ("invariants", "--k", "4", "--b", "8", "--c", "32", "--base-genus", "2", "--audit"),
        ("census", "--k", "4", "--b", "8"),
    )
    assert run_cli(capsys, "census", "--k", "4", "--b", "8", "--cache-dir", d)[0] == 0
    before = [run_cli(capsys, *argv, "--cache-dir", d, "--output", output) for argv in argvs]
    path = census_path(d, 4, 8)
    doc = json.loads(path.read_text())
    doc["tool_version"] = "0.0.0"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert run_cli(capsys, *argvs[0], "--cache-dir", d, "--output", output) == before[0]
    code, out, err = run_cli(capsys, *argvs[1], "--cache-dir", d, "--output", output)
    assert (code, out) == (2, "")
    assert f"census document {path} did not hold the census of (4, 8)" in err
    assert json.loads(path.read_text())["tool_version"] == TOOL_VERSION
    after = [run_cli(capsys, *argv, "--cache-dir", d, "--output", output) for argv in argvs]
    assert after == before
    assert [code for code, _out, _err in after] == [0, 0]


def test_cli_invariants_needs_no_cached_census(tmp_path, capsys):
    # a query computes its census; the cache directory is not made
    code, out, err = run_cli(
        capsys, "invariants", "--k", "3", "--b", "4", "--c", "8",
        "--base-genus", "2", "--cache-dir", str(tmp_path / "empty"), "--output", "json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["invariants"]["k2"]["numerator"] == "-224"
    assert list(tmp_path.iterdir()) == []


def test_a_query_in_a_fresh_directory_answers_as_after_census(tmp_path, capsys):
    # for every envelope pair, invariants, audit and delta print the same
    # bytes in a fresh directory as after census has written the document
    from conftest import ENVELOPE

    for k, b in ENVELOPE:
        g = (b - 2 * k + 2) // 2
        family = ("--k", str(k), "--b", str(b), "--c", str(8 * b), "--base-genus", "2")
        argvs = (("invariants", *family, "--audit"), ("audit", *family), ("delta", str(g), str(k), "1/10"))
        fresh = tmp_path / f"fresh{k}_{b}"
        filled = tmp_path / f"filled{k}_{b}"
        before = [run_cli(capsys, *argv, "--cache-dir", str(fresh), "--output", "json") for argv in argvs]
        assert not fresh.exists()
        assert run_cli(capsys, "census", "--k", str(k), "--b", str(b), "--cache-dir", str(filled))[0] == 0
        after = [run_cli(capsys, *argv, "--cache-dir", str(filled), "--output", "json") for argv in argvs]
        assert after == before, (k, b)
        # genus 1 gives up at the default --d-max, with exit 3
        assert [code for code, _out, _err in after] == [0, 0, 3 if g == 1 else 0], (k, b)


@pytest.mark.parametrize("argv", [
    ("invariants", "--k", "20", "--g", "37", "--c", "1000", "--base-genus", "2"),
    ("census", "--k", "16", "--g", "29"),
], ids=["invariants-20-37", "census-16-29"])
def test_the_default_budget_answers_the_paper_shapes_in_a_fresh_directory(tmp_path, capsys, argv):
    # both were refused at the default budget while a census was priced as
    # the walk (S(k) (b - 2) block-state visits), and invariants read only a
    # cached census; class algebra prices them at 371 175 and 118 224 term products
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path / "fresh"), "--output", "json")
    assert (code, err) == (0, "")
    if argv[0] == "invariants":
        assert json.loads(out)["invariants"]["positive_index"] is True


# each change to the (3, 4) document; read_census names the document in
# its error, and no query reads it: each prints what it prints without it,
# and census writes its own document back and reports the document it
# replaced as an invariant violation
TAMPERED_CACHE = {
    "N1-and-N3": {"N1": "2", "N3": "2"},
    "split-cell": {"M_table": [{"j": 1, "i": 0, "count": "50"}]},
    "N": {"N": "25"},
    "N_tilde": {"N_tilde": "5"},
    "e": {"e": "0"},
    "N_sing": {"N_sing": "1"},
}
READERS = {
    "invariants": ("invariants", "--k", "3", "--b", "4", "--c", "8", "--base-genus", "2"),
    "audit": ("audit", "--k", "3", "--b", "4", "--c", "8", "--base-genus", "2"),
    "census": ("census", "--k", "3", "--b", "4"),
    "delta": ("delta", "0", "3", "1"),
}


def assert_census_replaces(capsys, d, document: bytes, good: bytes) -> None:
    """census over ``document`` in the (3, 4) file writes ``good`` there,
    prints no report and exits 2 naming the file."""
    path = census_path(d, 3, 4)
    path.write_bytes(document)
    code, out, err = run_cli(capsys, *READERS["census"], "--cache-dir", str(d))
    assert (code, out) == (2, "")
    assert err == (
        f"invariant violation: census document {path} did not hold the census of (3, 4); "
        "the census command has written it again\n"
    )
    assert path.read_bytes() == good


def assert_the_document_changes_no_report(capsys, d, document: bytes):
    """Every query that needs the (3, 4) census prints, with ``document``
    in its file, what it prints in a fresh directory; census writes its own
    document over it and exits 2 naming it, then prints what it prints in
    a fresh directory; read_census refuses the document until census has
    written its own over it, and an unchanged document is not written
    again."""
    fresh = [run_cli(capsys, *argv, "--cache-dir", str(d / "fresh")) for argv in READERS.values()]
    assert [code for code, _out, _err in fresh] == [0, 0, 0, 0]
    assert run_cli(capsys, "census", "--k", "3", "--b", "4", "--cache-dir", str(d))[0] == 0
    path = census_path(d, 3, 4)
    good = path.read_bytes()
    path.write_bytes(document)
    with pytest.raises(InvariantViolation, match=f"census document {re.escape(str(path))} does not hold"):
        read_census(d, 3, 4)
    for argv, want in zip(READERS.values(), fresh):
        if argv[0] == "census":
            assert_census_replaces(capsys, d, document, good)
        assert run_cli(capsys, *argv, "--cache-dir", str(d)) == want, argv
        assert path.read_bytes() == (good if argv[0] == "census" else document)
        path.write_bytes(document)
    assert_census_replaces(capsys, d, document, good)
    before = path.stat()
    assert run_cli(capsys, *READERS["census"], "--cache-dir", str(d))[0] == 0
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert path.read_bytes() == good
    assert read_census(d, 3, 4).raw_count == 24


@pytest.mark.parametrize("change", TAMPERED_CACHE.values(), ids=TAMPERED_CACHE.keys())
def test_a_tampered_document_changes_no_report(tmp_path, capsys, change):
    doc = json.loads(_census_document(3, 4))
    assert_the_document_changes_no_report(capsys, tmp_path, (json.dumps(doc | change, indent=2) + "\n").encode())


MALFORMED_CACHE = {
    "count-not-decimal": lambda doc: doc | {"N": "abc"},
    "count-not-a-string": lambda doc: doc | {"N": int(doc["N"])},
    "degree-not-an-int": lambda doc: doc | {"k": str(doc["k"])},
    "row-missing-i": lambda doc: doc | {
        "M_table": [{"j": 1, "count": "12"}] + doc["M_table"][1:]
    },
    "row-not-an-object": lambda doc: doc | {"M_table": [5]},
    "table-null": lambda doc: doc | {"M_table": None},
    "duplicate-cell": lambda doc: doc | {"M_table": doc["M_table"] + doc["M_table"][:1]},
}


@pytest.mark.parametrize("edit", MALFORMED_CACHE.values(), ids=MALFORMED_CACHE.keys())
def test_a_malformed_document_changes_no_report(tmp_path, capsys, edit):
    doc = edit(json.loads(_census_document(3, 4)))
    assert_the_document_changes_no_report(capsys, tmp_path, json.dumps(doc).encode())


# bytes that are not UTF-8, and arrays nested past the recursion limit,
# are no JSON document; no command parses one, so each ignores them
UNPARSABLE_CACHE = {"not-utf-8": b"\xff\xfe{", "nested-too-deep": b"[" * 100_000}


@pytest.mark.parametrize("argv", READERS.values(), ids=READERS.keys())
@pytest.mark.parametrize("document", UNPARSABLE_CACHE.values(), ids=UNPARSABLE_CACHE.keys())
def test_cli_unparsable_cache_is_an_unreadable_document(tmp_path, capsys, document, argv):
    d = str(tmp_path)
    fresh = run_cli(capsys, *argv, "--cache-dir", str(tmp_path / "fresh"))
    assert run_cli(capsys, "census", "--k", "3", "--b", "4", "--cache-dir", d)[0] == 0
    path = census_path(d, 3, 4)
    good = path.read_bytes()
    path.write_bytes(document)
    with pytest.raises(InvariantViolation, match="does not hold the census"):
        read_census(d, 3, 4)
    if argv[0] == "census":
        assert_census_replaces(capsys, tmp_path, document, good)
    assert run_cli(capsys, *argv, "--cache-dir", d) == fresh
    assert fresh[0] == 0
    assert path.read_bytes() == (good if argv[0] == "census" else document)


@pytest.mark.parametrize("argv", READERS.values(), ids=READERS.keys())
def test_a_query_checks_its_census_file_name_once(tmp_path, capsys, monkeypatch, argv):
    # census checks the name of the document it writes once, and draws no
    # random bytes when the document is already in place; the queries
    # never look at the cache directory
    d = str(tmp_path)
    assert run_cli(capsys, "census", "--k", "3", "--b", "4", "--cache-dir", d)[0] == 0
    checked = []

    def counted(*args):
        checked.append(args)
        return census_file(*args)

    def refused(n):
        raise AssertionError("a census read drew random bytes")

    monkeypatch.setattr(gonalgeo.cli, "census_file", counted)
    monkeypatch.setattr(gonalgeo.cache, "census_file", counted)
    monkeypatch.setattr(os, "urandom", refused)
    assert run_cli(capsys, *argv, "--cache-dir", d)[0] == 0
    assert checked == ([(Path(d), 3, 4)] if argv[0] == "census" else [])


@cache
def _census_document(k: int, b: int) -> str:
    return json.dumps(census_payload(full_census(k, b)[1]), indent=2) + "\n"


# (k, b) whose documents are mutated: no split cells at (2, 6), cells of two
# degrees at (4, 6), genus 1 at (3, 6), where delta gives up
MUTATED_PAIRS = ((2, 6), (4, 6), (3, 6))
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**20), st.floats(allow_nan=False),
    st.text(max_size=5), st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
DIGITS = st.one_of(
    st.integers(-5, 200).map(str),
    st.integers(-5, 10**30).map(str),
    st.text("0123456789-+ _.e", max_size=8),
    st.integers(4295, 4305).map(lambda n: "1" * n),  # about the digit limit
)


@st.composite
def mutated_census_documents(draw):
    """((k, b), the text of its cache document after one to three
    mutations, or None when the document is deleted)."""
    k, b = draw(st.sampled_from(MUTATED_PAIRS))
    doc = json.loads(_census_document(k, b))
    for _ in range(draw(st.integers(1, 3))):
        keys = sorted(doc) if isinstance(doc, dict) else []
        # counts and cells twice as often: a change there keeps the schema
        kind = draw(st.sampled_from(
            ("digits", "digits", "cell", "cell", "drop", "add", "type", "truncate", "delete")
        ))
        if kind == "delete":
            return (k, b), None
        if kind == "truncate":
            text = json.dumps(doc, indent=2)
            return (k, b), text[:draw(st.integers(0, len(text) - 1))]
        if not keys:
            continue
        if kind == "drop":
            del doc[draw(st.sampled_from(keys))]
        elif kind == "add":
            doc[draw(st.text(max_size=6))] = draw(ANY_VALUE)
        elif kind == "type":
            doc[draw(st.sampled_from(keys))] = draw(ANY_VALUE)
        elif kind == "digits":
            doc[draw(st.sampled_from(["N", "N_tilde", "N1", "N22", "N3", "e", "N_sing"]))] = draw(DIGITS)
        elif isinstance(doc.get("M_table"), list):
            rows = doc["M_table"]
            action = draw(st.sampled_from(("drop", "repeat", "new", "edit")))
            if action == "new" or not rows:
                rows.append({"j": draw(st.integers(-1, 4)), "i": draw(st.integers(-1, 3)), "count": draw(DIGITS)})
            elif action == "drop":
                rows.pop(draw(st.integers(0, len(rows) - 1)))
            elif action == "repeat":
                rows.append(deepcopy(draw(st.sampled_from(rows))))
            elif isinstance(row := rows[draw(st.integers(0, len(rows) - 1))], dict):
                field = draw(st.sampled_from(("j", "i", "count")))
                row[field] = draw(DIGITS if field == "count" else st.one_of(st.integers(-2, 5), ANY_VALUE))
    return (k, b), json.dumps(doc, indent=2)


@settings(max_examples=150, deadline=None)
@given(case=mutated_census_documents())
def test_cli_survives_mutated_census_documents(case):
    # every reader exits with a contract code, never raises, and leaves no
    # temporary file behind, whatever the document holds
    (k, b), text = case
    g = (b - 2 * k + 2) // 2
    shape = ("--k", str(k), "--b", str(b))
    family = (*shape, "--c", "8", "--base-genus", "2")
    with tempfile.TemporaryDirectory() as d:
        path = census_path(d, k, b)
        if text is not None:
            path.write_text(text, encoding="utf-8")
        for argv in (("invariants", *family), ("audit", *family), ("census", *shape), ("delta", str(g), str(k), "1/10")):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([*argv, "--cache-dir", d])
            assert code in (0, 2, 3, 4), (argv, err.getvalue())
            assert [p.name for p in Path(d).iterdir() if p.name.endswith(".tmp")] == []
            assert "Traceback" not in err.getvalue()


def test_cli_import_leaves_multiprocessing_out():
    src = Path(gonalgeo.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = "import sys, gonalgeo.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_concurrent_census_writers_leave_one_whole_document(tmp_path):
    # two processes compute (10, 52) at once into one empty directory, each
    # for about 0.4 s: both write, and the rename leaves one whole document
    src = Path(gonalgeo.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    def census(cache_dir):
        argv = [sys.executable, "-m", "gonalgeo", "census", "--k", "10", "--b", "52", "--cache-dir", str(cache_dir)]
        return subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)

    lone = census(tmp_path / "lone")
    assert lone.communicate(timeout=60)[1] == "" and lone.returncode == 0
    shared = tmp_path / "shared"
    shared.mkdir()
    writers = [census(shared), census(shared)]
    for writer in writers:
        assert writer.communicate(timeout=60)[1] == ""
        assert writer.returncode == 0
    assert sorted(p.name for p in shared.iterdir()) == ["census_k10_b52.json"]
    assert census_path(shared, 10, 52).read_bytes() == census_path(tmp_path / "lone", 10, 52).read_bytes()


def test_cli_delta(tmp_path, capsys):
    d = str(tmp_path)
    code, out, _err = run_cli(
        capsys, "delta", "0", "3", "1/10", "--cache-dir", d, "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["d_min"] == 3
    assert doc["certificate"]["ratio"]["numerator"] == "8"
    # delta computes its census and writes no document
    assert list(tmp_path.iterdir()) == []

    code, _out, err = run_cli(
        capsys, "delta", "0", "3", "0", "--cache-dir", d
    )
    assert code == 4 and "positive" in err

    code, _out, err = run_cli(
        capsys, "delta", "0", "3", "half", "--cache-dir", d
    )
    assert code == 4 and "rational" in err


# Fraction builds 10^5000 for 1e-5000, too long to print in the give-up
# message, and 10^9999999 for 1e-9999999, about 11 s of work; both are
# refused from their digit counts before Fraction runs
@pytest.mark.skipif(not int_digit_limit(), reason="without a digit limit no epsilon is too long")
@pytest.mark.parametrize("epsilon", ["1e-5000", "1e-9999999"])
def test_cli_epsilon_past_the_digit_limit_is_refused_at_once(tmp_path, capsys, epsilon):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "delta", "3", "3", epsilon, "--cache-dir", str(tmp_path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert err == f"error: the numerator or denominator of epsilon has more than the {int_digit_limit()} digits this interpreter reads\n"


# with the limit lifted, the interpreter's default of 4300 digits still
# bounds epsilon: Fraction would spend about 2 s building 10^3000000, and
# the give-up message far longer printing it
@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no interpreter digit limit to lift")
@pytest.mark.parametrize("epsilon", ["1e-4300", "1e-3000000", "1/1" + "0" * 4300])
def test_cli_epsilon_has_a_digit_ceiling_with_the_limit_lifted(tmp_path, capsys, epsilon):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(ParameterError):
            _parse_fraction(epsilon)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "delta", "3", "3", epsilon, "--cache-dir", str(tmp_path / "D"))
        assert time.perf_counter() - start < 1
        # 10^4299 has the 4300 digits allowed
        assert _parse_fraction("1e-4299") == _parse_fraction("1/1" + "0" * 4299) == Fraction(1, 10**4299)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (4, "")
    assert err == "error: the numerator or denominator of epsilon has more than 4300 digits\n"
    assert not (tmp_path / "D").exists()


def test_cli_epsilon_in_exponent_notation_is_the_same_rational(tmp_path, capsys):
    d = str(tmp_path)
    decimal = run_cli(capsys, "delta", "2", "3", "1e-3", "--cache-dir", d, "--output", "json")
    assert decimal[0] == 0
    assert decimal == run_cli(capsys, "delta", "2", "3", "1/1000", "--cache-dir", d, "--output", "json")


def test_cli_delta_exhaustion_prints_the_trajectory(tmp_path, capsys):
    d = str(tmp_path)
    assert run_cli(capsys, "census", "--k", "2", "--b", "4", "--cache-dir", d)[0] == 0
    code, _out, err = run_cli(
        capsys, "delta", "1", "2", "1", "--d-max", "25", "--cache-dir", d
    )
    assert code == 3
    assert "d=25 ratio=0" in err


def test_cli_delta_exhaustion_prints_eight_degrees_whatever_the_window(tmp_path, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "delta", "3", "3", "1/10", "--window", str(10**12), "--cache-dir", str(tmp_path)
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    trajectory = [line for line in err.splitlines() if line.startswith("  d=")]
    # the last 8 degrees up to the default --d-max of 10^6
    assert [line.split()[0] for line in trajectory] == [f"d={d}" for d in range(999993, 10**6 + 1)]


def test_cli_asymptotics(tmp_path, capsys):
    code, out, _err = run_cli(capsys, "asymptotics", "--case", "odd", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["claim_matches"] is True
    assert doc["derived_first_positive"] == 44

    code, out, _err = run_cli(capsys, "asymptotics", "--case", "even", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["claim_matches"] is False
    assert doc["reference_claim"] == 43
    assert doc["notes"]
    assert "n_max" not in doc

    code, _out, err = run_cli(capsys, "asymptotics")
    assert code == 4


def test_cli_argument_errors(capsys):
    assert run_cli(capsys, "definitely-not-a-command")[0] == 4
    assert run_cli(capsys)[0] == 4
    assert run_cli(capsys, "census", "--b", "4")[0] == 4  # --k is required
    assert run_cli(capsys, "census", "--k", "3")[0] == 4  # needs --b or --g
    assert run_cli(capsys, "census", "--k", "3", "--b", "5")[0] == 4
    assert run_cli(capsys, "census", "--k", "1", "--b", "4")[0] == 4
    assert run_cli(capsys, "census", "--k", "3", "--b", "4", "--workers", "0")[0] == 4
    assert run_cli(capsys, "census", "--k", "3", "--b", "4", "--budget", "-2")[0] == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("asymptotics", "--case", "odd", "--n-max", "10"),
        ("asymptotics", "--delta", "0", "3", "1"),
        ("delta", "0", "3", "1", "--census", "3,4"),
    ],
    ids=["n-max", "asymptotics-delta", "delta-census"],
)
def test_cli_removed_options_are_argument_errors(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 4
    assert out == ""
    assert err.startswith("error: ")


def test_cli_env_cache_dir(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv(ENV_CACHE_DIR, str(env_dir))
    code, _out, _err = run_cli(capsys, "census", "--k", "3", "--b", "4")
    assert code == 0
    assert census_path(env_dir, 3, 4).exists()


def test_cli_default_cache_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    monkeypatch.chdir(tmp_path)
    code, _out, _err = run_cli(capsys, "census", "--k", "3", "--b", "4")
    assert code == 0
    assert (tmp_path / DEFAULT_CACHE_DIR / "census_k3_b4.json").exists()


def test_cli_workers_flag_changes_nothing(tmp_path, capsys):
    serial = run_cli(
        capsys, "census", "--k", "3", "--b", "6",
        "--cache-dir", str(tmp_path / "a"), "--output", "json",
    )
    parallel = run_cli(
        capsys, "census", "--k", "3", "--b", "6", "--workers", "2",
        "--cache-dir", str(tmp_path / "b"), "--output", "json",
    )
    assert serial[0] == parallel[0] == 0
    assert serial[1] == parallel[1]
    assert serial[2] == ""
    assert parallel[2] == "warning: --workers is deprecated and ignored\n"
    code, out, _err = run_cli(capsys, "census", "--help")
    assert code == 0 and "--workers" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--k", "3", "--b", "4", "--c", "8"),  # --c would abbreviate --cache-dir
        ("delta", "0", "3", "1/2", "--b", "5"),  # --b would abbreviate --budget
    ],
    ids=["census-c", "delta-b"],
)
def test_cli_abbreviated_options_are_argument_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("error: unrecognized arguments: ")
    assert list(tmp_path.iterdir()) == []


def _assert_unusable(code, out, err, where):
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert where in err and "Traceback" not in err


def test_cli_census_unusable_cache_dir(tmp_path, capsys):
    f = tmp_path / "F"
    f.write_text("not a directory\n")
    for d in (f, f / "sub"):
        code, out, err = run_cli(capsys, "census", "--k", "3", "--b", "4", "--cache-dir", str(d))
        _assert_unusable(code, out, err, str(d))
    assert f.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F"]


def test_cli_delta_unusable_cache_dir(tmp_path, capsys):
    # delta does not use the cache directory, so one census could not use
    # changes nothing
    f = tmp_path / "F"
    f.write_text("")
    want = run_cli(capsys, "delta", "0", "2", "1", "--cache-dir", str(tmp_path / "fresh"))
    assert run_cli(capsys, "delta", "0", "2", "1", "--cache-dir", str(f)) == want
    assert want[0] == 0
    assert f.read_text() == ""


def test_cli_unsearchable_cache_dir(tmp_path, capsys, monkeypatch):
    # chmod 000 does not stop a process running as root, so the denied
    # search is simulated where the existence probe stats the document
    d = tmp_path / "locked"
    real_stat = Path.stat

    def stat(self, *args, **kwargs):
        if d in self.parents:
            raise PermissionError(13, "Permission denied", str(self))
        return real_stat(self, *args, **kwargs)

    monkeypatch.setattr(Path, "stat", stat)
    code, out, err = run_cli(capsys, "census", "--k", "3", "--b", "4", "--cache-dir", str(d))
    _assert_unusable(code, out, err, str(d))
    assert "Permission denied" in err
    # delta never looks into the directory
    assert run_cli(capsys, "delta", "0", "2", "1", "--cache-dir", str(d))[0] == 0


def test_cli_invariants_unusable_cache_dir(tmp_path, capsys):
    # invariants does not use the cache directory: a regular file there, or
    # a directory where the document would be, changes nothing for it, and
    # census, which would write there, cannot use either
    argv = ("invariants", "--k", "3", "--b", "4", "--c", "8", "--base-genus", "2")
    want = run_cli(capsys, *argv, "--cache-dir", str(tmp_path / "fresh"))
    assert want[0] == 0
    f = tmp_path / "F"
    f.write_text("")
    d = tmp_path / "D"
    census_path(d, 3, 4).mkdir(parents=True)
    for where in (f, d):
        assert run_cli(capsys, *argv, "--cache-dir", str(where)) == want
        code, out, err = run_cli(capsys, "census", "--k", "3", "--b", "4", "--cache-dir", str(where))
        _assert_unusable(code, out, err, str(where))
    assert f.read_text() == "" and census_path(d, 3, 4).is_dir()


# the CLI computes each shape's census once per process (cli._census_of),
# behind the budget and digit refusals that every call decides again


def test_a_memo_hit_is_still_priced(tmp_path, capsys):
    gonalgeo.cli._census_of.cache_clear()
    assert run_cli(capsys, "census", "--k", "4", "--b", "10", "--cache-dir", str(tmp_path))[0] == 0
    held = gonalgeo.cli._census_of.cache_info()
    assert held.currsize == 1
    code, out, err = run_cli(capsys, "invariants", "--k", "4", "--b", "10", "--c", "40", "--base-genus", "1", "--budget", "1")
    assert (code, out) == (3, "")
    assert err.startswith("error: the class-algebra census for (4, 10) forms more term products than the budget 1;")
    # the refusal is decided before the memo is looked at
    assert gonalgeo.cli._census_of.cache_info() == held


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this interpreter converts ints of any length")
def test_a_memo_hit_is_still_digit_checked(tmp_path, capsys):
    gonalgeo.cli._census_of.cache_clear()
    argv = ("census", "--k", "4", "--b", "1700", "--cache-dir", str(tmp_path))
    assert algebra_price(4, 1700, True) == 32_982
    assert run_cli(capsys, *argv)[0] == 0
    held = gonalgeo.cli._census_of.cache_info()
    assert held.currsize == 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (3, "")
    assert re.match(r"error: the tuple count N for \(4, 1700\) is at least 10\^\d+", err)
    assert gonalgeo.cli._census_of.cache_info() == held


def _memo_queries(k: int, b: int, d: str):
    g = (b - 2 * k + 2) // 2
    shape = ("--k", str(k), "--b", str(b))
    family = (*shape, "--c", str(3 * b + 1), "--base-genus", "2")
    yield ("census", *shape, "--cache-dir", d)
    yield ("invariants", *family, "--audit")
    yield ("audit", *family)
    yield ("delta", str(g), str(k), "1/10", *(("--d-max", "2000") if g == 1 else ()))


def test_warm_output_equals_cold_output(tmp_path, capsys):
    codes = set()
    for k, b in ENVELOPE:
        for argv in _memo_queries(k, b, str(tmp_path)):
            for output in ("json", "table", "csv"):
                gonalgeo.cli._census_of.cache_clear()
                cold = run_cli(capsys, *argv, "--output", output)
                assert gonalgeo.cli._census_of.cache_info().currsize == 1
                assert run_cli(capsys, *argv, "--output", output) == cold, (argv, output)
                assert gonalgeo.cli._census_of.cache_info().hits == 1
                codes.add((argv[0], cold[0]))
    # every census, invariants and audit query answers; delta gives up at genus 1
    assert codes == {("census", 0), ("invariants", 0), ("audit", 0), ("delta", 0), ("delta", 3)}


def test_the_memo_is_bounded_and_used(capsys, monkeypatch):
    gonalgeo.cli._census_of.cache_clear()
    computed = []

    def counted(k, b):
        computed.append((k, b))
        return full_census(k, b)

    monkeypatch.setattr(gonalgeo.cli, "full_census", counted)
    shapes = [(3, b) for b in range(4, 44, 2)]
    for k, b in shapes:
        assert run_cli(capsys, "invariants", "--k", str(k), "--b", str(b), "--c", "8", "--base-genus", "2")[0] == 0
    assert computed == shapes
    assert gonalgeo.cli._census_of.cache_info().currsize == 16
    # the latest shape is held; the first was evicted and is computed again
    for k, b in (shapes[-1], shapes[0]):
        assert run_cli(capsys, "audit", "--k", str(k), "--b", str(b), "--c", "8", "--base-genus", "2")[0] == 0
    assert computed == shapes + [shapes[0]]
    # the library shares nothing: each call builds a new census
    assert full_census(3, 4)[1] is not full_census(3, 4)[1]
