import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gonalgeo
from gonalgeo.cache import (
    DEFAULT_CACHE_DIR,
    ENV_CACHE_DIR,
    census_path,
    census_payload,
    int_digit_limit,
    load_or_compute,
    read_census,
    resolve_cache_dir,
    write_census,
)
from gonalgeo.cli import main
from gonalgeo.errors import InvariantViolation, ParameterError


def test_resolve_cache_dir_precedence(monkeypatch, tmp_path):
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    assert str(resolve_cache_dir(None)) == DEFAULT_CACHE_DIR
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "fromenv"))
    assert resolve_cache_dir(None) == tmp_path / "fromenv"
    assert resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"


def test_payload_schema(census_store):
    counts, cen = census_store(3, 4)
    payload = census_payload(counts, cen)
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
    with pytest.raises(ParameterError):
        census_payload(counts, census_store(3, 6)[1])


def test_round_trip(tmp_path, census_store):
    counts, cen = census_store(4, 6)
    path = write_census(tmp_path, counts, cen)
    assert path == census_path(tmp_path, 4, 6)
    counts2, cen2 = read_census(tmp_path, 4, 6)
    assert counts2 == counts
    assert cen2 == cen
    assert cen2.split_table == cen.split_table
    # rewriting is byte-identical
    before = path.read_bytes()
    write_census(tmp_path, counts2, cen2)
    assert path.read_bytes() == before


def test_read_census_failure_modes(tmp_path, census_store):
    with pytest.raises(ParameterError, match="run the census command first"):
        read_census(tmp_path, 3, 4)

    counts, cen = census_store(3, 4)
    path = write_census(tmp_path, counts, cen)

    doc = json.loads(path.read_text())
    (tmp_path / "census_k3_b6.json").write_text(json.dumps(doc))
    with pytest.raises(ParameterError, match="is for"):
        read_census(tmp_path, 3, 6)

    path.write_text("{ not json")
    with pytest.raises(ParameterError, match="unreadable"):
        read_census(tmp_path, 3, 4)

    stripped = {key: value for key, value in doc.items() if key != "N1"}
    path.write_text(json.dumps(stripped))
    with pytest.raises(ParameterError, match="schema"):
        read_census(tmp_path, 3, 4)

    # tampered counts fail the census validators on the way in
    broken = doc | {"N1": "2", "N3": "2"}
    path.write_text(json.dumps(broken))
    with pytest.raises(InvariantViolation):
        read_census(tmp_path, 3, 4)


def test_load_or_compute_uses_the_cache(tmp_path, monkeypatch):
    counts, cen = load_or_compute(tmp_path, 3, 4)
    assert counts.raw_count == 24
    # a second load must not recompute: make recomputation impossible
    import gonalgeo.cache as cache_mod

    def boom(*args, **kwargs):
        raise AssertionError("cache miss where a hit was expected")

    monkeypatch.setattr(cache_mod, "full_census", boom)
    counts2, cen2 = load_or_compute(tmp_path, 3, 4)
    assert (counts2, cen2.split_table) == (counts, cen.split_table)


def test_write_census_leaves_no_partial_file(tmp_path, monkeypatch, census_store):
    import gonalgeo.cache as cache_mod

    def refuse(src, dst):
        raise OSError("rename refused")

    counts, cen = census_store(3, 4)
    monkeypatch.setattr(cache_mod.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_census(tmp_path, counts, cen)
    assert list(tmp_path.iterdir()) == []

    monkeypatch.undo()
    path = write_census(tmp_path, counts, cen)
    before = path.read_bytes()
    monkeypatch.setattr(cache_mod.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_census(tmp_path, counts, cen)
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

    code, out, _err = run_cli(
        capsys, "oracle-check", "--k", "4", "--b", "10", "--oracle-only",
        "--budget", "1", "--cache-dir", str(tmp_path), "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_raw"] == "4959360"
    assert "enumeration_raw" not in doc


def test_cli_budget_guard(tmp_path, capsys):
    code, _out, err = run_cli(
        capsys, "census", "--k", "4", "--b", "10", "--budget", "1000",
        "--cache-dir", str(tmp_path),
    )
    assert code == 3
    assert "budget" in err
    assert "oracle-check --oracle-only" in err


def test_cli_budget_guard_on_an_estimate_too_long_to_print(tmp_path, capsys):
    # about 95000 digits, past the interpreter's int-to-str limit of 4300
    code, out, err = run_cli(
        capsys, "census", "--k", "3", "--g", "100000", "--cache-dir", str(tmp_path),
    )
    assert code == 3
    assert out == ""
    assert "estimated at least 10^95425 identity-product tuples" in err
    assert "oracle-check --oracle-only" in err


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
    d = str(tmp_path)
    assert run_cli(capsys, "census", "--k", "3", "--b", "4", "--cache-dir", d)[0] == 0
    path = census_path(d, 3, 4)
    long_count = "1" + "0" * max(int_digit_limit(), 4300)
    path.write_text(json.dumps(json.loads(path.read_text()) | {"N": long_count}))
    code, _out, err = run_cli(
        capsys, "invariants", "--k", "3", "--b", "4", "--c", "8",
        "--base-genus", "2", "--cache-dir", d,
    )
    if int_digit_limit():
        assert code == 4
        assert "does not match the schema" in err
    else:
        # read in full, the count then fails the census identities
        assert code == 2


def test_cli_capacity_guard(tmp_path, capsys):
    # a budget too large to trip, so the degree cap itself answers
    code, _out, err = run_cli(
        capsys, "census", "--k", "8", "--b", "14", "--cache-dir", str(tmp_path),
        "--budget", str(10**30),
    )
    assert code == 3
    assert "exceeds the table bound" in err


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


def test_cli_invariants_requires_a_cached_census(tmp_path, capsys):
    code, _out, err = run_cli(
        capsys, "invariants", "--k", "3", "--b", "4", "--c", "8",
        "--base-genus", "2", "--cache-dir", str(tmp_path / "empty"),
    )
    assert code == 4
    assert "run the census command first" in err


def test_cli_tampered_cache_is_an_invariant_violation(tmp_path, capsys):
    d = str(tmp_path)
    assert run_cli(capsys, "census", "--k", "3", "--b", "4", "--cache-dir", d)[0] == 0
    path = census_path(d, 3, 4)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(doc | {"N1": "2", "N3": "2"}))
    code, _out, err = run_cli(
        capsys, "invariants", "--k", "3", "--b", "4", "--c", "8",
        "--base-genus", "2", "--cache-dir", d,
    )
    assert code == 2
    assert "invariant violation" in err


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
def test_cli_malformed_cache_is_a_schema_error(tmp_path, capsys, edit):
    d = str(tmp_path)
    assert run_cli(capsys, "census", "--k", "4", "--b", "6", "--cache-dir", d)[0] == 0
    path = census_path(d, 4, 6)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    code, _out, err = run_cli(
        capsys, "invariants", "--k", "4", "--b", "6", "--c", "8",
        "--base-genus", "2", "--cache-dir", d,
    )
    assert code == 4
    assert "does not match the schema" in err


def test_cli_import_leaves_multiprocessing_out():
    src = Path(gonalgeo.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = "import sys, gonalgeo.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_cli_delta(tmp_path, capsys):
    d = str(tmp_path)
    code, out, _err = run_cli(
        capsys, "delta", "0", "3", "1/10", "--cache-dir", d, "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["d_min"] == 3
    assert doc["certificate"]["ratio"]["numerator"] == "8"
    assert census_path(d, 3, 4).exists()

    code, _out, err = run_cli(
        capsys, "delta", "0", "3", "0", "--cache-dir", d
    )
    assert code == 4 and "positive" in err

    code, _out, err = run_cli(
        capsys, "delta", "0", "3", "half", "--cache-dir", d
    )
    assert code == 4 and "rational" in err


def test_cli_delta_exhaustion_prints_the_trajectory(tmp_path, capsys):
    d = str(tmp_path)
    assert run_cli(capsys, "census", "--k", "2", "--b", "4", "--cache-dir", d)[0] == 0
    code, _out, err = run_cli(
        capsys, "delta", "1", "2", "1", "--d-max", "25", "--cache-dir", d
    )
    assert code == 3
    assert "d=25 ratio=0" in err


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

    d = str(tmp_path)
    code, out, _err = run_cli(
        capsys, "asymptotics", "--delta", "0", "3", "1/1", "--census", "3,4",
        "--cache-dir", d, "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["certificate"]["d_min"] == 3

    code, _out, err = run_cli(
        capsys, "asymptotics", "--delta", "0", "3", "1", "--census", "4,6",
        "--cache-dir", d,
    )
    assert code == 4 and "does not match" in err

    code, _out, err = run_cli(
        capsys, "asymptotics", "--case", "odd", "--delta", "0", "3", "1",
        "--cache-dir", d,
    )
    assert code == 4 and "not both" in err

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
    f = tmp_path / "F"
    f.write_text("")
    code, out, err = run_cli(capsys, "delta", "0", "2", "1", "--cache-dir", str(f))
    _assert_unusable(code, out, err, str(f))


def test_cli_invariants_unusable_cache_dir(tmp_path, capsys):
    f = tmp_path / "F"
    f.write_text("")
    code, out, err = run_cli(
        capsys, "invariants", "--k", "3", "--b", "4", "--c", "8",
        "--base-genus", "2", "--cache-dir", str(f),
    )
    _assert_unusable(code, out, err, str(f))
    # a directory where the document should be is unreadable the same way
    d = tmp_path / "D"
    census_path(d, 3, 4).mkdir(parents=True)
    code, out, err = run_cli(
        capsys, "invariants", "--k", "3", "--b", "4", "--c", "8",
        "--base-genus", "2", "--cache-dir", str(d),
    )
    _assert_unusable(code, out, err, str(d))
