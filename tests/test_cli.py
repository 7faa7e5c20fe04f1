"""Command-line surface: formats, exit codes, cache round trips."""

import argparse
import json
import os
import subprocess
import sys
import threading

import pytest

import khoma.cli
from khoma.cli import (
    EXIT_FAIL,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    cache_get,
    cache_put,
    main,
    table_from_json,
    table_to_json,
    word_cache_key,
)
from khoma.diagram import parse_word
from khoma.homology import homology
from khoma.verify import CLAIMS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_text_output(capsys):
    code, out, _ = run(capsys, "homology", "--torus", "2", "3", "--format", "text")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "   i     j   group",
        "   0     1   Z",
        "   0     3   Z",
        "   2     5   Z",
        "   3     7   Z_2",
        "   3     9   Z",
    ]


def test_homology_json_schema(capsys):
    code, out, _ = run(capsys, "homology", "--torus", "3", "4", "--format", "json", "--max-i", "4")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["diagram"] == {"kind": "torus", "p": 3, "q": 4}
    assert payload["normalized"] is True
    assert payload["n_plus"] == 8 and payload["n_minus"] == 0
    assert payload["groups"][0] == {"i": 0, "j": 5, "rank": 1, "torsion": []}
    keys = [(g["i"], g["j"]) for g in payload["groups"]]
    assert keys == sorted(keys)
    torsion_entries = [g for g in payload["groups"] if g["torsion"]]
    assert torsion_entries == [{"i": 3, "j": 11, "rank": 0, "torsion": [2]}]


def test_homology_csv(capsys):
    code, out, _ = run(capsys, "homology", "--braid", "1 1 1", "--unnormalized", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "i,j,rank,torsion",
        "0,-2,1,",
        "0,0,1,",
        "2,2,1,",
        "3,4,0,2",
        "3,6,1,",
    ]


def test_unnormalized_is_shifted(capsys):
    _, norm, _ = run(capsys, "homology", "--braid", "1 1 1", "--format", "csv")
    _, raw, _ = run(capsys, "homology", "--braid", "1 1 1", "--unnormalized", "--format", "csv")
    shift = [line.split(",") for line in raw.splitlines()[1:]]
    reshifted = sorted(
        (int(i), int(j) + 3) for i, j, _, _ in shift
    )
    normed = sorted(
        (int(line.split(",")[0]), int(line.split(",")[1]))
        for line in norm.splitlines()[1:]
    )
    assert reshifted == normed


def test_jones_via_both(capsys):
    code, out, _ = run(capsys, "jones", "--torus", "2", "3", "--via", "both")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "bracket: q + q^3 + q^5 - q^9",
        "euler:   q + q^3 + q^5 - q^9",
    ]


def test_homology_of_trivial_torus_words(capsys):
    code, out, _ = run(capsys, "homology", "--torus", "1", "5", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[1:] == ["0,-1,1,", "0,1,1,"]


def test_jones_unknot_and_unlink(capsys):
    code, out, _ = run(capsys, "jones", "--torus", "1", "1")
    assert code == EXIT_OK and out.strip() == "q^-1 + q"
    code, out, _ = run(capsys, "jones", "--braid", "1 -1 1")
    assert code == EXIT_OK and out.strip() == "q^-1 + q"
    # the closure of one cancelling pair is the two-component unlink
    code, out, _ = run(capsys, "jones", "--braid", "1 -1")
    assert code == EXIT_OK and out.strip() == "q^-2 + 2 + q^2"


def test_exit_codes(capsys):
    code, _, err = run(capsys, "homology", "--torus", "9", "9")
    assert code == EXIT_LIMIT and "refused" in err
    code, _, err = run(capsys, "homology", "--braid", "1", "--strands", "300")
    assert code == EXIT_LIMIT and "limit is 256" in err
    # refused in the workers, which each walk a share of the quantum degrees
    code, _, err = run(capsys, "homology", "--braid", "1", "--strands", "300", "--jobs", "2")
    assert code == EXIT_LIMIT and "limit is 256" in err
    code, _, err = run(capsys, "homology", "--braid", "0 1")
    assert code == EXIT_USAGE
    with pytest.raises(SystemExit) as info:
        main(["verify", "t1"])
    assert info.value.code == EXIT_USAGE
    assert "required: --p, --q" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["homology"])  # no diagram selected
    assert info.value.code == EXIT_USAGE


@pytest.mark.parametrize("command", ["homology", "jones"])
def test_oversized_torus_refused_before_its_word_is_built(capsys, monkeypatch, command):
    def unbuilt(p, q):
        raise AssertionError("torus_word called for a refused diagram")

    monkeypatch.setattr(khoma.cli, "torus_word", unbuilt)
    code, _, err = run(capsys, command, "--torus", "3", "2000000", "--max-crossings", "20")
    assert code == EXIT_LIMIT
    assert err.strip() == "refused: word has 4000000 crossings, limit is 20"


def test_verify_les_refuses_an_oversized_torus_before_its_word(capsys, monkeypatch):
    def unbuilt(p, q):
        raise AssertionError("torus_word called for a refused diagram")

    monkeypatch.setattr(khoma.cli, "torus_word", unbuilt)
    for q, crossings in (("9", 18), ("1000000000", 2000000000)):
        code, out, err = run(capsys, "verify", "les", "--torus", "3", q, "--crossing", "0")
        assert code == EXIT_LIMIT and out == ""
        assert err.strip() == f"refused: word has {crossings} crossings, limit is 16"
    monkeypatch.undo()
    for crossing in ("8", "-1"):
        code, out, err = run(capsys, "verify", "les", "--torus", "3", "4", "--crossing", crossing)
        assert code == EXIT_USAGE and out == ""
        assert err.strip() == "error: crossing index out of range"


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "--torus", "2", "3", "--strands", "7"],
        ["jones", "--torus", "2", "3", "--strands", "2"],
        ["verify", "les", "--torus", "2", "3", "--strands", "9", "--crossing", "0"],
        ["homology", "--torus", "9", "9", "--strands", "9"],
    ],
)
def test_strands_with_torus_refused(capsys, argv):
    # a strand count that a torus diagram ignores is refused, not dropped
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.strip() == "error: --strands applies to --braid only"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_refused(capsys, jobs):
    with pytest.raises(SystemExit) as info:
        main(["homology", "--torus", "2", "3", "--jobs", jobs])
    assert info.value.code == EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "f1", "--p", "3", "--q", "4", "--max-crossings", "-5"],
        ["homology", "--torus", "2", "3", "--max-crossings", "-1"],
    ],
)
def test_negative_crossing_budget_refused(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_USAGE
    assert "--max-crossings" in capsys.readouterr().err


def test_verify_stream_and_exit(capsys):
    code, out, _ = run(capsys, "verify", "t1", "--p", "3", "--q", "4")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["claim"] == "T1" and report["verdict"] == "pass"

    code, out, _ = run(capsys, "verify", "les", "--braid", "1 1 1", "--crossing", "0")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "pass"

    code, out, _ = run(capsys, "verify", "conj1", "--p", "3")
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "pass"

    code, out, _ = run(capsys, "verify", "table", "--p", "3", "--q", "3")
    assert code == EXIT_OK  # skipped is not a failure
    assert json.loads(out)["verdict"] == "skipped"

    # an option the claim does not take is refused, not ignored
    for argv in (
        ["conj1", "--p", "3", "--jobs", "2"],
        ["t1", "--p", "3", "--q", "4", "--crossing", "2"],
    ):
        with pytest.raises(SystemExit) as info:
            main(["verify", *argv])
        assert info.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


def _option(param):
    return "--" + param.replace("_", "-")


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_verify_table_covers_every_claim():
    claims = _subcommands(_subcommands(build_parser())["verify"])
    assert tuple(claims) == (
        "t1", "f1", "f2", "f3", "rem2", "table", "e-vanishing", "les", "conj1",
        "stable-poly", "width",
    )
    assert tuple(claims) == tuple(CLAIMS)
    for name, claim in CLAIMS.items():
        options = {a.option_strings[-1]: a for a in claims[name]._actions if a.option_strings}
        required = {option for option, action in options.items() if action.required}
        assert required == {_option(param) for param in claim.params if param != "word"}, name
        expected = {"--help", "--max-crossings", *required}
        if "word" in claim.params:
            expected |= {"--torus", "--braid", "--strands"}
        if claim.takes_jobs:
            expected.add("--jobs")
        assert set(options) == expected, name


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_verify_missing_argument_exits_2(capsys, claim):
    with pytest.raises(SystemExit) as info:
        main(["verify", claim])
    assert info.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"khoma verify {claim}: error: the following arguments are required" in captured.err
    for param in CLAIMS[claim].params:
        if param != "word":
            assert _option(param) in captured.err


def _help_text(monkeypatch, capsys, *argv):
    # one line per paragraph, so the text reads back unwrapped
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit) as info:
        main([*argv, "--help"])
    assert info.value.code == EXIT_OK
    return capsys.readouterr().out


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_verify_help_states_the_claim(monkeypatch, capsys, claim):
    out = " ".join(_help_text(monkeypatch, capsys, "verify", claim).split())
    assert " ".join(CLAIMS[claim].statement.split()) in out


def test_verify_help_lists_each_claim_by_its_first_line(monkeypatch, capsys):
    out = _help_text(monkeypatch, capsys, "verify")
    for claim in CLAIMS.values():
        assert claim.statement.partition("\n")[0] in out


def test_verify_les_needs_a_crossing(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "les", "--braid", "1 1 1"])
    assert info.value.code == EXIT_USAGE
    assert "required: --crossing" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["verify", "les", "--crossing", "0"])
    assert info.value.code == EXIT_USAGE
    assert "one of the arguments --torus --braid is required" in capsys.readouterr().err


def test_verify_stable_poly(capsys):
    code, out, _ = run(capsys, "verify", "stable-poly", "--m", "2", "--n-max", "5")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["witness"]["n_checked"] == [3, 4, 5]
    assert report["witness"]["n_skipped_from"] is None


def test_json_roundtrip():
    table = homology(parse_word("1 1 1"))
    payload = table_to_json(table, {"kind": "braid", "word": [1, 1, 1], "strands": 2})
    text = json.dumps(payload, sort_keys=True)
    back = table_from_json(json.loads(text))
    assert back.groups == table.groups
    assert back.normalized == table.normalized
    assert back.n_plus == table.n_plus and back.n_minus == table.n_minus


def test_cache_roundtrip(tmp_path):
    word = parse_word("1 1 1")
    key = word_cache_key(word, "norm|max_i=None")
    record = {"key": key, "table": {"x": 1}, "engine": {"version": "0.1.0"}}
    assert cache_get(str(tmp_path), key) is None
    assert cache_put(str(tmp_path), key, record)
    assert cache_get(str(tmp_path), key) == record


def test_cache_key_depends_on_mode_and_word():
    w1 = parse_word("1 1 1")
    w2 = parse_word("1 1 1 2", strands=3)
    assert word_cache_key(w1, "a") != word_cache_key(w1, "b")
    assert word_cache_key(w1, "a") != word_cache_key(w2, "a")


def test_cache_key_depends_on_engine_version(monkeypatch):
    w = parse_word("1 1 1")
    before = word_cache_key(w, "a")
    monkeypatch.setattr("khoma.cli.__version__", "999.0")
    assert word_cache_key(w, "a") != before


def test_cache_key_depends_on_source_digest(tmp_path, capsys, monkeypatch):
    argv = [
        "homology", "--torus", "2", "3", "--format", "json", "--cache-dir", str(tmp_path),
    ]
    code, first, _ = run(capsys, *argv)
    assert code == EXIT_OK
    w = parse_word("1 1 1")
    before = word_cache_key(w, "a")
    monkeypatch.setattr("khoma.cli.source_digest", lambda: "0" * 64)
    assert word_cache_key(w, "a") != before
    # the record stored under the real digest is a miss under another digest
    code, second, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert second == first
    assert len([f for f in os.listdir(tmp_path) if f.endswith(".json")]) == 2


def test_source_digest_is_lazy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(khoma.cli.__file__)))
    probe = (
        "import khoma, khoma.cli; "
        "print(khoma.cli.source_digest.cache_info().currsize, len(khoma.cli.source_digest()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == ["0", "64"]


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("broken", ["groups-not-a-list", "groups-unsorted"])
def test_malformed_cached_table_is_recomputed(tmp_path, capsys, fmt, broken):
    argv = ["homology", "--torus", "2", "3", "--format", fmt]
    code, fresh, _ = run(capsys, *argv)
    assert code == EXIT_OK
    code, _, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
    (name,) = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
    path = tmp_path / name
    record = json.loads(path.read_text(encoding="utf-8"))
    good_table = record["table"]
    if broken == "groups-not-a-list":
        bad_table = {"groups": 5}
    else:  # parses, but does not print as a fresh table would
        bad_table = {**good_table, "groups": good_table["groups"][::-1]}
    path.write_text(json.dumps({**record, "table": bad_table}), encoding="utf-8")
    code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert out == fresh
    assert err == ""
    # the malformed entry was overwritten with the recomputed table
    assert json.loads(path.read_text(encoding="utf-8"))["table"] == good_table


def test_cache_ignores_corruption(tmp_path):
    word = parse_word("1 1 1")
    key = word_cache_key(word, "norm|max_i=None")
    path = tmp_path / f"{key}.json"
    path.write_text("{ not json", encoding="utf-8")
    assert cache_get(str(tmp_path), key) is None
    path.write_text(json.dumps({"key": "wrong"}), encoding="utf-8")
    assert cache_get(str(tmp_path), key) is None
    path.write_text(json.dumps([key]), encoding="utf-8")
    assert cache_get(str(tmp_path), key) is None


def test_cache_concurrent_puts_single_valid_file(tmp_path):
    word = parse_word("1 1 1")
    key = word_cache_key(word, "mode")
    record = {"key": key, "table": list(range(100))}

    def writer():
        for _ in range(20):
            cache_put(str(tmp_path), key, record)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    files = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
    assert files == [f"{key}.json"]
    assert cache_get(str(tmp_path), key) == record


def test_cli_uses_cache(tmp_path, capsys):
    argv = [
        "homology", "--torus", "2", "3", "--format", "json", "--cache-dir", str(tmp_path),
    ]
    code, first, _ = run(capsys, *argv)
    assert code == EXIT_OK
    cached = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
    assert len(cached) == 1
    code, second, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert first == second  # byte-identical through the cache
    code, uncached, _ = run(capsys, "homology", "--torus", "2", "3", "--format", "json")
    assert code == EXIT_OK
    assert uncached == first  # cache on or off, same bytes


def test_cache_hit_prints_the_requested_diagram(tmp_path, capsys, monkeypatch):
    # T(2, 3) and the braid "1 1 1" are one word, so they share a cache key
    code, _, _ = run(
        capsys, "homology", "--torus", "2", "3", "--format", "json", "--cache-dir", str(tmp_path)
    )
    assert code == EXIT_OK
    braid = ["homology", "--braid", "1 1 1", "--format", "json"]
    code, fresh, _ = run(capsys, *braid)
    assert code == EXIT_OK

    def uncomputed(*args, **kwargs):
        raise AssertionError("cache miss")

    monkeypatch.setattr(khoma.cli, "homology", uncomputed)
    code, cached, _ = run(capsys, *braid, "--cache-dir", str(tmp_path))
    assert code == EXIT_OK
    assert cached == fresh
    assert json.loads(cached)["diagram"] == {"kind": "braid", "word": [1, 1, 1], "strands": 2}


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KHOMA_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "homology", "--torus", "2", "3")
    assert code == EXIT_OK
    assert any(f.endswith(".json") for f in os.listdir(tmp_path))


def test_max_i_matches_full_run(capsys):
    _, full, _ = run(capsys, "homology", "--torus", "3", "3", "--format", "csv")
    _, part, _ = run(capsys, "homology", "--torus", "3", "3", "--format", "csv", "--max-i", "2")
    full_rows = [r for r in full.splitlines()[1:] if int(r.split(",")[0]) <= 2]
    assert part.splitlines()[1:] == full_rows
