import hashlib
import importlib
import json
import os
from pathlib import Path

import pytest

from welschinger import cli
from welschinger.store import CACHE_HEADER, cache_load

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_plain(capsys):
    code, out, _ = run(capsys, "compute", "--surface", "B1", "--twist", "F",
                       "--class", "-2K", "--no-cache")
    assert code == 0
    assert out.strip() == "160"


def test_compute_json(capsys):
    code, out, _ = run(capsys, "compute", "--surface", "P2[6,0]",
                       "--class", "-K", "--json", "--no-timing", "--no-cache")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "8"
    assert payload["point_count"] == 2
    assert "elapsed_s" not in payload


def test_compute_twist_validation_exit_code(capsys):
    code, _, err = run(capsys, "compute", "--surface", "P2[4,1]", "--twist", "F",
                       "--class", "-K", "--no-cache")
    assert code == 3
    assert "twist" in err


def test_compute_parse_error_exit_code(capsys):
    code, _, _ = run(capsys, "compute", "--surface", "P2[6,0]",
                     "--class", "nonsense", "--no-cache")
    assert code == 2
    code, _, _ = run(capsys, "compute", "--surface", "Q7",
                     "--class", "-K", "--no-cache")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("compute", "--surface", "B1", "--twist", "F", "--class", "-K"),
    ("scan", "--surface", "B1", "--twist", "F", "--bound", "3",
     "--mode", "positivity"),
])
def test_json_and_csv_together_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--json", "--csv", "--no-cache"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    # scan takes both flags, but not together; compute takes no --csv
    if argv[0] == "scan":
        assert "not allowed with argument" in err
    else:
        assert "unrecognized arguments: --csv" in err


_B1F = ("--surface", "B1", "--twist", "F")
_CHAIN = ("chain", *_B1F, "--from", "1,1,1", "--to", "2,2,2")


# A flag a verb's command does not read is refused like any unknown flag.
@pytest.mark.parametrize("argv, flag", [
    (("compute", *_B1F, "--class", "-K"), ("--csv",)),
    (("table",), ("--csv",)),
    (("trace", *_B1F, "--class", "-K"), ("--json",)),
    (("trace", *_B1F, "--class", "-K"), ("--csv",)),
    (("trace", *_B1F, "--class", "-K"), ("--no-timing",)),
    (("scan", *_B1F, "--bound", "3", "--mode", "positivity"), ("--no-timing",)),
    (("growth", *_B1F, "--class", "-K", "--n-max", "2"), ("--no-timing",)),
    (_CHAIN, ("--cache", "store.txt")),
    (_CHAIN, ("--no-cache",)),
    (_CHAIN, ("--no-timing",)),
])
def test_flag_the_verb_does_not_read_exits_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, *flag])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {flag[0]}" in err


def test_value_flags_take_dash_leading_values(capsys):
    # --from/--to and --bound are value flags, so -K, -2K and -1 are values
    by_k = run(capsys, "chain", *_B1F, "--from", "-K", "--to", "-2K")
    assert by_k[:2] == run(capsys, *_CHAIN)[:2]
    code, out, err = run(capsys, "scan", *_B1F, "--mode", "positivity",
                         "--bound", "-1", "--no-cache")
    assert (code, out) == (3, "")
    assert "scan bound must be >= 1" in err


def test_table_matches_reference(capsys):
    code, out, _ = run(capsys, "table", "--no-cache", "--json", "--no-timing")
    assert code == 0
    payload = json.loads(out)
    assert payload["golden_match"] is True
    assert payload["rows"]["-K"] == ["8", "6", "4", "2", "0", "4", "0", "4"]
    assert payload["rows"]["-2K"] == [
        "1000", "522", "236", "78", "0", "512", "0", "160",
    ]


def test_trace_totals_line(capsys):
    code, out, _ = run(capsys, "trace", "--surface", "B1", "--twist", "F",
                       "--class", "-K", "--alpha", "1:1", "--beta", "0",
                       "--no-cache")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1] == {"total": "2"}
    contributions = [int(rec["contribution"]) for rec in lines[:-1]]
    assert sorted(contributions) == [-1, -1, 1, 1, 1, 1]


def test_trace_default_key_matches_compute(capsys):
    code, out, _ = run(capsys, "trace", "--surface", "B1", "--twist", "F",
                       "--class", "-K", "--no-cache")
    assert code == 0
    total = json.loads(out.strip().splitlines()[-1])["total"]
    code, out, _ = run(capsys, "compute", "--surface", "B1", "--twist", "F",
                       "--class", "-K", "--no-cache")
    assert out.strip() == total == "4"


def test_scan_positivity_flags_untwisted_cubic(capsys):
    code, out, err = run(capsys, "scan", "--surface", "B1", "--twist", "0",
                         "--bound", "3", "--mode", "positivity", "--no-cache")
    assert code == 1
    assert "NON-POSITIVE" in out
    assert "outside theorem scope" in err


def test_scan_positivity_ok(capsys):
    code, out, _ = run(capsys, "scan", "--surface", "B1", "--twist", "F",
                       "--bound", "5", "--mode", "positivity", "--no-cache")
    assert code == 0
    assert "NON-POSITIVE" not in out


def test_scan_epath(capsys):
    code, out, _ = run(capsys, "scan", "--surface", "B1", "--twist", "F",
                       "--bound", "5", "--mode", "epath", "--no-cache")
    assert code == 0
    assert "VIOLATION" not in out


def test_scan_symmetry(capsys):
    code, out, _ = run(capsys, "scan", "--surface", "P2[6,0]", "--bound", "4",
                       "--mode", "symmetry", "--no-cache")
    assert code == 0


def test_chain_command(capsys):
    code, out, _ = run(capsys, *_CHAIN)
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert len(rows) == 3
    assert [int(r[1]) for r in rows] == [1, 2, 3]
    assert rows[-1][2] == "2,2,2"


def test_growth_command(capsys):
    code, out, _ = run(capsys, "growth", "--surface", "B1", "--twist", "F",
                       "--class", "-K", "--n-max", "2", "--csv", "--no-cache")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value,log_ratio"
    assert lines[1].startswith("1,4,")
    assert lines[2].startswith("2,160,")


def test_growth_rows(capsys):
    code, out, _ = run(capsys, "growth", "--surface", "B1", "--twist", "F",
                       "--class", "-K", "--n-max", "3", "--no-cache")
    assert code == 0
    assert out.splitlines() == ["1  4  ", "2  160  3.660964", "3  63488  3.355326"]


def test_cache_round_trip_and_info(capsys, tmp_path):
    path = str(tmp_path / "store.txt")
    code, cold, _ = run(capsys, "compute", "--surface", "B1", "--twist", "F",
                        "--class", "-2K", "--cache", path)
    assert code == 0
    store = cache_load(path)
    assert store
    code, warm, _ = run(capsys, "compute", "--surface", "B1", "--twist", "F",
                        "--class", "-2K", "--cache", path)
    assert warm == cold
    code, out, _ = run(capsys, "cache", "info", path)
    assert code == 0
    assert "records:" in out

    # results must be identical without any cache at all
    code, nocache, _ = run(capsys, "compute", "--surface", "B1", "--twist", "F",
                           "--class", "-2K", "--no-cache")
    assert nocache == cold


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    path = str(tmp_path / "env-store.txt")
    monkeypatch.setenv("WELSCHINGER_CACHE", path)
    code, _, _ = run(capsys, "compute", "--surface", "B1", "--twist", "F",
                     "--class", "-K")
    assert code == 0
    assert cache_load(path)


def test_byte_identical_reruns(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "compute", "--surface", "P2[2,2]",
                           "--class", "-2K", "--json", "--no-timing",
                           "--no-cache")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_corrupt_cache_is_validation_error(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("WRONG HEADER\nx\n#count=1\n")
    code, _, err = run(capsys, "compute", "--surface", "B1", "--twist", "F",
                       "--class", "-K", "--cache", str(path))
    assert code == 3
    assert "header" in err


def test_undecodable_cache_is_validation_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(CACHE_HEADER.encode() + b"\nB1|\xff\t1\n#count=1\n")
    code, out, err = run(capsys, "compute", "--surface", "B1", "--twist", "F",
                         "--class", "-K", "--cache", str(path))
    assert (code, out) == (3, "")
    assert "cannot read cache file" in err


def test_store_removed_after_an_existence_check_is_an_empty_store(capsys, tmp_path, monkeypatch):
    # a store another process removes between a check and the open
    path = str(tmp_path / "store.txt")
    exists = os.path.exists
    monkeypatch.setattr(os.path, "exists", lambda p: p == path or exists(p))
    code, out, _ = run(capsys, "compute", "--surface", "B1", "--twist", "F",
                       "--class", "-2K", "--cache", path)
    assert (code, out) == (0, "160\n")
    assert cache_load(path)


def test_cache_info_missing_file_is_validation_error(capsys, tmp_path):
    code, out, err = run(capsys, "cache", "info", str(tmp_path / "no-such-file"))
    assert (code, out) == (3, "")
    assert "cannot read cache file" in err


def test_cache_directory_is_validation_error(capsys, tmp_path):
    code, out, err = run(capsys, "compute", "--surface", "B1", "--twist", "F",
                         "--class", "-K", "--cache", str(tmp_path))
    assert (code, out) == (3, "")
    assert "cannot read cache file" in err


def test_malformed_cache_key_is_validation_error(capsys, tmp_path):
    path = tmp_path / "garbage-key.txt"
    path.write_text(
        f"{CACHE_HEADER}\nB1/tF/bd-/E1,0,0|garbage|0|1:1\t4\n#count=1\n"
    )
    for argv in (["cache", "info", str(path)],
                 ["compute", "--surface", "B1", "--twist", "F", "--class", "-K",
                  "--cache", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "malformed cache record at line 2" in err


def _two_surface_store(capsys, path):
    """A store written by B1/F and P2[2,2] runs; B1/F's lines come first."""
    for surface in (["B1", "--twist", "F"], ["P2[2,2]"]):
        code, _, _ = run(capsys, "compute", "--surface", *surface, "--class", "-K",
                         "--cache", str(path))
        assert code == 0
    lines = path.read_text().splitlines()
    assert lines[1].startswith("B1/tF/") and lines[-2].startswith("P2[2,2]/")
    return lines


# a malformed record of P2[2,2]: its surface id is whole, its class not
P22_GARBAGE = "P2[2,2]/t0/bd-/E1;1,1,0,0,0,0|garbage|0|1:1\t4"


def _append_record(path, lines, record):
    """Write the store's lines with record as its last record; its line."""
    lines = lines[:-1] + [record, f"#count={len(lines) - 1}"]
    path.write_text("\n".join(lines) + "\n")
    return len(lines) - 1


def test_malformed_own_record_after_other_surfaces_is_validation_error(
    capsys, tmp_path
):
    path = tmp_path / "store.txt"
    lines = _two_surface_store(capsys, path)
    # line 11 of the file, the sixth of P2[2,2]'s section
    lineno = _append_record(path, lines, P22_GARBAGE)
    assert lineno == 11
    code, out, err = run(capsys, "compute", "--surface", "P2[2,2]", "--class", "-K",
                         "--cache", str(path))
    assert (code, out) == (3, "")
    assert f"malformed cache record at line {lineno}" in err


def test_malformed_record_of_another_surface_is_carried(capsys, tmp_path):
    path = tmp_path / "store.txt"
    lines = _two_surface_store(capsys, path)
    _append_record(path, lines, P22_GARBAGE)
    argv = ["compute", "--surface", "B1", "--twist", "F", "--class", "-2K"]
    code, want, _ = run(capsys, *argv, "--no-cache")
    assert code == 0
    code, out, _ = run(capsys, *argv, "--cache", str(path))  # adds records
    assert (code, out) == (0, want)
    after = path.read_text().splitlines()
    assert len(after) > len(lines) + 1 and P22_GARBAGE in after
    assert cache_load(str(path), surface_ids=["B1/tF/bd-/E1,0,0"])
    code, out, err = run(capsys, "cache", "info", str(path))
    assert (code, out) == (3, "")
    assert f"malformed cache record at line {after.index(P22_GARBAGE) + 1}" in err


def test_unwritable_cache_is_validation_error(capsys, tmp_path):
    path = tmp_path / "missing-dir" / "store.txt"
    code, out, err = run(capsys, "compute", "--surface", "B1", "--twist", "F",
                         "--class", "-K", "--cache", str(path))
    assert (code, out) == (3, "")
    assert "cannot write cache file" in err
    assert list(tmp_path.iterdir()) == []


def test_failed_save_keeps_old_store(capsys, tmp_path, monkeypatch):
    path = tmp_path / "store.txt"
    argv = ["compute", "--surface", "B1", "--twist", "F", "--cache", str(path)]
    code, _, _ = run(capsys, *argv, "--class", "-K")
    assert code == 0
    written = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    code, out, err = run(capsys, *argv, "--class", "-2K")
    assert (code, out) == (3, "")
    assert "disk full" in err
    assert path.read_bytes() == written
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left


@pytest.mark.parametrize("index, reason", [("0", "the lattice has E1..E6"),
                                           ("9", "the lattice has E1..E6"),
                                           ("1", "indices 1, 2 support E")])
def test_blowdown_index_validation_names_the_reason(capsys, index, reason):
    code, out, err = run(capsys, "compute", "--surface", "P2[6,0]", "--class", "-K",
                         "--blowdown", index, "--no-cache")
    assert (code, out) == (3, "")
    assert f"cannot blow down index {index}: {reason}" in err


@pytest.mark.parametrize("text", ["-0K", "-00K"])
def test_compute_zero_multiple_is_validation_error(capsys, text):
    code, out, err = run(capsys, "compute", "--surface", "P2[6,0]",
                         "--class", text, "--no-cache")
    assert code == 3
    assert out == ""
    assert "zero class" in err


@pytest.mark.parametrize("surface, text", [("P2[6,0]", "0;0,0,0,0,0,0"),
                                           ("B1", "0,0,0")])
def test_compute_zero_coordinates_is_validation_error(capsys, surface, text):
    code, out, err = run(capsys, "compute", "--surface", surface,
                         "--class", text, "--no-cache")
    assert (code, out) == (3, "")
    assert "zero class" in err


def test_scan_blowdown_rows_in_scanned_lattice_syntax(capsys):
    # the blow-down scan runs on P2[6,0] whatever --surface says
    code, out, _ = run(capsys, "scan", "--surface", "B1", "--mode", "blowdown",
                       "--bound", "3", "--no-cache")
    assert code == 0
    rows = [line.split()[0] for line in out.strip().splitlines()]
    assert rows[:2] == ["1;0,0,0,0,0,0", "2;1,1,1,0,0,0"]
    assert all(";" in r for r in rows)


def test_scan_epath_rows_in_scanned_lattice_syntax(capsys):
    # the route comparison runs on B1 with twist F whatever --surface says
    code, out, _ = run(capsys, "scan", "--surface", "P2[6,0]", "--mode", "epath",
                       "--bound", "3", "--no-cache")
    assert code == 0
    assert out.split() == ["1,1,1", "4", "4", "ok"]


def test_warm_compute_does_not_rewrite_store(capsys, tmp_path, monkeypatch):
    path = tmp_path / "store.txt"
    argv = ["compute", "--surface", "B1", "--twist", "F", "--cache", str(path)]
    code, cold, _ = run(capsys, *argv, "--class", "-2K")
    assert code == 0
    written = path.read_bytes()
    saves = []
    monkeypatch.setattr(cli, "cache_save", lambda store, p, **_: saves.append(len(store)))
    code, warm, _ = run(capsys, *argv, "--class", "-2K")
    assert code == 0 and warm == cold
    assert saves == []
    assert path.read_bytes() == written
    # a class with keys the store lacks is still saved
    code, _, _ = run(capsys, *argv, "--class", "3,2,2")
    assert code == 0
    assert len(saves) == 1 and saves[0] > len(cache_load(str(path)))


# sha256 of `trace --no-cache` stdout for seven fixed keys.  The trace bytes
# are part of the output contract: refactoring the recursion must keep them.
# The last three split with pair items, the first of them also with l >= 1.
PINNED_TRACES = [
    (("--surface", "P2[6,0]", "--class", "-2K", "--alpha", "1:1", "--beta", "1:1"),
     30, "856", "59e56cd38b5d436d81c4ef2e446d2cfbcdc2b4122b2d856f28822fa34280adcc"),
    (("--surface", "P2[4,1]", "--class", "-2K", "--alpha", "0", "--beta", "1:2"),
     3, "522", "90a05d049dc3d2b10194b912aedc7a9e4d2cb11e0aad3f17eef48561d09305e2"),
    (("--surface", "P2[2,2]", "--class", "-2K", "--alpha", "1:2", "--beta", "0"),
     26, "84", "e2a3a130c156828e64fb4b93e4e4e7b9e1cc9bf9338d39be3e68c08be81aa755"),
    (("--surface", "B1", "--twist", "F", "--class", "-K", "--alpha", "1:1",
      "--beta", "0"),
     7, "2", "7d6f4b4fa1f08798e3fb818ba55d032d70628cc751dd26c7fce7f8ce88d30994"),
    (("--surface", "B1", "--twist", "F", "--class", "1,3,3", "--alpha", "1:5",
      "--beta", "0"),
     33, "20", "727721189fb02f10356742e5c0e5986cf67b9986b38f0eb8a6c275877b7ca2ba"),
    (("--surface", "P2[2,2]", "--class", "5;1,1,2,2,2,2", "--alpha", "1:3",
      "--beta", "0"),
     18, "6", "e0f6e0a91b6be292a7a00d3d623819fdca20f3cfb92da4bde8cf4e8781ea0506"),
    (("--surface", "P2[0,3]", "--class", "5;1,1,2,2,2,2", "--alpha", "1:3",
      "--beta", "0"),
     10, "2", "f912024837a9ec1902a73bff42ca26be7d949f5e8a62c5b7709c209a1ca3edcf"),
]


@pytest.mark.parametrize("argv,n_lines,total,digest", PINNED_TRACES)
def test_trace_bytes_pinned(capsys, argv, n_lines, total, digest):
    code, out, _ = run(capsys, "trace", *argv, "--no-cache")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == n_lines
    assert json.loads(lines[-1]) == {"total": total}
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_warm_table_does_not_rewrite_store(capsys, tmp_path, monkeypatch):
    path = tmp_path / "store.txt"
    argv = ["table", "--json", "--no-timing", "--cache", str(path)]
    code, cold, _ = run(capsys, *argv)
    assert code == 0
    written = path.read_bytes()
    saves = []
    monkeypatch.setattr(cli, "cache_save", lambda store, p: saves.append(len(store)))
    code, warm, _ = run(capsys, *argv)
    assert code == 0 and warm == cold
    assert saves == []
    assert path.read_bytes() == written


def test_epath_scan_neither_reads_nor_writes_store(capsys, tmp_path):
    path = tmp_path / "garbage.txt"
    path.write_bytes(b"not a store\n")
    code, out, _ = run(capsys, "scan", "--surface", "B1", "--twist", "F",
                       "--mode", "epath", "--bound", "3", "--cache", str(path))
    assert code == 0
    assert out.split() == ["1,1,1", "4", "4", "ok"]
    assert path.read_bytes() == b"not a store\n"


def test_symmetry_scan_neither_reads_nor_writes_store(capsys, tmp_path):
    path = tmp_path / "garbage.txt"
    path.write_bytes(b"not a store\n")
    code, out, _ = run(capsys, "scan", "--surface", "P2[6,0]", "--mode",
                       "symmetry", "--bound", "4", "--cache", str(path))
    assert code == 0
    assert out.count("ok") == 50
    assert path.read_bytes() == b"not a store\n"


def test_monotonicity_scan_below_smallest_bound(capsys):
    code, out, err = run(capsys, "scan", "--surface", "P2[6,0]", "--mode",
                         "monotonicity", "--bound", "4", "--no-cache")
    assert code == 3
    assert out == ""
    assert "at least 5" in err
    code, out, _ = run(capsys, "scan", "--surface", "P2[6,0]", "--mode",
                       "monotonicity", "--bound", "5", "--no-cache")
    assert code == 0 and out.count("ok") == 10


@pytest.mark.parametrize("surface, bound", [
    (("--surface", "P2[4,1]"), "5"),
    (("--surface", "P2[4,1]"), "8"),
    (("--surface", "P2[2,2]"), "5"),
    (("--surface", "P2[2,2]"), "8"),
    (_B1F, "5"),
], ids=["P2[4,1]-5", "P2[4,1]-8", "P2[2,2]-5", "P2[2,2]-8", "B1F-5"])
def test_monotonicity_scan_on_other_surfaces(capsys, surface, bound):
    code, out, _ = run(capsys, "scan", *surface, "--mode", "monotonicity",
                       "--bound", bound, "--no-cache")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 10 and all(row.endswith("  ok") for row in rows)


def test_monotonicity_scan_rejects_conic_bundle_model(capsys):
    # Chains do not exist on model B, whatever the bound.
    for bound in ("4", "6"):
        code, out, err = run(capsys, "scan", "--surface", "B", "--twist", "F",
                             "--mode", "monotonicity", "--bound", bound,
                             "--no-cache")
        assert code == 3
        assert out == ""
        assert "chains run on the uncontracted models" in err


def test_benchmark_tracer_patches_existing_names(monkeypatch):
    # The traced benchmark run wraps program functions by name; a renamed
    # or removed function must fail here rather than in the benchmark.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()  # getattr on every patched name raises if one is gone
    finally:
        tracer.uninstall()
