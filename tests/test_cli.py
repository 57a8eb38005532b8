"""CLI surface: subcommands, run directories, exit codes, reproducibility."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from seccache import BinaryField, cli, pda as pda_module, scheme
from seccache.cli import main
from seccache.pda import Pda, save_pda
from tests.conftest import WORKED_GRID, WORKED_PROFILE, make_worked_session

GOLDEN_MN3_1 = Path(__file__).parent / "data" / "golden" / "mn3_1"


@pytest.fixture
def worked_pda_file(tmp_path):
    path = tmp_path / "worked.pda"
    path.write_text(save_pda(Pda.from_grid(WORKED_GRID)))
    return path


def run(args):
    return main([str(a) for a in args])


def test_pda_validate_ok(worked_pda_file, capsys):
    assert run(["pda", "validate", worked_pda_file]) == 0
    assert "valid: Lambda=6 F=4 Z=2 S=4" in capsys.readouterr().out


def test_pda_validate_mutated(tmp_path, capsys):
    grid = [list(row) for row in WORKED_GRID]
    grid[0][3] = 2
    text = save_pda(Pda.from_grid(WORKED_GRID)).splitlines()
    text[1] = "* * * 2 2 3"
    path = tmp_path / "bad.pda"
    path.write_text("\n".join(text) + "\n")
    assert run(["pda", "validate", path]) == 1
    out = capsys.readouterr().out
    assert "invalid" in out and "C3" in out


def test_pda_validate_names_a_non_ascii_digit(tmp_path, capsys):
    path = tmp_path / "superscript.pda"
    path.write_text("2 2 1 1\n* \u00b2\n1 *\n", encoding="utf-8")
    assert run(["pda", "validate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "invalid: line 2: bad entry '\u00b2' at column 2\n"
    assert captured.err == ""


def test_pda_validate_empty(tmp_path, capsys):
    path = tmp_path / "empty.pda"
    path.write_text("")
    assert run(["pda", "validate", path]) == 1
    assert "invalid" in capsys.readouterr().out


def test_pda_mn_roundtrips(tmp_path, capsys):
    out = tmp_path / "mn.pda"
    assert run(["pda", "mn", 4, 2, "--out", out]) == 0
    assert run(["pda", "validate", out]) == 0
    assert "Lambda=4 F=6 Z=3 S=4" in capsys.readouterr().out


def test_pda_show(capsys):
    assert run(["pda", "show", "--pda", "mn:2,1"]) == 0
    out = capsys.readouterr().out
    assert "(2,2,1,1)" in out
    assert "* 1" in out and "1 *" in out


def simulate(worked_pda_file, out_dir, seed=11, extra=()):
    return run(
        [
            "simulate",
            "--pda", worked_pda_file,
            "--profile", "6,5,4,3,2,1",
            "--files", 21,
            "--bytes", 4,
            "--field", 3,
            "--seed", seed,
            "--out", out_dir,
            *extra,
        ]
    )


def test_simulate_worked_example(worked_pda_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert simulate(worked_pda_file, out) == 0
    stdout = capsys.readouterr().out
    assert "20 transmissions" in stdout and "rate 10" in stdout
    rate = json.loads((out / "rate.json").read_text())
    assert rate["num_transmissions"] == 20
    assert rate["rate"] == "10"
    assert rate["subpacketization"] == 4
    log = (out / "transmissions.log").read_text().splitlines()
    assert len(log) == 20
    assert log[0].startswith("X1,1 ")
    decode = (out / "decode.txt").read_text()
    assert decode.count("OK") == 21
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["profile"] == [6, 5, 4, 3, 2, 1]
    assert manifest["demands"] == list(range(1, 22))


def test_simulate_identical_seed_identical_bytes(worked_pda_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert simulate(worked_pda_file, a) == 0
    assert simulate(worked_pda_file, b) == 0
    assert (a / "transmissions.log").read_bytes() == (b / "transmissions.log").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_simulate_mn_uniform_rate(tmp_path, capsys):
    out = tmp_path / "mnrun"
    code = run(
        [
            "simulate", "--pda", "mn:4,2", "--profile", "1,1,1,1",
            "--files", 4, "--bytes", 2, "--seed", 5, "--out", out,
        ]
    )
    assert code == 0
    rate = json.loads((out / "rate.json").read_text())
    assert rate["rate"] == "4/3"


def test_simulate_bad_ratio_reported(tmp_path, capsys):
    code = run(
        [
            "simulate", "--pda", "mn:4,2", "--profile", "1,1,1,1",
            "--files", 4, "--demands", "1,2,3,9", "--out", tmp_path / "x",
        ]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_verify_passes(worked_pda_file, tmp_path, capsys):
    out = tmp_path / "run"
    simulate(worked_pda_file, out)
    capsys.readouterr()
    assert run(["verify", out]) == 0
    stdout = capsys.readouterr().out
    assert "RESULT: PASS" in stdout
    assert stdout.count("decode user") == 21
    assert stdout.count("cache-secrecy cache") == 6
    assert stdout.count("placement-secrecy user") == 21
    assert stdout.count("delivery-secrecy user") == 21
    assert "eavesdropper: PASS" in stdout


def test_verify_strip_pads_fails_with_witness(worked_pda_file, tmp_path, capsys):
    out = tmp_path / "run"
    simulate(worked_pda_file, out)
    capsys.readouterr()
    assert run(["verify", out, "--strip-pads"]) == 1
    stdout = capsys.readouterr().out
    assert "delivery-secrecy user 1: FAIL" in stdout
    assert "witness:" in stdout
    assert "RESULT: FAIL" in stdout


@pytest.fixture
def golden_copy(tmp_path):
    run_dir = tmp_path / "mn3_1"
    shutil.copytree(GOLDEN_MN3_1, run_dir)
    return run_dir


@pytest.mark.parametrize(
    "name, text, line",
    [
        ("transmissions.log", "garbage\n", 1),
        ("decode.txt", "user 1: MISMATCH\n", 1),
        ("rate.json", "{}\n", 1),
        ("transmissions.log", "X1,1 ee2068\n", 2),
        ("decode.txt", "", 1),
    ],
)
def test_verify_rejects_tampered_artifacts(golden_copy, name, text, line, capsys):
    (golden_copy / name).write_text(text)
    assert run(["verify", golden_copy]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} line {line} differs")


def test_verify_rejects_a_missing_artifact(golden_copy, capsys):
    (golden_copy / "rate.json").unlink()
    assert run(["verify", golden_copy, "--strip-pads"]) == 1
    assert "rate.json" in capsys.readouterr().err


def test_verify_accepts_capped_and_full_payloads(tmp_path, capsys):
    # F - Z = 1: each payload is a whole 70-byte file, logged capped at 64
    args = ["simulate", "--pda", "mn:2,1", "--profile", "1,1", "--files", 2,
            "--bytes", 70, "--seed", 3]
    capped, full = tmp_path / "capped", tmp_path / "full"
    assert run([*args, "--out", capped]) == 0
    assert run([*args, "--out", full, "--full-payloads"]) == 0
    log = (capped / "transmissions.log").read_text().splitlines()
    assert all(line.endswith(" (+6 bytes)") for line in log)
    for run_dir in (capped, full):
        assert run(["verify", run_dir]) == 0
        assert capsys.readouterr().out.endswith("RESULT: PASS\n")
    # the manifest records --full-payloads, so a log must use one rendering
    mixed = (full / "transmissions.log").read_text().splitlines()[:1] + log[1:]
    (capped / "transmissions.log").write_text("\n".join(mixed) + "\n")
    assert run(["verify", capped]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: transmissions.log line 1 differs")


@pytest.mark.parametrize("extra", [[], ["--full-payloads"]])
def test_recorded_command_line_reruns_byte_identically(tmp_path, extra):
    args = ["--pda", "mn:2,1", "--profile", "1,1", "--files", "2", "--bytes", "70"]
    first, again = tmp_path / "first", tmp_path / "again"
    assert run(["simulate", *args, *extra, "--out", first]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["full_payloads"] is bool(extra)
    assert run([*manifest["command_line"][1:], "--out", again]) == 0
    for name in ("manifest.json", "transmissions.log", "decode.txt", "rate.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.pop("seed"), "missing 'seed'"),
        (lambda m: m.pop("pda_text"), "missing 'pda_text'"),
        (lambda m: m.update(profile="2,2,1"), "'profile' must be a list of integers"),
        (lambda m: m.update(demands=[1, "2", 3, 4, 5]), "'demands' must be a list of integers"),
        (lambda m: m.update(file_bytes="5"), "'file_bytes' must be an integer"),
        (lambda m: m.update(seed=True), "'seed' must be an integer"),
        (lambda m: m.update(library_dir=7), "'library_dir' must be a string or null"),
        (lambda m: m.update(full_payloads="yes"), "'full_payloads' must be a boolean"),
        # l fixes the field, so another polynomial, even an irreducible one
        # (x^3 + x^2 + 1 here, at l = 3), names no field verify can build
        (lambda m: m.update(field_poly=0xD), "'field_poly' must be 11"),
        (lambda m: m.clear(), "missing 'pda_text'"),
    ],
)
def test_verify_rejects_malformed_manifest(golden_copy, edit, message, capsys):
    path = golden_copy / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    assert run(["verify", golden_copy]) == 1
    assert capsys.readouterr().err == f"error: manifest.json: {message}\n"


def test_verify_rejects_a_manifest_that_is_not_an_object(golden_copy, capsys):
    (golden_copy / "manifest.json").write_text("[1, 2]\n")
    assert run(["verify", golden_copy]) == 1
    assert capsys.readouterr().err == "error: manifest.json: expected a JSON object\n"


def test_verify_checks_demands_before_building_the_association(
    golden_copy, monkeypatch, capsys
):
    """A hand-edited profile of millions of users is refused by the demand
    check, before an association of that many users is built."""
    path = golden_copy / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["profile"] = [5_000_000, 1, 1]
    path.write_text(json.dumps(manifest))

    def refuse(profile):
        raise AssertionError("the association was built")

    monkeypatch.setattr(scheme.Association, "from_profile", refuse)
    assert run(["verify", golden_copy]) == 1
    assert capsys.readouterr().err == "error: demand vector length must be K\n"


def test_verify_missing_manifest(tmp_path, capsys):
    assert run(["verify", tmp_path]) == 1
    assert "manifest" in capsys.readouterr().err


def test_rate_command(worked_pda_file, capsys):
    assert run(["rate", "--pda", worked_pda_file, "--profile", "6,5,4,3,2,1"]) == 0
    assert "rate 10" in capsys.readouterr().out


def test_rate_and_sweep_charge_what_simulate_sends(worked_pda_file, tmp_path, capsys):
    """The loads of --profile are those of the PDA's columns in order, for
    every command: rate and the sweep's PDA row charge each integer the
    largest load among its columns, as the 21 broadcasts of simulate do,
    and the bound reads the loads largest first."""
    profile = "1,2,3,4,5,6"
    assert run(["rate", "--pda", worked_pda_file, "--profile", profile]) == 0
    assert capsys.readouterr().out == "rate 21/2 (10.5) = 21/2, F=4\n"
    assert run(["sweep", "--profile", profile, "--files", 42, "--pda", worked_pda_file]) == 0
    assert "42,10.5,6,4,file:worked.pda" in capsys.readouterr().out.splitlines()
    assert run(["bound", "--profile", profile, "--files", 42, "--memory", 21]) == 0
    assert capsys.readouterr().out == "bound 6 (6)\n"
    assert run(["simulate", "--pda", worked_pda_file, "--profile", profile, "--files", 21,
                "--out", tmp_path / "run"]) == 0
    simulated = capsys.readouterr().out.splitlines()[0]
    assert simulated == "simulated: 21 transmissions, rate 21/2 (10.5), F=4"


def test_bound_command(capsys):
    assert run(["bound", "--profile", "6,5,4,3,2,1", "--files", "42",
                "--memory", "21"]) == 0
    assert "bound 6" in capsys.readouterr().out


def test_bound_command_rational_memory(capsys):
    assert run(["bound", "--profile", "3,2,1", "--files", "30",
                "--memory", "21/2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("bound ")


def test_bound_has_no_user_memory_option(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["bound", "--user-memory", 2, "--profile", "2,1", "--files", 6,
             "--memory", 1])
    assert exc.value.code == 2
    assert "unrecognized arguments: --user-memory 2" in capsys.readouterr().err


def test_bound_command_tiny_library(capsys):
    assert run(["bound", "--profile", "2", "--files", "1", "--memory", "0"]) == 0
    assert "no valid cut" in capsys.readouterr().out


@pytest.mark.parametrize("args,message", [
    (["bound", "--profile", "2,1", "--files", 4, "--memory", "-1"],
     "helper memory cannot be negative"),
    (["bound", "--profile", "2,1", "--files", 4, "--memory", "1/0"],
     "bad memory '1/0': zero denominator"),
    (["bound", "--profile", "2,1", "--files", 0, "--memory", "0"], "need at least one file"),
    (["sweep", "--profile", "2,1", "--files", -3], "need at least one file"),
    (["baseline", "--profile", "3,2", "--files", 4], "worst-case demands need N >= K"),
    (["sweep", "--profile", "0,0", "--files", 4], "profile must attach at least one user"),
    (["bound", "--profile", "0", "--files", 4, "--memory", "1"],
     "profile must attach at least one user"),
    (["rate", "--pda", "mn:3,1", "--profile", "0,0,0"], "profile must attach at least one user"),
    (["rate", "--pda", "mn:30,15", "--profile", 1],
     "mn:30,15 has 4653525600 cells (C(30,15) rows x 30 columns); at most 2097152 can be built"),
    (["pda", "mn", 40, 20],
     "mn:40,20 has 5513861152800 cells (C(40,20) rows x 40 columns); "
     "at most 2097152 can be built"),
])
def test_bad_query_inputs_are_errors(args, message, capsys):
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_sweep_refuses_too_many_caches_before_building_a_grid(monkeypatch, capsys):
    """The largest grid, C(25,12) x 25 cells, is refused before mn:25,1 is built."""
    def no_subsets(*args):
        raise AssertionError("a sweep too large enumerated a grid")

    monkeypatch.setattr(pda_module, "combinations", no_subsets)
    assert run(["sweep", "--profile", ",".join(["1"] * 25), "--files", 25]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: mn:25,12 has 130007500 cells (C(25,12) rows x 25 columns); "
        "at most 2097152 can be built\n"
    )


@pytest.mark.parametrize("args,files,size", [
    (["simulate", "--pda", "mn:4,2", "--profile", "1,1,1,1", "--out", "run"], 4,
     200_000_000),
    (["baseline", "--profile", "1,1"], 2, 900_000_000),
    # ten million users: refused before a demand vector that long is built
    (["simulate", "--pda", "mn:3,1", "--profile", "10000000,1,1", "--out", "run"],
     20_000_000, 32),
])
def test_a_library_too_large_to_hold_is_refused_before_it_is_drawn(
        args, files, size, monkeypatch, tmp_path, capsys):
    def no_library(config):
        raise AssertionError("a library too large to hold was drawn")

    def no_demands(num_users, num_files):
        raise AssertionError("the demands were built before the library was checked")

    monkeypatch.setattr(scheme, "synthetic_library", no_library)
    monkeypatch.setattr(cli, "worst_case_demands", no_demands)
    monkeypatch.chdir(tmp_path)
    assert run(args + ["--files", files, "--bytes", size]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: a library of {files} x {size} bytes is larger than the "
        f"67108864 bytes a session can hold\n"
    )
    assert not (tmp_path / "run").exists()


def test_sweep_command(worked_pda_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run(
        ["sweep", "--profile", "6,5,4,3,2,1", "--files", 42,
         "--pda", worked_pda_file, "--out", out]
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "M,rate_achievable,rate_lower_bound,F,pda_id"
    assert len(lines) == 8
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        assert float(row[1]) >= float(row[2])
    ids = {row[4] for row in rows}
    assert "m0-baseline" in ids and "file:worked.pda" in ids


def test_baseline_command(capsys):
    assert run(["baseline", "--profile", "3,2", "--files", 5, "--bytes", 2,
                "--seed", 3]) == 0
    out = capsys.readouterr().out
    assert "rate 5" in out and "all users OK" in out


def test_simulate_with_library_dir(tmp_path):
    lib = tmp_path / "lib"
    lib.mkdir()
    for i in range(4):
        (lib / f"file{i}.bin").write_bytes(bytes([i * 17 % 256] * 8))
    out = tmp_path / "run"
    code = run(
        [
            "simulate", "--pda", "mn:4,2", "--profile", "1,1,1,1",
            "--files", 4, "--bytes", 8, "--seed", 1,
            "--library", lib, "--out", out,
        ]
    )
    assert code == 0
    assert run(["verify", out]) == 0


def test_a_library_file_of_the_wrong_size_is_refused_before_any_is_read(
        tmp_path, monkeypatch, capsys):
    lib = tmp_path / "lib"
    lib.mkdir()
    for i in range(4):
        (lib / f"file{i}.bin").write_bytes(bytes(9))

    def no_read(path, size):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "_read", no_read)
    out = tmp_path / "run"
    assert run(["simulate", "--pda", "mn:4,2", "--profile", "1,1,1,1", "--files", 4,
                "--bytes", 8, "--library", lib, "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error: library file {lib / 'file0.bin'} holds 9 bytes, expected 8\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("held", [7, 9, 64])
def test_a_library_file_that_changed_size_since_its_stat_is_refused(tmp_path, held):
    path = tmp_path / "file0.bin"
    path.write_bytes(bytes(held))
    with pytest.raises(ValueError) as refused:
        cli._read(str(path), 8)
    assert str(refused.value) == f"library file {path} holds {held} bytes, expected 8"
    path.write_bytes(b"12345678")
    assert cli._read(str(path), 8) == b"12345678"


def test_the_decode_checks_of_a_run_are_one_product(monkeypatch):
    """All 21 users of the worked example fit one batch: their decode
    checks are one product of the inverse's F - Z rows with the (F, 21 L)
    shares, and every user decodes its file."""
    session = make_worked_session()
    shapes, product = [], BinaryField.matmul

    def counted(field, coeffs, symbols):
        shapes.append((np.shape(coeffs), symbols.shape))
        return product(field, coeffs, symbols)

    monkeypatch.setattr(BinaryField, "matmul", counted)
    assert cli._decode_checks(session) == {user: True for user in range(1, 22)}
    assert shapes == [((2, 4), (4, 21 * session.meta.symbols_per_share))]


def test_unsorted_profile_records_cache_order(tmp_path):
    out = tmp_path / "run"
    code = run(
        [
            "simulate", "--pda", "mn:3,1", "--profile", "1,3,2",
            "--files", 6, "--bytes", 2, "--seed", 1, "--out", out,
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["profile"] == [1, 3, 2]
    assert manifest["sorted_profile"] == [3, 2, 1]
    assert manifest["cache_order"] == [2, 3, 1]
    # verify re-derives the identical session from the raw inputs
    assert run(["verify", out]) == 0
