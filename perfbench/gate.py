"""Correctness gate.

Every check is a pure function over outputs the benchmark captured from the
program, and returns a list of error strings; an empty list means the output
is correct.  An operation with any error counts as failed.
"""

from __future__ import annotations

import json
from fractions import Fraction

SWEEP_HEADER = "M,rate_achievable,rate_lower_bound,F,pda_id"


def check_count(what: str, got: int, want: int) -> list[str]:
    return [] if got == want else [f"{what}: got {got}, expected {want}"]


def check_decoded(decoded, library, demands) -> list[str]:
    """Every user's decoded file equals its demanded file, byte for byte."""
    errors = check_count("decoded users", len(decoded), len(demands))
    for user, got in sorted(decoded.items()):
        want = library[demands[user - 1] - 1]
        if got != want:
            errors.append(f"user {user}: decoded file differs from file {demands[user - 1]}")
    return errors


def check_run_dir(files: dict[str, bytes], num_users: int,
                  transmissions: int, rate: Fraction) -> list[str]:
    """The run directory `simulate` wrote: the rate record and the decode log."""
    missing = {"manifest.json", "transmissions.log", "decode.txt", "rate.json"} - set(files)
    if missing:
        return [f"run directory lacks {sorted(missing)}"]
    doc = json.loads(files["rate.json"])
    errors = check_count("transmissions", doc["num_transmissions"], transmissions)
    if Fraction(doc["rate"]) != rate:
        errors.append(f"rate: got {doc['rate']}, expected {rate}")
    errors += check_count("transmission log lines",
                          len(files["transmissions.log"].decode().splitlines()), transmissions)
    want = [f"user {u}: OK" for u in range(1, num_users + 1)]
    if sorted(files["decode.txt"].decode().splitlines()) != sorted(want):
        errors.append("decode.txt: not every user decoded OK")
    return errors


def expected_verdicts(num_users: int, num_caches: int, strip_pads: bool) -> dict:
    """The verdict of every line `seccache verify` prints.

    With pads stripped every user's decode and delivery-secrecy check fails,
    and the placement, cache and eavesdropper checks still pass.
    """
    bad = "FAIL" if strip_pads else "PASS"
    out = {}
    for u in range(1, num_users + 1):
        out[f"decode user {u}"] = bad
        out[f"placement-secrecy user {u}"] = "PASS"
        out[f"delivery-secrecy user {u}"] = bad
    for lam in range(1, num_caches + 1):
        out[f"cache-secrecy cache {lam}"] = "PASS"
    out["eavesdropper"] = "PASS"
    out["RESULT"] = bad
    return out


def check_verify(text: str, exit_code: int, num_users: int, num_caches: int,
                 strip_pads: bool) -> list[str]:
    """`seccache verify` output: every verdict line and the exit code."""
    errors = check_count("verify exit code", exit_code, 1 if strip_pads else 0)
    got: dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("  witness:"):
            continue
        key, sep, verdict = line.rpartition(": ")
        if not sep or key in got:
            errors.append(f"unexpected verify line {line!r}")
            continue
        got[key] = verdict
    want = expected_verdicts(num_users, num_caches, strip_pads)
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            errors.append(f"{key}: got {got.get(key)}, expected {want.get(key)}")
    witnesses = sum(line.startswith("  witness:") for line in text.splitlines())
    errors += check_count("witness lines", witnesses, num_users if strip_pads else 0)
    return errors


def check_sweep(text: str, rows: int) -> list[str]:
    """Sweep CSV: the header, the row count, and achievable >= lower bound."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return [f"sweep header: got {lines[:1]}"]
    errors = check_count("sweep rows", len(lines) - 1, rows)
    for line in lines[1:]:
        _, achievable, lower, *_ = line.split(",")
        if Fraction(achievable) < Fraction(lower):
            errors.append(f"sweep row {line!r}: achievable below the lower bound")
    return errors
