"""Command-line frontend: PDA tooling, end-to-end simulation, secrecy
verification, rate/bound queries, and CSV sweeps.

A simulation writes a self-contained run directory (manifest.json,
transmissions.log, decode.txt, rate.json).  `simulate` derives its session
from the manifest it writes, through the same function `verify` uses, so
identical manifests give identical bytes: `verify` re-derives the whole
session from the manifest and checks that the other three files are exactly
what it regenerates, with payloads capped or in full as the manifest's
`full_payloads` records.
Exit codes: 0 only when every check the command performs passes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

from . import __version__
from .bounds import (
    cutset_bound,
    fraction_to_decimal,
    mn_sweep_pdas,
    sweep,
    sweep_csv,
)
from .field import BinaryField
from .pda import Pda, PdaError, PdaFormatError, load_pda, mn_pda, save_pda
from .scheme import (
    SystemConfig,
    decode_user,  # not called here: perfbench/tracing.py patches cli.decode_user
    decode_users,
    helper_memory_for,
    one_time_pad_session,
    rate_report,
    run_session,
    worst_case_demands,
)
from .secrecy import strip_pads, verify_session
from .sharing import symbols_to_bytes

PAYLOAD_CAP_BYTES = 64


def _parse_profile(text: str) -> tuple[int, ...]:
    try:
        profile = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad profile {text!r}: expected comma-separated integers")
    if not profile or any(n < 0 for n in profile):
        raise ValueError("profile entries must be nonnegative integers")
    if sum(profile) == 0:
        raise ValueError("profile must attach at least one user")
    return profile


def _parse_demands(text: str, num_users: int, num_files: int) -> tuple[int, ...]:
    if text == "worst-case":
        return worst_case_demands(num_users, num_files)
    try:
        demands = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad demands {text!r}")
    if len(demands) != num_users:
        raise ValueError(f"expected {num_users} demands, got {len(demands)}")
    return demands


def _parse_pda_source(source: str) -> tuple[str, Pda]:
    """A PDA reference: either 'mn:Lambda,t' or a file path."""
    if source.startswith("mn:"):
        try:
            lam, t = (int(tok) for tok in source[3:].split(","))
        except ValueError:
            raise ValueError(f"bad PDA source {source!r}: expected mn:Lambda,t")
        return source, mn_pda(lam, t)
    path = Path(source)
    return f"file:{path.name}", load_pda(path.read_text())


def _load_library(directory: str, num_files: int, file_bytes: int) -> tuple[bytes, ...]:
    """The files of directory in name order, from one scandir: every size
    is checked against file_bytes, from its entry's stat, before any file
    is read."""
    with os.scandir(directory) as entries:
        files = sorted((e for e in entries if e.is_file()), key=lambda e: e.name)
    if len(files) != num_files:
        raise ValueError(f"library dir holds {len(files)} files, expected {num_files}")
    for entry in files:
        if (size := entry.stat().st_size) != file_bytes:
            raise _size_error(entry.path, size, file_bytes)
    return tuple(_read(entry.path, file_bytes) for entry in files)


def _size_error(path: str, size: int, file_bytes: int) -> ValueError:
    return ValueError(f"library file {Path(path)} holds {size} bytes, expected {file_bytes}")


def _read(path: str, size: int) -> bytes:
    """The file's bytes, from one read of size + 1 bytes: any other
    length than size, as in a file that changed since its stat, raises the
    size error."""
    fd = os.open(path, os.O_RDONLY)
    try:
        data = os.read(fd, size + 1)
        if len(data) != size:
            raise _size_error(path, os.fstat(fd).st_size, size)
    finally:
        os.close(fd)
    return data


def _write(path: Path, text: str) -> None:
    """Make text, UTF-8 encoded, the whole content of the file at path."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(text.encode())
        while view:
            view = view[os.write(fd, view) :]
    finally:
        os.close(fd)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_manifest(manifest) -> None:
    """Raise ValueError unless the manifest holds every input verify needs."""
    if not isinstance(manifest, dict):
        raise ValueError("manifest.json: expected a JSON object")
    for keys, kind, ok in (
        (("pda_text",), "a string", lambda v: isinstance(v, str)),
        (("profile", "demands"), "a list of integers",
         lambda v: isinstance(v, list) and all(map(_is_int, v))),
        (("num_files", "file_bytes", "field_bits", "field_poly", "seed"), "an integer", _is_int),
        (("library_dir",), "a string or null", lambda v: v is None or isinstance(v, str)),
        (("full_payloads",), "a boolean", lambda v: isinstance(v, bool)),
    ):
        for key in keys:
            if key not in manifest:
                raise ValueError(f"manifest.json: missing {key!r}")
            if not ok(manifest[key]):
                raise ValueError(f"manifest.json: {key!r} must be {kind}")


def _config(num_caches: int, helper_memory, profile, num_files: int, file_bytes: int,
            field_bits: int, seed: int):
    """The SystemConfig of a run's inputs; its checks precede any build."""
    return SystemConfig(
        num_caches=num_caches,
        num_users=sum(profile),
        num_files=num_files,
        helper_memory=helper_memory,
        file_bytes=file_bytes,
        field=BinaryField(field_bits),
        seed=seed,
    )


def _session_from_manifest(manifest):
    """The session a manifest's inputs give; simulate and verify both derive
    their session here."""
    _check_manifest(manifest)
    pda = load_pda(manifest["pda_text"])
    config = _config(
        pda.num_caches, helper_memory_for(pda, manifest["num_files"]), manifest["profile"],
        manifest["num_files"], manifest["file_bytes"], manifest["field_bits"], manifest["seed"],
    )
    if manifest["field_poly"] != config.field.poly:
        raise ValueError(f"manifest.json: 'field_poly' must be {config.field.poly}")
    library_dir = manifest["library_dir"]
    library = _load_library(library_dir, config.num_files, config.file_bytes) if library_dir else None
    return run_session(
        pda,
        config,
        library=library,
        profile=tuple(manifest["profile"]),
        demands=tuple(manifest["demands"]),
    )


def _decode_checks(session) -> dict[int, bool]:
    """Whether each user decodes exactly the file it demanded.  The users
    are decoded together, a batch at a time, and each file is let go once
    it is compared."""
    library, demands, checks = session.library, session.demands, {}
    for user, data in decode_users(session, session.garray.column_users):
        checks[user] = data == library[demands[user - 1] - 1]
        del data  # not held while the next batch is decoded
    return checks


def _run_artifacts(session, decoded: dict[int, bool], full_payloads: bool) -> dict[str, str]:
    """The text of a run directory's transmissions.log, decode.txt and
    rate.json; payloads are capped at PAYLOAD_CAP_BYTES unless full_payloads.

    The broadcasts become bytes in one pass of the codec over all of them.
    A capped payload's bytes are those of its first symbols alone, so only
    the symbols that hold PAYLOAD_CAP_BYTES bytes are converted."""
    l, length = session.config.field.l, session.meta.symbols_per_share
    total = -(-length * l // 8)  # the bytes of one broadcast
    shown = total if full_payloads else min(total, PAYLOAD_CAP_BYTES)
    width = min(length, -(-8 * shown // l))
    blob = symbols_to_bytes(session.transmissions[:, :width], session.config.field)
    step = len(blob) // len(session.transmissions)
    suffix = f" (+{total - shown} bytes)" if shown < total else ""
    lines = [
        f"X{s},{i} {blob[n * step : n * step + shown].hex()}{suffix}"
        for n, (s, i) in enumerate(session.garray.pairs)
    ]
    decode_lines = [
        f"user {user}: {'OK' if good else 'MISMATCH'}" for user, good in decoded.items()
    ]
    rate = session.rate
    rate_doc = {
        "num_transmissions": rate.num_transmissions,
        "rate": str(rate.rate),
        "rate_decimal": fraction_to_decimal(rate.rate),
        "per_s_multiplicity": list(rate.per_s_multiplicity),
        "subpacketization": session.pda.num_rows,
    }
    return {
        "transmissions.log": "\n".join(lines) + "\n",
        "decode.txt": "\n".join(decode_lines) + "\n",
        "rate.json": json.dumps(rate_doc, indent=2, sort_keys=True) + "\n",
    }


def _check_artifacts(run_dir: Path, session, decoded: dict[int, bool], full_payloads: bool) -> None:
    """Raise ValueError unless the run directory holds exactly the outputs
    the session renders with the manifest's full_payloads flag."""
    for name, text in _run_artifacts(session, decoded, full_payloads).items():
        written = (run_dir / name).read_bytes().decode("utf-8", "replace").split("\n")
        for n, (got, want) in enumerate(zip_longest(written, text.split("\n")), start=1):
            if got != want:
                raise ValueError(f"{name} line {n} differs from the regenerated run: {got!r:.80}")


# -- subcommands -----------------------------------------------------------------


def cmd_pda_validate(args) -> int:
    try:
        pda = load_pda(Path(args.path).read_text())
    except (PdaError, PdaFormatError) as exc:
        print(f"invalid: {exc}")
        return 1
    p = pda.params
    print(
        f"valid: Lambda={p.num_caches} F={p.num_rows} "
        f"Z={p.stars_per_column} S={p.num_ints}"
    )
    return 0


def cmd_pda_mn(args) -> int:
    text = save_pda(mn_pda(args.caches, args.t))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_pda_show(args) -> int:
    _, pda = _parse_pda_source(args.pda)
    p = pda.params
    print(
        f"(Lambda,F,Z,S) = ({p.num_caches},{p.num_rows},"
        f"{p.stars_per_column},{p.num_ints})  Z/F = {p.memory_ratio}"
    )
    width = len(str(p.num_ints))
    for row in pda.entries:
        print(" ".join(f"{'*' if e is None else e:>{width}}" for e in row))
    return 0


def cmd_simulate(args) -> int:
    pda_id, pda = _parse_pda_source(args.pda)
    profile = _parse_profile(args.profile)
    if len(profile) != pda.num_caches:
        raise ValueError("profile length must equal the PDA's column count")
    # The config's checks, the library cap among them, precede the K demands.
    config = _config(pda.num_caches, helper_memory_for(pda, args.files), profile, args.files,
                     args.bytes, args.field, args.seed)
    demands = _parse_demands(args.demands, config.num_users, args.files)
    # The manifest records the run's raw inputs, and the session is derived
    # from them exactly as verify derives it.  --out is deliberately not
    # recorded: the run directory's location is not an input, and identical
    # inputs must give byte-identical manifests.
    command_line = [
        "seccache", "simulate",
        "--pda", args.pda,
        "--profile", args.profile,
        "--files", str(args.files),
        "--bytes", str(args.bytes),
        "--field", str(args.field),
        "--seed", str(args.seed),
        "--demands", args.demands,
    ] + (["--library", args.library] if args.library else []) + (
        ["--full-payloads"] if args.full_payloads else []
    )
    manifest = {
        "tool": "seccache",
        "version": __version__,
        "command": "simulate",
        "command_line": command_line,
        "pda_source": pda_id,
        "pda_text": save_pda(pda),
        "profile": list(profile),
        "num_files": args.files,
        "file_bytes": args.bytes,
        "field_bits": config.field.l,
        "field_poly": config.field.poly,
        "seed": args.seed,
        "demands_arg": args.demands,
        "demands": list(demands),
        "library_dir": args.library,
        "full_payloads": args.full_payloads,
        "outputs": {
            "transmissions": "transmissions.log",
            "decode": "decode.txt",
            "rate": "rate.json",
        },
    }
    session = _session_from_manifest(manifest)
    # Derived data, reported for reference only.
    manifest["sorted_profile"] = list(session.association.profile)
    manifest["cache_order"] = list(session.association.cache_order)
    manifest["helper_memory"] = str(session.config.helper_memory)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    decoded = _decode_checks(session)
    for name, text in _run_artifacts(session, decoded, args.full_payloads).items():
        _write(out / name, text)

    ok = all(decoded.values())
    rate = session.rate
    print(
        f"simulated: {rate.num_transmissions} transmissions, "
        f"rate {rate.rate} ({fraction_to_decimal(rate.rate)}), F={session.pda.num_rows}"
    )
    print(f"decode: {'all users OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    run_dir = Path(args.run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ValueError(f"no manifest.json in {run_dir}")
    manifest = json.loads(manifest_path.read_text())
    session = _session_from_manifest(manifest)
    decoded = _decode_checks(session)
    _check_artifacts(run_dir, session, decoded, manifest["full_payloads"])
    if args.strip_pads:
        session = strip_pads(session)
        decoded = _decode_checks(session)

    for user, good in decoded.items():
        print(f"decode user {user}: {'PASS' if good else 'FAIL'}")
    report = verify_session(session)
    checks = [
        *((f"cache-secrecy cache {lam}", v) for lam, v in report.cache_placement.items()),
        *((f"placement-secrecy user {u}", v) for u, v in report.user_placement.items()),
        *((f"delivery-secrecy user {u}", v) for u, v in report.user_delivery.items()),
        ("eavesdropper", report.eavesdropper),
    ]
    for name, verdict in checks:
        print(f"{name}: {'PASS' if verdict.holds else 'FAIL'}")
        if not verdict.holds:
            print(f"  witness: {verdict.witness_summary()}")
    ok = all(decoded.values()) and report.all_hold
    print(f"RESULT: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_rate(args) -> int:
    _, pda = _parse_pda_source(args.pda)
    profile = _parse_profile(args.profile)
    if len(profile) != pda.num_caches:
        raise ValueError("profile length must equal the PDA's column count")
    report = rate_report(pda, profile)
    p = pda.params
    print(
        f"rate {report.rate} ({fraction_to_decimal(report.rate)}) = "
        f"{report.num_transmissions}/{p.num_rows - p.stars_per_column}, "
        f"F={p.num_rows}"
    )
    return 0


def cmd_bound(args) -> int:
    profile = _parse_profile(args.profile)
    try:
        memory = Fraction(args.memory)
    except ZeroDivisionError:
        raise ValueError(f"bad memory {args.memory!r}: zero denominator")
    value = cutset_bound(args.files, memory, profile)
    if args.files < 2:
        print("bound 0 (fewer than two files leaves no valid cut)")
        return 0
    print(f"bound {value} ({fraction_to_decimal(value)})")
    return 0


def cmd_sweep(args) -> int:
    profile = _parse_profile(args.profile)
    pdas = mn_sweep_pdas(len(profile))
    for extra in args.pda or []:
        pda_id, pda = _parse_pda_source(extra)
        pdas[pda_id] = pda
    points = sweep(args.files, profile, pdas)
    text = sweep_csv(points)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(points)} points to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_baseline(args) -> int:
    profile = _parse_profile(args.profile)
    config = _config(len(profile), Fraction(0), profile, args.files, args.bytes, args.field,
                     args.seed)
    demands = _parse_demands(args.demands, config.num_users, args.files)
    session = one_time_pad_session(config, profile=profile, demands=demands)
    ok = all(_decode_checks(session).values())
    print(f"rate {session.rate.rate} with {session.rate.num_transmissions} transmissions")
    print(f"decode: {'all users OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seccache",
        description="secretive coded caching over shared caches, driven by PDAs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pda_cmd = sub.add_parser("pda", help="PDA tooling")
    pda_sub = pda_cmd.add_subparsers(dest="pda_command", required=True)
    v = pda_sub.add_parser("validate", help="validate a PDA file")
    v.add_argument("path")
    v.set_defaults(func=cmd_pda_validate)
    m = pda_sub.add_parser("mn", help="emit a subset-family PDA")
    m.add_argument("caches", type=int)
    m.add_argument("t", type=int)
    m.add_argument("--out")
    m.set_defaults(func=cmd_pda_mn)
    s = pda_sub.add_parser("show", help="print a PDA grid")
    s.add_argument("--pda", required=True, help="path or mn:Lambda,t")
    s.set_defaults(func=cmd_pda_show)

    def common_sim_args(p):
        p.add_argument("--profile", required=True, help="comma-separated user counts")
        p.add_argument("--files", type=int, required=True, help="library size N")
        p.add_argument("--bytes", type=int, default=32, help="file size in bytes")
        p.add_argument("--field", type=int, default=8, help="symbol width l (GF(2^l))")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--demands", default="worst-case", help="'worst-case' or d1,d2,...")

    sim = sub.add_parser("simulate", help="run the four phases end to end")
    sim.add_argument("--pda", required=True, help="path or mn:Lambda,t")
    common_sim_args(sim)
    sim.add_argument("--out", required=True, help="run directory")
    sim.add_argument("--library", help="directory of N equal-length files")
    sim.add_argument("--full-payloads", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="re-derive a run and check everything")
    ver.add_argument("run_dir")
    ver.add_argument("--strip-pads", action="store_true",
                     help="sabotage: check the broadcasts with the one-time pads removed")
    ver.set_defaults(func=cmd_verify)

    rate = sub.add_parser("rate", help="worst-case rate for a PDA and profile")
    rate.add_argument("--pda", required=True)
    rate.add_argument("--profile", required=True)
    rate.set_defaults(func=cmd_rate)

    bound = sub.add_parser("bound", help="cut-set lower bound")
    bound.add_argument("--profile", required=True)
    bound.add_argument("--files", type=int, required=True)
    bound.add_argument("--memory", required=True, help="helper memory M (rational)")
    bound.set_defaults(func=cmd_bound)

    sw = sub.add_parser("sweep", help="rate-memory sweep CSV")
    sw.add_argument("--profile", required=True)
    sw.add_argument("--files", type=int, required=True)
    sw.add_argument("--pda", action="append", help="extra PDA (repeatable)")
    sw.add_argument("--out")
    sw.set_defaults(func=cmd_sweep)

    base = sub.add_parser("baseline", help="M=0 one-time-pad delivery")
    common_sim_args(base)
    base.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
