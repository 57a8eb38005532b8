"""The two workloads: their inputs, their legs and the gate on each leg.

Each workload is a closed loop with one client: `Workload.op()` runs one
operation and the next starts when it returns.  Demands are worst case
(user k asks for file k).  The library is generated here from the
workload seed and handed to the program; it never comes from the
program's own synthetic library.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from pathlib import Path

from seccache import cli, pda, scheme
from seccache.field import BinaryField

from . import gate

# The paper's worked example, (Lambda, F, Z, S) = (6, 4, 2, 4).
WORKED_PDA = """6 4 2 4
* * * 1 2 3
* 1 2 * * 4
1 * 3 * 4 *
2 3 * 4 * *
"""


@dataclass(frozen=True)
class Spec:
    name: str
    pda: str  # "mn:Lambda,t", or "worked" for the worked example
    profile: tuple[int, ...]
    files: int  # N; K = sum(profile) <= N
    file_bytes: int
    field_bits: int
    transmissions: int
    rate: Fraction
    cli: bool  # run simulate, verify, verify --strip-pads and sweep in-process
    baseline: bool = False  # also run the M = 0 scheme on the same library
    sweep_rows: int = 0
    # A simulate leg of a few milliseconds runs several times per operation,
    # so that its median rests on enough samples to be steady.
    simulate_reps: int = 1


SPECS = {
    # Payload size dominates: the byte<->symbol codec is quadratic in the
    # file size, the M = 0 leg has its own inline codec, and nothing is
    # verified.  8 KiB files give about 30 operations per 30-second run; at
    # 16 KiB a run holds 8 and its medians move by a fifth between runs.
    "bulk": Spec("bulk", "mn:6,2", (3,) * 6, 18, 8 * 1024, 8, 60, Fraction(6), False,
                 baseline=True),
    # Full-width rank checks dominate; --strip-pads fails every delivery
    # check and takes the witness-tracking elimination.
    "secrecy": Spec("secrecy", "worked", (6, 5, 4, 3, 2, 1), 21, 32, 8, 20, Fraction(10), True,
                    sweep_rows=7, simulate_reps=10),
}


def make_library(spec: Spec, seed: int) -> tuple[bytes, ...]:
    rng = random.Random(f"perfbench:{spec.name}:{seed}")
    return tuple(rng.randbytes(spec.file_bytes) for _ in range(spec.files))


def computed_sizes(session) -> dict[str, float]:
    """Sizes that follow from the session's shapes alone."""
    meta, num_files = session.meta, session.config.num_files
    fsym, l = meta.symbols_per_share, session.config.field.l
    z, sub, pairs = meta.num_random, meta.num_subfiles, len(session.transmissions)
    rand_dim = (num_files * z + pairs) * fsym
    return {
        "computed.symbols_per_share": fsym,
        "computed.cache_bits": num_files * z * fsym * l,
        "computed.keys_per_user": len(next(iter(session.user_keys.values()))),
        "computed.broadcast_bytes": pairs * -(-fsym * l // 8),
        "computed.rate": float(session.rate.rate),
        # A user's delivery check: cache shares, own keys and every broadcast,
        # against the randomness plus every other file's symbols.
        "computed.delivery_check.rows": (num_files * z + sub + pairs) * fsym,
        "computed.delivery_check.cols": rand_dim + (num_files - 1) * sub * fsym,
    }


@dataclass
class Op:
    """One operation's leg timings (samples per leg), gate errors, outputs
    and counts."""

    legs: dict[str, list[float]] = dataclass_field(default_factory=dict)
    errors: list[str] = dataclass_field(default_factory=list)
    outputs: dict[str, object] = dataclass_field(default_factory=dict)
    counts: dict[str, float] = dataclass_field(default_factory=dict)

    def time(self, leg: str, start: float) -> None:
        self.legs.setdefault(leg, []).append(time.perf_counter() - start)


class Workload:
    """Inputs and state of one workload; `close()` removes its directory."""

    def __init__(self, spec: Spec, seed: int, tmp_root: Path):
        self.spec, self.seed = spec, seed
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=tmp_root))
        self.library = make_library(spec, seed)
        field = BinaryField(spec.field_bits)
        if spec.pda == "worked":
            (self.workdir / "worked.pda").write_text(WORKED_PDA)
            self.pda = pda.load_pda(WORKED_PDA)
        else:
            lam, t = (int(x) for x in spec.pda[3:].split(","))
            self.pda = pda.mn_pda(lam, t)
        if spec.cli:
            (self.workdir / "lib").mkdir()
            for i, data in enumerate(self.library):
                (self.workdir / "lib" / f"f{i:04d}").write_bytes(data)
        num_users = sum(spec.profile)
        self.config = scheme.SystemConfig(
            num_caches=len(spec.profile), num_users=num_users, num_files=spec.files,
            helper_memory=scheme.helper_memory_for(self.pda, spec.files),
            file_bytes=spec.file_bytes, field=field, seed=seed,
        )
        self.config0 = scheme.SystemConfig(
            num_caches=len(spec.profile), num_users=num_users, num_files=spec.files,
            helper_memory=Fraction(0), file_bytes=spec.file_bytes, field=field, seed=seed,
        )

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def session(self):
        """The session the simulate leg produces."""
        return scheme.run_session(self.pda, self.config, library=self.library,
                                  profile=self.spec.profile)

    def op(self) -> Op:
        op = Op()
        for _ in range(self.spec.simulate_reps):
            if self.spec.cli:
                self._cli_simulate(op)
            else:
                self._simulate_leg(op)
        if self.spec.cli:
            self._cli_checks(op)
        if self.spec.baseline:
            self._baseline_leg(op)
        return op

    def _simulate_leg(self, op: Op) -> None:
        start = time.perf_counter()
        session = self.session()
        decoded = scheme.decode_all(session)
        errors = gate.check_decoded(decoded, self.library, session.demands)
        op.time("simulate", start)
        errors += gate.check_count("transmissions", len(session.transmissions),
                                   self.spec.transmissions)
        if session.rate.rate != self.spec.rate:
            errors.append(f"rate: got {session.rate.rate}, expected {self.spec.rate}")
        op.errors += errors
        op.outputs["decoded"] = decoded
        op.outputs["session"] = session

    def _baseline_leg(self, op: Op) -> None:
        start = time.perf_counter()
        session = scheme.one_time_pad_session(self.config0, library=self.library)
        decoded = scheme.decode_all(session)
        errors = gate.check_decoded(decoded, self.library, session.demands)
        op.time("baseline", start)
        errors += gate.check_count("baseline transmissions", len(session.transmissions),
                                   self.config0.num_users)
        op.errors += ["baseline " + e for e in errors]
        op.outputs["baseline_decoded"] = decoded

    def _cli(self, op: Op, leg: str, argv: list[str]) -> tuple[int, str]:
        """One in-process `seccache` command, run from the workload directory
        so the run directory's bytes do not depend on where it lives."""
        out, err = io.StringIO(), io.StringIO()
        here = os.getcwd()
        os.chdir(self.workdir)
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            op.time(leg, start)
        finally:
            os.chdir(here)
        if err.getvalue():
            op.errors.append(f"{leg} stderr: {err.getvalue().strip()}")
        return code, out.getvalue()

    def _cli_simulate(self, op: Op) -> None:
        spec = self.spec
        run_dir = self.workdir / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        code, _ = self._cli(op, "simulate", [
            "simulate", "--pda", "worked.pda", "--profile", self._profile_arg(),
            "--files", str(spec.files), "--bytes", str(spec.file_bytes),
            "--field", str(spec.field_bits), "--seed", str(self.seed),
            "--library", "lib", "--out", "run",
        ])
        op.errors += gate.check_count("simulate exit code", code, 0)
        files = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
        op.errors += gate.check_run_dir(files, sum(spec.profile), spec.transmissions, spec.rate)
        op.outputs["run_dir"] = files
        op.counts["cli.run_dir_bytes"] = sum(len(b) for b in files.values())

    def _profile_arg(self) -> str:
        return ",".join(str(n) for n in self.spec.profile)

    def _cli_checks(self, op: Op) -> None:
        """verify, verify --strip-pads and sweep on the last run directory."""
        spec = self.spec
        num_users, num_caches = sum(spec.profile), len(spec.profile)
        for leg, argv, strip in (("verify", ["verify", "run"], False),
                                 ("sabotage", ["verify", "run", "--strip-pads"], True)):
            code, text = self._cli(op, leg, argv)
            op.errors += [f"{leg}: {e}" for e in
                          gate.check_verify(text, code, num_users, num_caches, strip)]
            op.outputs[leg] = text

        code, text = self._cli(op, "sweep", [
            "sweep", "--profile", self._profile_arg(), "--files", str(2 * spec.files),
            "--pda", "worked.pda",
        ])
        op.errors += gate.check_count("sweep exit code", code, 0)
        op.errors += gate.check_sweep(text, spec.sweep_rows)
        op.outputs["sweep"] = text
