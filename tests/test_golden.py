"""Golden outputs: run directories, verify verdicts and M = 0 broadcasts
recorded once and regenerated byte for byte, so a change to the RNG stream,
the byte<->symbol codec or an output format cannot pass unnoticed."""

import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from seccache import BinaryField, SystemConfig
from seccache.cli import main
from seccache.pda import Pda, save_pda
from seccache.scheme import one_time_pad_session
from tests.conftest import WORKED_GRID

GOLDEN = Path(__file__).parent / "data" / "golden"
RUN_FILES = ("manifest.json", "transmissions.log", "decode.txt", "rate.json")

# simulate arguments for each golden run directory (--out is the key); the
# worked example is read from a relative worked.pda in the working directory.
RUNS = {
    "worked": ["--pda", "worked.pda", "--profile", "6,5,4,3,2,1", "--files", "21",
               "--bytes", "4", "--field", "8", "--seed", "7"],
    "mn3_1": ["--pda", "mn:3,1", "--profile", "2,2,1", "--files", "5",
              "--bytes", "5", "--field", "3", "--full-payloads"],
    "mn4_2": ["--pda", "mn:4,2", "--profile", "3,2,2,1", "--files", "8",
              "--bytes", "9", "--field", "12", "--full-payloads"],
    "mn4_2_l16": ["--pda", "mn:4,2", "--profile", "1,3,2,2", "--files", "9",
                  "--bytes", "9", "--field", "16", "--seed", "3", "--full-payloads"],
}

# verify flags -> (file holding the expected stdout, expected exit code)
VERDICTS = {
    (): ("verify.stdout", 0),
    ("--strip-pads",): ("verify-strip-pads.stdout", 1),
}

# sha256 of m0_digest's transmission listing, per symbol width l.
M0_DIGESTS = {
    3: "ea6b53dbde56f7605296bb2463ecf551ba67690213542d91c05e923f953054c7",
    8: "cacb2b36ae392f67e55653aca47d4b5477fb6672999893f4ba6c4a44729a9731",
    12: "19532ae9b5bad7895cab40561391edef92e6f8e213413fca04c70786567b88c9",
    16: "017a9abd8c809da823f34f4dd000e951e7c6a84c9f89435bffb9c17a5c889aff",
}


def m0_digest(l: int) -> str:
    """Digest of the M = 0 broadcasts for 5-byte files (padded at l = 3, 12, 16)."""
    config = SystemConfig(
        num_caches=3, num_users=6, num_files=7, helper_memory=Fraction(0),
        file_bytes=5, field=BinaryField(l), seed=7,
    )
    session = one_time_pad_session(config, profile=(1, 3, 2))
    listing = [(pair, payload.tolist())
               for pair, payload in zip(session.garray.pairs, session.transmissions)]
    return hashlib.sha256(repr(listing).encode()).hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    (tmp_path / "worked.pda").write_text(save_pda(Pda.from_grid(WORKED_GRID)))
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulate_regenerates_golden_run(name, workdir, capsys):
    assert main(["simulate", *RUNS[name], "--out", name]) == 0
    for fname in RUN_FILES:
        got = (workdir / name / fname).read_bytes()
        assert got == (GOLDEN / name / fname).read_bytes(), f"{name}/{fname}"


@pytest.mark.parametrize("flags", sorted(VERDICTS))
@pytest.mark.parametrize("name", sorted(RUNS))
def test_verify_verdicts_match_golden(name, flags, capsys):
    fname, code = VERDICTS[flags]
    assert main(["verify", str(GOLDEN / name), *flags]) == code
    assert capsys.readouterr().out == (GOLDEN / name / fname).read_text()


@pytest.mark.parametrize("l", sorted(M0_DIGESTS))
def test_one_time_pad_transmissions_match_golden(l):
    assert m0_digest(l) == M0_DIGESTS[l]
