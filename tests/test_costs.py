"""Exact work counts of decoding and verifying two subset-family sessions:
the eliminations `BinaryField.echelon` and the secrecy module's `_echelon`
run, the cells of the matrices they eliminate, the cells their row updates
(`BinaryField.scaled_outer`) write, and the field products
`BinaryField.matmul` computes.  A change that adds work to these paths
moves a count here; one that removes work re-pins it on purpose.

The shapes are mn:10,3 (F = 120, Z = 36) and mn:12,4 (F = 495, Z = 165),
two users a cache, N = K, at GF(2^16) with 2-byte files and seed 3."""

import pytest

from seccache import secrecy, sharing
from seccache.field import BinaryField
from seccache.pda import mn_pda
from seccache.scheme import SystemConfig, decode_all, helper_memory_for, run_session


@pytest.fixture(scope="module")
def sessions():
    """mn:Lambda,t -> its session, built once for the module."""
    out = {}
    for num_caches, t in ((10, 3), (12, 4)):
        pda = mn_pda(num_caches, t)
        k = 2 * num_caches
        config = SystemConfig(num_caches, k, k, helper_memory_for(pda, k), 2,
                              field=BinaryField(16), seed=3)
        out[f"mn:{num_caches},{t}"] = run_session(pda, config, profile=(2,) * num_caches)
    return out


@pytest.fixture
def counted(monkeypatch):
    """Counts of eliminations, eliminated cells, field products and the
    cells the eliminations' row updates write while the test runs.
    secrecy._echelon is bound at import, so it is wrapped apart from
    BinaryField.echelon."""
    counts = {"eliminations": 0, "cells": 0, "products": 0, "updated": 0}
    echelon, matmul, secrecy_echelon = BinaryField.echelon, BinaryField.matmul, secrecy._echelon
    scaled_outer = BinaryField.scaled_outer

    def count_elimination(kernel):
        def wrapped(field, mat, pivot_cols):
            counts["eliminations"] += 1
            counts["cells"] += mat.size
            return kernel(field, mat, pivot_cols)
        return wrapped

    def count_product(field, coeffs, symbols):
        counts["products"] += 1
        return matmul(field, coeffs, symbols)

    def count_update(field, factors, row):
        counts["updated"] += len(factors) * len(row)
        return scaled_outer(field, factors, row)

    monkeypatch.setattr(BinaryField, "echelon", count_elimination(echelon))
    monkeypatch.setattr(BinaryField, "scaled_outer", count_update)
    monkeypatch.setattr(secrecy, "_echelon", count_elimination(secrecy_echelon))
    monkeypatch.setattr(BinaryField, "matmul", count_product)
    return counts


def clean_verify(session):
    assert secrecy.verify_session(session).all_hold


def cold_decode(session):
    sharing._cached_inverse.cache_clear()
    assert decode_all(session) == {
        user: session.library[d - 1] for user, d in enumerate(session.demands, start=1)
    }


def strip_pads_verify(session):
    assert not secrecy.verify_session(secrecy.strip_pads(session)).all_hold


# Cells written by the eliminations' row updates, rows x columns of each
# `scaled_outer`; a run with no elimination writes none.  An inverse
# updates n (n - 1) rows of 2n cells in its two forward passes, as one
# Gauss-Jordan pass did.
UPDATED = {
    ("mn:10,3", "cold_decode"): 120 * 119 * 240,
    ("mn:10,3", "strip_pads_verify"): 29_908_800,
    ("mn:12,4", "cold_decode"): 495 * 494 * 990,
}


# The mn:12,4 strip-pads verify takes about ten seconds, so it is not
# pinned.  An inverse is two forward passes over [A | I], so a cold decode
# eliminates twice and each cache with a failing user adds two Z x 2Z
# eliminations.
@pytest.mark.parametrize("shape, run, eliminations, cells, products", [
    ("mn:10,3", clean_verify, 0, 0, 0),
    ("mn:10,3", cold_decode, 2, 2 * 120 * 240, 20),
    ("mn:10,3", strip_pads_verify, 21, 530_640, 10),
    ("mn:12,4", clean_verify, 0, 0, 0),
    ("mn:12,4", cold_decode, 2, 2 * 495 * 990, 24),
], ids=lambda v: getattr(v, "__name__", None))
def test_decoding_and_verifying_cost_what_they_cost_today(
    sessions, counted, shape, run, eliminations, cells, products
):
    run(sessions[shape])
    assert counted == {"eliminations": eliminations, "cells": cells, "products": products,
                       "updated": UPDATED.get((shape, run.__name__), 0)}
