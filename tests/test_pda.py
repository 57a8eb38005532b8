"""PDA validation, the subset-family constructor, the occurrence table, and text I/O."""

from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seccache import pda as pda_module
from seccache.pda import (
    C1Violation,
    C2Violation,
    C3Violation,
    Pda,
    PdaError,
    PdaFormatError,
    load_pda,
    mn_pda,
    save_pda,
    validate,
)
from tests.conftest import WORKED_GRID, random_pdas


def oracle_mn_grid(num_caches, t):
    """Direct re-derivation of the subset-family array with its own
    ranking (enumerate-then-index, not arithmetic rank)."""
    subsets_t = list(combinations(range(1, num_caches + 1), t))
    subsets_t1 = list(combinations(range(1, num_caches + 1), t + 1))
    grid = []
    for row_set in subsets_t:
        row = []
        for lam in range(1, num_caches + 1):
            if lam in row_set:
                row.append(None)
            else:
                merged = tuple(sorted(set(row_set) | {lam}))
                row.append(subsets_t1.index(merged) + 1)
        grid.append(tuple(row))
    return tuple(grid)


def test_worked_grid_validates():
    params = validate(WORKED_GRID)
    assert (
        params.num_caches,
        params.num_rows,
        params.stars_per_column,
        params.num_ints,
    ) == (6, 4, 2, 4)


def test_all_star_grid_fails_c2():
    with pytest.raises(C2Violation):
        validate([[None] * 3 for _ in range(2)])


def test_mutated_worked_grid_fails_c3():
    grid = [list(row) for row in WORKED_GRID]
    grid[0][3] = 2  # row 1, column 4: now two 2s in row 1
    with pytest.raises(C3Violation) as exc:
        validate(grid)
    assert exc.value.value == 2
    assert {exc.value.first, exc.value.second} == {(1, 4), (1, 5)}


def test_missing_cross_star_fails_c3():
    # equal integers in distinct rows/columns but a non-star cross entry
    grid = (
        (1, 2),
        (2, 1),
    )
    with pytest.raises(C3Violation):
        validate(grid)


def test_unequal_star_counts_fail_c1():
    grid = (
        (None, 1),
        (1, 2),
    )
    with pytest.raises(C1Violation) as exc:
        validate(grid)
    assert exc.value.column == 2


def test_gapped_integers_fail_c2():
    grid = (
        (None, 1),
        (3, None),
    )
    with pytest.raises(C2Violation) as exc:
        validate(grid)
    assert exc.value.missing == 2


def test_no_star_grid_rejected():
    with pytest.raises(PdaError):
        validate(((1, 2),))


def test_bad_entries_rejected():
    with pytest.raises(PdaError):
        validate(((0, 1), (1, None)))
    with pytest.raises(PdaError):
        validate(())


def test_mn_small_cases():
    pda = mn_pda(4, 2)
    p = pda.params
    assert (p.num_caches, p.num_rows, p.stars_per_column, p.num_ints) == (4, 6, 3, 4)
    two = mn_pda(2, 1)
    assert two.entries == ((None, 1), (1, None))


@pytest.mark.parametrize("num_caches", range(2, 7))
def test_mn_matches_independent_derivation(num_caches):
    for t in range(1, num_caches):
        assert mn_pda(num_caches, t).entries == oracle_mn_grid(num_caches, t)


@pytest.mark.parametrize("num_caches", range(2, 9))
def test_mn_parameters_and_multiplicity(num_caches):
    for t in range(1, num_caches):
        pda = mn_pda(num_caches, t)
        p = pda.params
        assert p.num_rows == comb(num_caches, t)
        assert p.stars_per_column == comb(num_caches - 1, t - 1)
        assert p.num_ints == comb(num_caches, t + 1)
        for s in range(1, p.num_ints + 1):
            assert len(pda.occurrences[s - 1]) == t + 1


def test_mn_range_errors():
    with pytest.raises(ValueError):
        mn_pda(4, 0)
    with pytest.raises(ValueError):
        mn_pda(4, 4)
    with pytest.raises(ValueError):
        mn_pda(1, 1)


def test_mn_refuses_a_grid_too_large_before_building_it(monkeypatch):
    def no_subsets(*args):
        raise AssertionError("a grid too large was enumerated")

    monkeypatch.setattr(pda_module, "combinations", no_subsets)
    with pytest.raises(ValueError, match=r"mn:30,15 has 4653525600 cells"):
        mn_pda(30, 15)
    monkeypatch.undo()
    monkeypatch.setattr(pda_module, "MN_MAX_CELLS", 24)
    assert mn_pda(4, 2).params.num_rows == 6  # 6 x 4 = 24 cells
    with pytest.raises(ValueError, match="at most 24 can be built"):
        mn_pda(5, 2)


def test_s_at_most_lambda_times_f_minus_z():
    for num_caches in range(2, 8):
        for t in range(1, num_caches):
            p = mn_pda(num_caches, t).params
            assert p.num_ints <= p.num_caches * (p.num_rows - p.stars_per_column)


@settings(max_examples=60, deadline=None)
@given(pda=random_pdas())
def test_occurrence_table_matches_the_per_integer_scan(pda):
    """The one-pass table lists, for every s, the positions a column-major
    scan of the grid finds for s."""
    for s in range(1, pda.params.num_ints + 1):
        scan = tuple(
            (j, k)
            for k in range(1, pda.num_caches + 1)
            for j in range(1, pda.num_rows + 1)
            if pda.entries[j - 1][k - 1] == s
        )
        assert pda.occurrences[s - 1] == scan


def test_occurrence_subgrids_are_scaled_identity():
    # Wherever an integer occurs m times, the induced m x m sub-grid is
    # that integer on the diagonal and stars everywhere else.
    for pda in (Pda.from_grid(WORKED_GRID), mn_pda(5, 2), mn_pda(6, 3)):
        for s in range(1, pda.params.num_ints + 1):
            occ = pda.occurrences[s - 1]
            for a, (j1, k1) in enumerate(occ):
                for b, (j2, k2) in enumerate(occ):
                    entry = pda.entries[j1 - 1][k2 - 1]
                    assert entry == (s if a == b else None)


def test_permute_columns(worked_pda):
    permuted = worked_pda.permute_columns((2, 1, 3, 4, 5, 6))
    columns = list(zip(*worked_pda.entries))
    assert list(zip(*permuted.entries)) == [columns[1], columns[0], *columns[2:]]
    assert permuted.params == worked_pda.params
    with pytest.raises(ValueError):
        worked_pda.permute_columns((1, 1, 2, 3, 4, 5))


@settings(max_examples=60, deadline=None)
@given(pda=random_pdas(), data=st.data())
def test_permuted_columns_keep_the_parameters_without_revalidating(pda, data):
    """A column permutation keeps C1-C3 and (Lambda, F, Z, S), so the new
    PDA carries the old parameters, and they are what validate finds."""
    order = data.draw(st.permutations(range(1, pda.num_caches + 1)))
    with mock.patch.object(pda_module, "validate", side_effect=AssertionError("revalidated")):
        permuted = pda.permute_columns(order)
    assert permuted.params is pda.params
    assert validate(permuted.entries) == permuted.params
    columns = list(zip(*pda.entries))
    assert list(zip(*permuted.entries)) == [columns[c - 1] for c in order]


# -- text format ---------------------------------------------------------------


def worked_text():
    return save_pda(Pda.from_grid(WORKED_GRID))


def test_save_format_exact():
    assert worked_text() == (
        "6 4 2 4\n"
        "* * * 1 2 3\n"
        "* 1 2 * * 4\n"
        "1 * 3 * 4 *\n"
        "2 3 * 4 * *\n"
    )


def test_load_save_roundtrip():
    pda = load_pda(worked_text())
    assert pda.entries == WORKED_GRID
    assert save_pda(pda) == worked_text()


def test_load_accepts_comments_and_star_symbol():
    text = "# comment\n2 2 1 1\n⋆ 1\n1 *\n"
    pda = load_pda(text)
    assert pda.entries == ((None, 1), (1, None))


def test_load_ragged_row_names_the_row():
    text = "6 4 2 4\n* * * 1 2 3\n* 1 2 * *\n1 * 3 * 4 *\n2 3 * 4 * *\n"
    with pytest.raises(PdaFormatError, match="row 2"):
        load_pda(text)


def test_load_header_mismatch():
    text = worked_text().replace("6 4 2 4", "6 4 3 4")
    with pytest.raises(PdaFormatError, match="header"):
        load_pda(text)


def test_load_empty_and_garbage():
    with pytest.raises(PdaFormatError):
        load_pda("")
    with pytest.raises(PdaFormatError):
        load_pda("not a header\n")
    with pytest.raises(PdaFormatError, match="bad entry"):
        load_pda("2 2 1 1\n* x\n1 *\n")


@pytest.mark.parametrize("text, message", [
    ("2 2 1 1\n* \u00b2\n1 *\n", "line 2: bad entry '\u00b2' at column 2"),
    ("2 2 1 1\n* \u0661\n\u0661 *\n", "line 2: bad entry '\u0661' at column 2"),
    ("\uff12 2 1 1\n* 1\n1 *\n", "line 1: header must be four integers"),
    ("+2 2 1 1\n* 1\n1 *\n", "line 1: header must be four integers"),
], ids=["superscript-two", "arabic-indic-one", "full-width-header", "signed-header"])
def test_load_reads_only_ascii_decimals(text, message):
    with pytest.raises(PdaFormatError, match=message):
        load_pda(text)


def test_load_validates_grid():
    text = "2 2 1 2\n* 1\n2 *\n"  # integer 2 occurs, 1..2 present? swap to break C3
    pda = load_pda(text)
    assert pda.params.num_ints == 2
    bad = "2 2 1 1\n* 1\n* 1\n"  # two 1s in one column
    with pytest.raises(PdaError):
        load_pda(bad)


@settings(max_examples=60, deadline=None)
@given(pda=random_pdas())
def test_random_pdas_are_valid(pda):
    params = validate(pda.entries)
    assert params == pda.params
    assert {e for row in pda.entries for e in row if e is not None} == set(
        range(1, params.num_ints + 1)
    )
