"""Cut-set bound, optimality gap, and sweep/CSV behavior."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seccache import Pda, mn_pda
from seccache.bounds import (
    CSV_HEADER,
    cutset_bound,
    cutset_terms,
    fraction_to_decimal,
    lambda_of_s,
    mn_sweep_pdas,
    optimality_ratio,
    sweep,
    sweep_csv,
)
from seccache.scheme import Association, rate_report
from tests.conftest import WORKED_GRID, WORKED_PROFILE, unit_cache_bound_terms


def cumulative_oracle(profile, s):
    """Enumerate users cache-by-cache and read off the s-th user's cache."""
    users = [lam for lam, load in enumerate(profile, start=1) for _ in range(load)]
    return users[s - 1]


def test_lambda_of_s_worked_profile():
    assert lambda_of_s(WORKED_PROFILE, 6) == 1
    assert lambda_of_s(WORKED_PROFILE, 7) == 2
    for s in range(1, 22):
        assert lambda_of_s(WORKED_PROFILE, s) == cumulative_oracle(WORKED_PROFILE, s)


def test_lambda_of_s_uniform_and_bounds():
    ones = (1, 1, 1, 1)
    for s in range(1, 5):
        assert lambda_of_s(ones, s) == s
    assert lambda_of_s((3, 2, 0), 5) == 2  # s = K hits the last nonempty cache
    with pytest.raises(ValueError):
        lambda_of_s(ones, 5)
    assert lambda_of_s((1, 2), 1) == 1  # the loads are read largest first


def test_lambda_of_s_nondecreasing():
    profile = (5, 3, 3, 1)
    values = [lambda_of_s(profile, s) for s in range(1, 13)]
    assert values == sorted(values)


nonincreasing_profiles = (
    st.lists(st.integers(0, 6), min_size=1, max_size=8)
    .map(lambda loads: tuple(sorted(loads, reverse=True)))
    .filter(lambda profile: sum(profile) > 0)
)


@settings(max_examples=200, deadline=None)
@given(
    profile=nonincreasing_profiles,
    num_files=st.integers(1, 60),
    memory=st.fractions(min_value=0, max_value=40, max_denominator=9),
)
def test_cutset_terms_take_each_lambda_of_s(profile, num_files, memory):
    # zero-load caches included: the s-th user skips them
    terms = cutset_terms(num_files, memory, profile)
    assert [s for s, _ in terms] == list(range(1, min(num_files // 2, sum(profile)) + 1))
    for s, value in terms:
        per = num_files // s
        lam_s = lambda_of_s(profile, s)
        want = Fraction(s * per - 1 - (lam_s - 1) * memory - (s - 1), per - 1)
        assert value == max(want, Fraction(0))


@settings(max_examples=200, deadline=None)
@given(
    loads=st.lists(st.integers(0, 6), min_size=1, max_size=8).filter(lambda loads: sum(loads) > 0),
    num_files=st.integers(1, 60),
    memory=st.fractions(min_value=0, max_value=40, max_denominator=9),
)
def test_the_bound_reads_the_loads_largest_first_in_any_order(loads, num_files, memory):
    ordered = tuple(sorted(loads, reverse=True))
    assert cutset_bound(num_files, memory, loads) == cutset_bound(num_files, memory, ordered)
    for s in range(1, sum(loads) + 1):
        assert lambda_of_s(loads, s) == cumulative_oracle(ordered, s)


@pytest.mark.parametrize("use,ordered", [
    (lambda profile: lambda_of_s(profile, 1), False),
    (lambda profile: cutset_terms(4, 1, profile), False),
    (lambda profile: Association(profile, ((1,), (2, 3)), (1, 2, 2), (1, 2)), True),
    (lambda profile: rate_report(mn_pda(2, 1), profile), False),
], ids=["lambda_of_s", "cutset_terms", "Association", "rate_report"])
def test_every_profile_reader_needs_it_nonincreasing(use, ordered):
    """Of the profile's readers, only the association, which relabels the
    caches by load, needs the loads nonincreasing; the others take them in
    any order, and (1, 2) gives what (2, 1) gives."""
    if ordered:
        with pytest.raises(ValueError, match="^profile must be nonincreasing$"):
            use((1, 2))
    else:
        assert use((1, 2)) == use((2, 1))


def test_bound_at_zero_memory_is_min_half_n_k():
    for n, k in [(10, 3), (10, 40), (7, 7), (2, 1)]:
        profile = (k,)
        got = cutset_bound(n, 0, profile)
        assert got == min(n // 2, k)


def test_bound_single_user_two_files():
    assert cutset_bound(2, 0, (1,)) == 1


def test_bound_no_valid_cut_is_zero():
    assert cutset_bound(1, 2, (3,)) == 0


def test_bound_at_least_l1_when_library_is_big():
    # with N >= 2K the cut at s = L1 costs nothing in helper memory
    for profile, n, m in [
        (WORKED_PROFILE, 42, 21),
        ((4, 4, 4, 3, 3, 3), 42, 100),
        ((3, 1), 8, 5),
    ]:
        k = sum(profile)
        assert n >= 2 * k
        assert cutset_bound(n, m, profile) >= profile[0]


def test_unit_user_cache_reduction_is_exact():
    rng = random.Random(5)
    for _ in range(20):
        num_caches = rng.randint(1, 6)
        raw = sorted((rng.randint(0, 6) for _ in range(num_caches)), reverse=True)
        if sum(raw) == 0:
            raw[0] = 1
        profile = tuple(raw)
        k = sum(profile)
        n = rng.randint(2, 50)
        m = Fraction(rng.randint(0, 80), rng.randint(1, 9))
        general = cutset_terms(n, m, profile)
        reduced = unit_cache_bound_terms(n, k, m, profile)
        assert general == reduced


def test_bound_monotone_in_memory():
    profile = (4, 3, 2)
    n = 30
    values = [cutset_bound(n, m, profile) for m in (0, 1, 2, 5, 10, 100)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_optimality_ratio_within_lambda():
    worked = Pda.from_grid(WORKED_GRID)
    cases = [
        (worked, 42, WORKED_PROFILE),
        (mn_pda(4, 2), 30, (4, 4, 4, 3)),
        (mn_pda(3, 1), 12, (2, 2, 2)),
        (mn_pda(5, 3), 40, (6, 5, 4, 3, 2)),
    ]
    for pda, n, profile in cases:
        k = sum(profile)
        assert n >= 2 * k
        report = optimality_ratio(pda, n, profile)
        assert report.gap_bound_applies
        assert 1 <= report.ratio <= pda.num_caches
        assert report.ratio <= Fraction(k, profile[0])


def test_optimality_ratio_flags_small_library():
    report = optimality_ratio(mn_pda(3, 1), 6, (2, 2, 2))
    assert not report.gap_bound_applies
    assert report.ratio >= 1


# -- sweeps ---------------------------------------------------------------------


def worked_sweep():
    pdas = mn_sweep_pdas(6)
    pdas["file:worked"] = Pda.from_grid(WORKED_GRID)
    return sweep(42, WORKED_PROFILE, pdas)


def test_sweep_memory_points():
    points = worked_sweep()
    memories = sorted({pt.memory for pt in points})
    n = 42
    expected = sorted(
        {Fraction(0)}
        | {Fraction(n * t, 6 - t) for t in range(1, 6)}  # M/N in {1/5,2/4,3/3,4/2,5}
    )
    assert memories == expected
    ratios = sorted({Fraction(pt.memory, n) for pt in points})
    assert ratios == [
        Fraction(0), Fraction(1, 5), Fraction(2, 4), Fraction(3, 3),
        Fraction(4, 2), Fraction(5),
    ]


def test_sweep_baseline_row():
    points = worked_sweep()
    baseline = next(pt for pt in points if pt.pda_id == "m0-baseline")
    assert baseline.memory == 0
    assert baseline.rate_achievable == 21
    assert baseline.subpacketization == 1


def test_sweep_rate_dominates_bound():
    for pt in worked_sweep():
        assert pt.rate_achievable >= pt.rate_lower_bound


def test_sweep_subpacketization_tradeoff_at_shared_memory():
    points = worked_sweep()
    at_42 = {pt.pda_id: pt for pt in points if pt.memory == 42}
    imported, family = at_42["file:worked"], at_42["mn:6,3"]
    assert imported.subpacketization < family.subpacketization  # 4 < 20
    assert imported.rate_achievable >= family.rate_achievable  # 10 >= 8.4
    assert family.rate_achievable == Fraction(42, 5)


def test_sweep_rejects_mismatched_pda():
    with pytest.raises(ValueError):
        sweep(10, (2, 2), {"bad": mn_pda(3, 1)})


def test_uniform_bigger_network_shape():
    # 10 caches, 60 users, 120 files, uniform profile: every family point
    # obeys the uniform-rate formula and dominates the bound.
    profile = (6,) * 10
    points = sweep(120, profile, mn_sweep_pdas(10))
    for pt in points:
        assert pt.rate_achievable >= pt.rate_lower_bound
        if pt.pda_id.startswith("mn:"):
            t = int(pt.pda_id.split(",")[1])
            pda = mn_pda(10, t)
            p = pda.params
            assert pt.rate_achievable == Fraction(
                60 * p.num_ints, 10 * (p.num_rows - p.stars_per_column)
            )


# -- CSV ------------------------------------------------------------------------


def test_fraction_rendering():
    assert fraction_to_decimal(Fraction(10)) == "10"
    assert fraction_to_decimal(Fraction(42, 5)) == "8.4"
    assert fraction_to_decimal(Fraction(21, 2)) == "10.5"
    assert fraction_to_decimal(Fraction(1, 3)) == "0.333333"
    assert fraction_to_decimal(Fraction(2, 3)) == "0.666667"
    assert fraction_to_decimal(Fraction(-42, 5)) == "-8.4"
    assert fraction_to_decimal(Fraction(0)) == "0"


def test_csv_format():
    text = sweep_csv(worked_sweep())
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 7  # baseline + 5 family points + imported
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "21"
    assert text.endswith("\n")
    # every data row: 5 fields, decimal memory ascending
    memories = [float(line.split(",")[0]) for line in lines[1:]]
    assert memories == sorted(memories)


def test_cutset_terms_need_a_user():
    with pytest.raises(ValueError, match="at least one user"):
        cutset_terms(4, 1, (0, 0))
