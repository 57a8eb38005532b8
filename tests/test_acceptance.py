"""Acceptance suite: one test per exit criterion, zero tolerance unless a
criterion states otherwise.  Each test prints a single PASS line (visible
with `pytest -s`); a failed assertion marks the criterion FAIL.

The 200-instance randomized battery is built once and shared between the
rate-equivalence and secrecy criteria.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from seccache import (
    BinaryField,
    Pda,
    check_zero_information,
    mn_pda,
    secrecy,
)
from seccache.bounds import (
    cutset_bound,
    cutset_terms,
    mn_sweep_pdas,
    optimality_ratio,
    sweep,
)
from seccache.scheme import (
    SystemConfig,
    decode_user,
    helper_memory_for,
    mersenne_twister,
    one_time_pad_session,
    rate_report,
    run_session,
)
from seccache.secrecy import SessionAnalyzer, verify_session
from seccache.sharing import cauchy_matrix, share_file, unshare_file
from tests.conftest import (
    WORKED_G_COLUMNS,
    WORKED_GRID,
    cache_model,
    eavesdropper_model,
    enumerate_independence,
    eq7_oracle,
    gf_vec_mat,
    make_worked_session,
    share_subset_model,
    unit_cache_bound_terms,
)

BATTERY_SIZE = 200


def report(number, name):
    print(f"\nACCEPTANCE {number:02d} {name}: PASS")


@pytest.fixture(scope="module")
def battery():
    """200 randomized subset-family instances (Lambda <= 6, K <= 24,
    N = K, distinct demands, 1-byte files over GF(2^8))."""
    rng = random.Random(0xACCE55)
    sessions = []
    for _ in range(BATTERY_SIZE):
        num_caches = rng.randint(2, 6)
        t = rng.randint(1, num_caches - 1)
        pda = mn_pda(num_caches, t)
        num_users = rng.randint(max(num_caches, 2), 24)
        buckets = [0] * num_caches
        for _ in range(num_users):
            buckets[rng.randrange(num_caches)] += 1
        config = SystemConfig(
            num_caches=num_caches,
            num_users=num_users,
            num_files=num_users,
            helper_memory=helper_memory_for(pda, num_users),
            file_bytes=1,
            field=BinaryField(8),
            seed=rng.getrandbits(32),
        )
        sessions.append(run_session(pda, config, profile=tuple(buckets)))
    return sessions


def test_criterion_01_worked_example_regression():
    start = time.perf_counter()
    session = make_worked_session(seed=7, file_bytes=4)
    elapsed = time.perf_counter() - start
    assert len(session.transmissions) == 20
    assert session.rate.rate == Fraction(10)
    assert session.pda.num_rows == 4  # subpacketization
    for user, expected in enumerate(WORKED_G_COLUMNS, start=1):
        assert session.garray.columns[user] == expected
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, "worked-example regression (20 transmissions, rate 10, G exact)")


def test_criterion_02_rate_formula_equivalence(battery):
    assert len(battery) == BATTERY_SIZE
    for session in battery:
        p = session.pda.params
        simulated = Fraction(
            len(session.transmissions), p.num_rows - p.stars_per_column
        )
        assert simulated == session.rate.rate
        assert simulated == eq7_oracle(session.pda, session.association.profile)
    report(2, f"rate formula equivalence on {BATTERY_SIZE} instances")


def test_criterion_03_uniform_profile_rate_formula():
    for num_caches in range(2, 7):
        for t in range(1, num_caches):
            pda = mn_pda(num_caches, t)
            p = pda.params
            for per_cache in (1, 2, 3):
                profile = (per_cache,) * num_caches
                k = per_cache * num_caches
                assert rate_report(pda, profile).rate == Fraction(
                    k * p.num_ints,
                    num_caches * (p.num_rows - p.stars_per_column),
                )
    report(3, "uniform-profile rate equals K*S/(Lambda*(F-Z))")


def test_criterion_04_decodability_50_seeded_runs():
    rng = random.Random(0xDEC0DE)
    runs = 0
    saw_non_distinct = False
    while runs < 50:
        num_caches = rng.randint(2, 5)
        t = rng.randint(1, num_caches - 1)
        pda = mn_pda(num_caches, t)
        num_users = rng.randint(max(num_caches, 2), 16)
        buckets = [0] * num_caches
        for _ in range(num_users):
            buckets[rng.randrange(num_caches)] += 1
        num_files = num_users if runs % 2 == 0 else rng.randint(2, num_users + 4)
        if runs % 2 == 0:
            demands = tuple(rng.sample(range(1, num_files + 1), num_users))
        else:
            demands = tuple(rng.randint(1, num_files) for _ in range(num_users))
            saw_non_distinct = saw_non_distinct or len(set(demands)) < len(demands)
        config = SystemConfig(
            num_caches=num_caches,
            num_users=num_users,
            num_files=num_files,
            helper_memory=helper_memory_for(pda, num_files),
            file_bytes=rng.randint(1, 3),
            field=BinaryField(8),
            seed=rng.getrandbits(32),
        )
        session = run_session(pda, config, profile=tuple(buckets), demands=demands)
        for user in session.garray.column_users:
            want = session.library[session.demands[user - 1] - 1]
            assert decode_user(session, user) == want
        runs += 1
    assert saw_non_distinct
    report(4, "bit-exact decode across 50 seeded runs incl. repeated demands")


def _tiny_oracle_instances():
    """(model, protected) pairs small enough to enumerate, mixing holding
    and failing cases; >= 20 of them."""
    out = []
    gf3, gf2 = BinaryField(3), BinaryField(2)
    for z, f in [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]:
        enc = cauchy_matrix(f, gf3)
        out.append((share_subset_model(enc, z, tuple(range(1, z + 1)), gf3), {1}))
        out.append((share_subset_model(enc, z, tuple(range(1, f + 1)), gf3), {1}))
    enc2 = cauchy_matrix(2, gf2)
    out.append((share_subset_model(enc2, 1, (1,), gf2), {1}))
    out.append((share_subset_model(enc2, 1, (1, 2), gf2), {1}))

    def tiny(profile, l, strip_pads=False, demands=None, seed=5):
        pda = mn_pda(len(profile), 1)
        config = SystemConfig(
            len(profile), sum(profile), 2,
            helper_memory_for(pda, 2), 1, field=BinaryField(l), seed=seed,
        )
        session = run_session(pda, config, profile=profile, demands=demands)
        return secrecy.strip_pads(session) if strip_pads else session

    clean = tiny((1, 1), 3, demands=(1, 2))
    an = SessionAnalyzer(clean, positions=1)
    out.append((an.user_model(1, include_delivery=True), {2}))
    out.append((an.user_model(2, include_delivery=True), {1}))
    out.append((an.user_model(1, include_delivery=False), {1, 2}))
    out.append((cache_model(an, 1), {1, 2}))
    out.append((cache_model(an, 2), {1, 2}))
    out.append((eavesdropper_model(an), {1, 2}))

    sabotaged = tiny((2, 0), 2, strip_pads=True, demands=(1, 2))
    sab = SessionAnalyzer(sabotaged, positions=1)
    out.append((sab.user_model(1, include_delivery=True), {2}))
    out.append((sab.user_model(2, include_delivery=True), {1}))
    out.append((sab.user_model(2, include_delivery=False), {1, 2}))
    out.append((eavesdropper_model(sab), {1, 2}))
    return out


def test_criterion_05_secrecy_suite(battery):
    for session in battery:
        assert verify_session(session).all_hold

    # sabotage: stripping the pads must break the delivery-phase condition
    sabotaged = make_worked_session(seed=7, file_bytes=1, strip_pads=True)
    model = SessionAnalyzer(sabotaged).user_model(1, include_delivery=True)
    protected = set(range(1, 22)) - {sabotaged.demands[0]}
    verdict = check_zero_information(model, protected)
    assert not verdict.holds
    field = model.field
    assert not any(gf_vec_mat(field, verdict.witness, model.obs_rand))
    assert any(
        gf_vec_mat(
            field, verdict.witness,
            model.obs_files[:, model.protected_columns(protected)],
        )
    )

    # oracle agreement on tiny instances
    instances = _tiny_oracle_instances()
    assert len(instances) >= 20
    held = failed = 0
    for model, protected in instances:
        assert model.file_dim + model.rand_dim <= 12
        rank_verdict = check_zero_information(model, protected).holds
        brute_verdict = enumerate_independence(model, protected)
        assert rank_verdict == brute_verdict
        held += rank_verdict
        failed += not rank_verdict
    assert held and failed  # both outcomes exercised
    report(
        5,
        f"secrecy: {len(battery)} instances hold, sabotage fails with witness, "
        f"{len(instances)} oracle agreements",
    )


def test_criterion_06_secret_sharing_property():
    field = BinaryField(3)
    rng = mersenne_twister(6)
    data_rng = np.random.RandomState(rng)  # the same stream, for the file bytes
    for z, f in [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]:
        enc = cauchy_matrix(f, field)
        for subset in combinations(range(1, f + 1), z):
            model = share_subset_model(enc, z, subset, field)
            assert check_zero_information(model, {1}).holds
        full = share_subset_model(enc, z, tuple(range(1, f + 1)), field)
        assert not check_zero_information(full, {1}).holds
        # and all F shares really do reconstruct
        data = data_rng.bytes(3)
        shares, meta = share_file(data, f, z, field, rng)
        assert unshare_file(shares, meta, field) == data
    report(6, "Z-subsets reveal nothing, full share sets reconstruct")


def test_criterion_07_mn_pda_parameters():
    for num_caches in range(2, 9):
        for t in range(1, num_caches):
            pda = mn_pda(num_caches, t)
            p = pda.params
            assert p.num_rows == comb(num_caches, t)
            assert p.stars_per_column == comb(num_caches - 1, t - 1)
            assert p.num_ints == comb(num_caches, t + 1)
            for s in range(1, p.num_ints + 1):
                assert len(pda.occurrences[s - 1]) == t + 1
    report(7, "subset-family parameters and integer multiplicity, Lambda 2..8")


def test_criterion_08_bounds_and_reduction():
    sweep_cases = [
        ((6, 5, 4, 3, 2, 1), 42),
        ((4, 4, 4, 3, 3, 3), 42),
        ((2, 2, 2, 2), 16),
        ((5, 3, 1), 20),
    ]
    for profile, num_files in sweep_cases:
        k = sum(profile)
        assert num_files >= 2 * k
        num_caches = len(profile)
        assert cutset_bound(num_files, 0, profile) >= profile[0]
        for t in range(1, num_caches):
            pda = mn_pda(num_caches, t)
            rep = optimality_ratio(pda, num_files, profile)
            assert rep.gap_bound_applies
            assert 1 <= rep.ratio <= num_caches
            assert rep.ratio <= Fraction(k, profile[0])
            memory = helper_memory_for(pda, num_files)
            assert cutset_bound(num_files, memory, profile) >= profile[0]

    rng = random.Random(8)
    for _ in range(20):
        num_caches = rng.randint(1, 6)
        raw = sorted((rng.randint(0, 5) for _ in range(num_caches)), reverse=True)
        if sum(raw) == 0:
            raw[0] = 1
        profile = tuple(raw)
        n = rng.randint(2, 60)
        m = Fraction(rng.randint(0, 90), rng.randint(1, 7))
        assert cutset_terms(n, m, profile) == (
            unit_cache_bound_terms(n, sum(profile), m, profile)
        )
    report(8, "order-optimality gap and unit-cache bound reduction")


def test_criterion_09_zero_memory_baseline():
    for profile in ((21,), (3, 2, 1), (1, 1)):
        k = sum(profile)
        config = SystemConfig(
            num_caches=len(profile),
            num_users=k,
            num_files=k if k > 1 else 2,
            helper_memory=Fraction(0),
            file_bytes=2,
            field=BinaryField(8),
            seed=9,
        )
        session = one_time_pad_session(config, profile=profile)
        assert session.rate.rate == Fraction(k)
        assert session.rate.num_transmissions == k
        for user in session.garray.column_users:
            want = session.library[session.demands[user - 1] - 1]
            assert decode_user(session, user) == want
        assert verify_session(session).all_hold
    report(9, "M=0 one-time-pad baseline: rate K, decode + secrecy pass")


def test_criterion_10_subpacketization_tradeoff():
    pdas = mn_sweep_pdas(6)
    pdas["file:worked"] = Pda.from_grid(WORKED_GRID)
    points = sweep(42, (6, 5, 4, 3, 2, 1), pdas)
    by_id = {pt.pda_id: pt for pt in points}
    assert all(pt.subpacketization >= 1 for pt in points)  # F reported on every row
    imported = by_id["file:worked"]
    family = by_id["mn:6,3"]
    assert imported.memory == family.memory == 42
    assert imported.subpacketization == 4 < family.subpacketization == 20
    assert imported.rate_achievable == 10 >= family.rate_achievable == Fraction(42, 5)
    report(10, "imported PDA: lower subpacketization at equal memory, rate recorded")
