"""End-to-end scheme behavior: association, G construction, placement,
keys, delivery, decoding, and the rate formula."""

import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seccache import BinaryField, Pda, cli, mn_pda, scheme, sharing, validate, verify_session
from seccache.field import _product_tables
from seccache.secrecy import strip_pads
from seccache.sharing import (
    _cached_inverse,
    bytes_to_symbols,
    cauchy_matrix,
    random_vector,
    share_file,
)
from seccache.scheme import (
    MAX_LIBRARY_BYTES,
    Association,
    SystemConfig,
    _stream,
    build_g_array,
    decode_all,
    decode_user,
    decode_users,
    helper_memory_for,
    helper_placement,
    mersenne_twister,
    one_time_pad_session,
    rate_report,
    run_session,
    synthetic_library,
)
from tests.conftest import (
    WORKED_G_COLUMNS,
    WORKED_GRID,
    WORKED_PROFILE,
    associate_by_assignment,
    draw_users,
    eq7_loads,
    eq7_oracle,
    make_worked_session,
    random_pda_sessions,
    random_pdas,
    zero_memory_sessions,
)


def small_config(pda, num_files, num_users, seed=0, file_bytes=2, l=8):
    return SystemConfig(
        num_caches=pda.num_caches,
        num_users=num_users,
        num_files=num_files,
        helper_memory=helper_memory_for(pda, num_files),
        file_bytes=file_bytes,
        field=BinaryField(l),
        seed=seed,
    )


# -- association -----------------------------------------------------------------


def test_associate_sorts_with_stable_relabel():
    assoc = Association.from_profile((1, 6, 3, 5, 4, 2))
    assert assoc.profile == (6, 5, 4, 3, 2, 1)
    assert assoc.cache_order == (2, 4, 5, 3, 6, 1)
    # each relabeled cache keeps the contiguous users its raw cache was given
    assert assoc.groups[0] == (2, 3, 4, 5, 6, 7)
    assert assoc.groups[5] == (1,)


def test_associate_worked_profile():
    assoc = Association.from_profile(WORKED_PROFILE)
    assert assoc.profile == WORKED_PROFILE
    assert assoc.groups[0] == (1, 2, 3, 4, 5, 6)
    assert assoc.groups[5] == (21,)
    assert assoc.cache_order == (1, 2, 3, 4, 5, 6)


def test_associate_uniform_one_user_per_cache():
    assoc = Association.from_profile((1, 1, 1, 1))
    assert assoc.profile == (1, 1, 1, 1)
    assert assoc.groups == ((1,), (2,), (3,), (4,))
    assert assoc.user_to_cache == assoc.cache_order == (1, 2, 3, 4)


def test_associate_ties_keep_original_order():
    assoc = Association.from_profile((2, 2, 2))
    assert assoc.cache_order == (1, 2, 3)


@settings(max_examples=300, deadline=None)
@given(profile=st.lists(st.sampled_from([0, 0, 1, 1, 2, 3, 7]), min_size=1, max_size=9))
@example(profile=[0])
@example(profile=[0, 0, 2, 2, 0, 1, 2])
def test_associate_from_profile_matches_the_assignment_scan(profile):
    """Contiguous groups taken by load give the association that scanning
    the cache-major assignment once per cache gives, zeros and ties
    included."""
    assignment = [c for c, load in enumerate(profile, start=1) for _ in range(load)]
    assert Association.from_profile(profile) == associate_by_assignment(assignment, len(profile))


def test_associate_rejects_negative_loads():
    with pytest.raises(ValueError, match="nonnegative"):
        Association.from_profile((2, -1, 1))


def test_user_count_mismatch_rejected(worked_pda):
    config = small_config(worked_pda, 21, 21)
    with pytest.raises(ValueError, match="users"):
        run_session(worked_pda, config, profile=(6, 5, 4, 3, 2, 2))


# -- G construction ----------------------------------------------------------------


def test_g_array_matches_reference_expansion(worked_pda):
    garray = build_g_array(worked_pda, Association.from_profile(WORKED_PROFILE))
    assert len(garray.columns) == 21
    assert all(len(column) == 4 for column in garray.columns.values())
    for user, expected in enumerate(WORKED_G_COLUMNS, start=1):
        assert garray.columns[user] == expected
    assert len(garray.pairs) == 20


def test_g_array_empty_cache_contributes_no_column():
    pda = mn_pda(3, 1)
    assoc = Association.from_profile((2, 1, 0))
    garray = build_g_array(pda, assoc)
    assert len(garray.columns) == 3
    assert garray.column_users == (1, 2, 3)


def test_g_array_column_count_of_pairs(worked_pda):
    garray = build_g_array(worked_pda, Association.from_profile(WORKED_PROFILE))
    for user in range(1, 22):
        non_star = [e for e in garray.columns[user] if e is not None]
        assert len(non_star) == 2  # F - Z


def test_g_array_pair_subgrids_are_scaled_identity(worked_pda):
    garray = build_g_array(worked_pda, Association.from_profile(WORKED_PROFILE))
    for pair, occ in garray.pair_occurrences.items():
        for a, (j1, u1) in enumerate(occ):
            for b, (j2, u2) in enumerate(occ):
                entry = garray.columns[u2][j1 - 1]
                assert entry == (pair if a == b else None)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_g_array_pair_map_matches_a_scan_of_its_columns(data):
    """The pair map built from the PDA's occurrences is the scan of G's
    columns, sorted by pair; integer s has as many pairs as the rate
    counts for it, and every (row, user) of a pair holds that pair."""
    pda = data.draw(random_pdas())
    profile = draw_users(data.draw, pda.num_caches)[0]
    association = Association.from_profile(profile)
    canonical = pda.permute_columns(association.cache_order)
    garray = build_g_array(canonical, association)
    assert garray.column_users == sum(association.groups, ())
    scan = {}
    for user, column in garray.columns.items():
        assert len(column) == canonical.num_rows
        for row, pair in enumerate(column, start=1):
            if pair is not None:
                scan.setdefault(pair, []).append((row, user))
    assert list(garray.pair_occurrences.items()) == [
        (pair, tuple(scan[pair])) for pair in sorted(scan)
    ]
    per_s = rate_report(canonical, association.profile).per_s_multiplicity
    assert [s for s, _ in garray.pairs] == [
        s for s, count in enumerate(per_s, start=1) for _ in range(count)
    ]
    for pair, occurrences in garray.pair_occurrences.items():
        for row, user in occurrences:
            assert garray.columns[user][row - 1] == pair


# -- placement and keys --------------------------------------------------------------


def test_helper_cache_contents(worked_session):
    # cache 1 stores share rows {1, 2} of every file, cache 6 rows {3, 4}
    assert worked_session.cached_rows[0] == (1, 2)
    assert worked_session.cached_rows[1] == (1, 3)
    assert worked_session.cached_rows[5] == (3, 4)
    assert all(len(rows) == 2 for rows in worked_session.cached_rows)


def test_memory_ratio_checked(worked_pda):
    config = SystemConfig(
        num_caches=6,
        num_users=21,
        num_files=21,
        helper_memory=Fraction(20),  # should be 21
        file_bytes=2,
        field=BinaryField(3),
        seed=0,
    )
    with pytest.raises(ValueError, match="memory ratio"):
        run_session(worked_pda, config, profile=WORKED_PROFILE)


def test_worked_memory_ratio_is_half():
    pda = Pda.from_grid(WORKED_GRID)
    m = helper_memory_for(pda, 21)
    assert m == 21
    assert Fraction(m, m + 21) == Fraction(2, 4)


def held_pairs(session, user):
    """The pairs of the key rows the user stores."""
    return [session.garray.pairs[p] for p in session.user_keys[user]]


def test_key_placement(worked_session):
    assert sorted(held_pairs(worked_session, 1)) == [(1, 1), (2, 1)]
    assert sorted(held_pairs(worked_session, 21)) == [(3, 1), (4, 1)]
    assert sorted(held_pairs(worked_session, 12)) == [(2, 1), (3, 1)]
    for user in range(1, 22):
        assert len(worked_session.user_keys[user]) == 2  # F - Z keys each


@pytest.mark.parametrize("session", [
    make_worked_session(),
    one_time_pad_session(SystemConfig(
        num_caches=3, num_users=6, num_files=7, helper_memory=Fraction(0),
        file_bytes=5, field=BinaryField(3), seed=7,
    ), profile=(1, 3, 2)),
], ids=["worked", "m0"])
def test_keys_are_one_read_only_draw_in_pair_order(session):
    # one draw of P * L symbols equals P draws of L, pair after pair
    field, length = session.config.field, session.meta.symbols_per_share
    rng = _stream(session.config.seed, "keys")
    assert len(session.key_pool) == len(session.garray.pairs)
    for key in session.key_pool:
        assert np.array_equal(key, random_vector(length, field, rng))
        assert not key.flags.writeable
        with pytest.raises(ValueError):
            key[0] = 0
    for user, column in session.garray.columns.items():
        assert held_pairs(session, user) == [entry for entry in column if entry is not None]


def test_key_budget_is_one_file(worked_session):
    meta = worked_session.meta
    per_user_bits = sum(
        len(worked_session.key_pool[p]) * worked_session.config.field.l
        for p in worked_session.user_keys[1]
    )
    assert per_user_bits == meta.padded_bits  # M_U * B


# -- delivery --------------------------------------------------------------------


def xor_vectors(*vecs):
    acc = vecs[0].copy()
    for v in vecs[1:]:
        acc = acc ^ v
    return acc


def test_worked_delivery_count_and_order(worked_session):
    assert len(worked_session.transmissions) == 20
    assert list(worked_session.garray.pairs) == [
        (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
        (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
        (3, 1), (3, 2), (3, 3), (3, 4), (3, 5),
        (4, 1), (4, 2), (4, 3),
    ]


def test_worked_transmission_compositions(worked_session):
    s = worked_session
    shares, keys = s.shares, dict(zip(s.garray.pairs, s.key_pool))
    sent = dict(zip(s.garray.pairs, s.transmissions))
    expected = {
        (1, 1): xor_vectors(shares[0][2], shares[6][1], shares[15][0], keys[(1, 1)]),
        (1, 6): xor_vectors(shares[5][2], keys[(1, 6)]),
        (2, 1): xor_vectors(shares[0][3], shares[11][1], shares[18][0], keys[(2, 1)]),
        (3, 1): xor_vectors(shares[6][3], shares[11][2], shares[20][0], keys[(3, 1)]),
        (4, 1): xor_vectors(shares[15][3], shares[18][2], shares[20][1], keys[(4, 1)]),
        (4, 3): xor_vectors(shares[17][3], keys[(4, 3)]),
    }
    for pair, want in expected.items():
        assert (sent[pair] == want).all(), pair


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(session=st.one_of(random_pda_sessions(), zero_memory_sessions()))
def test_keys_and_broadcasts_are_read_only_blocks_in_pair_order(session):
    """Row p of the key and broadcast blocks belongs to garray.pairs[p]:
    broadcast row p is key row p XOR the demanded shares of the pair's
    participants, and a user's key rows are the pair_index of its column's
    entries, in row order.  l runs over 2..16."""
    garray, shares, demands = session.garray, session.shares, session.demands
    assert [garray.pair_index[pair] for pair in garray.pairs] == list(range(len(garray.pairs)))
    for p, pair in enumerate(garray.pairs):
        want = session.key_pool[p].copy()
        for row, user in garray.pair_occurrences[pair]:
            want ^= shares[demands[user - 1] - 1][row - 1]
        assert np.array_equal(session.transmissions[p], want)
    for user, column in garray.columns.items():
        rows = tuple(garray.pair_index[entry] for entry in column if entry is not None)
        assert session.user_keys[user] == rows
        assert all(type(p) is int for p in session.user_keys[user])
    shape = (len(garray.pairs), session.meta.symbols_per_share)
    for block in (session.key_pool, session.transmissions, strip_pads(session).transmissions):
        assert isinstance(block, np.ndarray) and block.shape == shape
        with pytest.raises(ValueError, match="read-only"):
            block[0] ^= 1


def test_single_user_single_transmission():
    pda = mn_pda(2, 1)
    config = small_config(pda, 2, 2, l=3)
    session = run_session(pda, config, profile=(1, 1))
    assert len(session.transmissions) == 1
    # the only pair is (1, 1); payload is share ^ key for each participant
    (pair,) = session.garray.pairs
    assert pair == (1, 1)


def test_demand_out_of_range(worked_pda):
    config = small_config(worked_pda, 21, 21)
    with pytest.raises(ValueError, match="demand"):
        run_session(
            worked_pda, config, profile=WORKED_PROFILE, demands=(25,) * 21
        )


# -- decoding --------------------------------------------------------------------


def test_worked_example_all_users_decode(worked_session):
    decoded = decode_all(worked_session)
    for user in range(1, 22):
        want = worked_session.library[worked_session.demands[user - 1] - 1]
        assert decoded[user] == want


def test_trivial_single_user_roundtrip():
    pda = mn_pda(2, 1)
    config = small_config(pda, 2, 2, l=3, file_bytes=5)
    session = run_session(pda, config, profile=(1, 1))
    assert decode_user(session, 1) == session.library[0]


def test_randomized_end_to_end_decode():
    rng = random.Random(2024)
    for _ in range(50):
        num_caches = rng.randint(2, 6)
        t = rng.randint(1, num_caches - 1)
        pda = mn_pda(num_caches, t)
        num_users = rng.randint(num_caches, 24)
        buckets = [0] * num_caches
        for _ in range(num_users):
            buckets[rng.randrange(num_caches)] += 1
        num_files = max(num_users, 2)
        config = small_config(
            pda, num_files, num_users, seed=rng.getrandbits(32), file_bytes=1
        )
        distinct = rng.random() < 0.5
        demands = (
            tuple(rng.sample(range(1, num_files + 1), num_users))
            if distinct
            else tuple(rng.randint(1, num_files) for _ in range(num_users))
        )
        session = run_session(
            pda, config, profile=tuple(buckets), demands=demands
        )
        for user in session.garray.column_users:
            want = session.library[session.demands[user - 1] - 1]
            assert decode_user(session, user) == want


def zero_memory_session():
    config = SystemConfig(2, 3, 3, Fraction(0), 5, BinaryField(8), seed=4)
    return one_time_pad_session(config, profile=(2, 1))


@pytest.mark.parametrize("make", [make_worked_session, zero_memory_session])
@pytest.mark.parametrize("bad", ["lo", "neg", "hi"])
def test_a_user_outside_1_to_k_is_refused_before_any_indexing(make, bad):
    session = make()
    num_users = session.config.num_users
    user = {"lo": 0, "neg": -1, "hi": num_users + 1}[bad]
    message = rf"^user {user} is not one of the users 1\.\.{num_users}$"
    with pytest.raises(ValueError, match=message):
        decode_user(session, user)
    with pytest.raises(ValueError, match=message):
        decode_users(session, [1, user])


@pytest.mark.parametrize("make", [make_worked_session, zero_memory_session])
def test_a_user_listed_twice_is_refused(make):
    with pytest.raises(ValueError, match=r"^user 2 is listed twice$"):
        decode_users(make(), [2, 1, 2])


def without_broadcast(session):
    row = session.garray.pair_index[(1, 1)]
    return replace(session, transmissions=np.delete(session.transmissions, row, axis=0))


def without_key(session):
    row = session.garray.pair_index[(1, 1)]
    keys = tuple(p for p in session.user_keys[1] if p != row)
    return replace(session, user_keys={**session.user_keys, 1: keys})


def without_cached_row(session):
    # User 1's broadcast (1, 1) carries user 7's share 2, which cache 1
    # holds as its second star row.
    return replace(session, cached_rows=((1,), *session.cached_rows[1:]))


@pytest.mark.parametrize("tamper, message", [
    (without_broadcast, r"19 broadcasts sent for 20 pairs"),
    (without_key, r"user 1 lacks key \(1, 1\)"),
    (without_cached_row, "participant share not in this user's cache"),
])
def test_decoding_refuses_what_the_user_does_not_hold(tamper, message):
    session = tamper(make_worked_session())
    with pytest.raises(RuntimeError, match=message):
        decode_user(session, 1)
    with pytest.raises(RuntimeError, match=message):
        dict(decode_users(session, session.garray.column_users))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_decoding_users_together_is_decoding_each_alone(data):
    """decode_users gives every listed user, in the order listed, the file
    decode_user gives it alone, whatever the batches: WORDS_PER_CALL is
    cut so that a batch holds one to three users."""
    session = data.draw(st.one_of(random_pda_sessions(), zero_memory_sessions()),
                        label="session")
    if data.draw(st.booleans(), label="strip pads"):
        session = strip_pads(session)
    users = data.draw(st.lists(st.sampled_from(session.garray.column_users),
                               min_size=1, unique=True), label="users")
    meta = session.meta
    words = data.draw(st.integers(1, 3 * meta.num_shares * meta.symbols_per_share),
                      label="WORDS_PER_CALL")
    with mock.patch.object(scheme, "WORDS_PER_CALL", words):
        decoded = list(decode_users(session, users))
        alone = [(user, decode_user(session, user)) for user in users]
    assert decoded == alone
    if not session.pads_stripped:
        for user, file in decoded:
            assert file == session.library[session.demands[user - 1] - 1]


def test_session_builds_each_product_table_once():
    """On GF(2^8) run_session multiplies by one share matrix, once per
    batch of files, and decode_all by its inverse's F - Z rows, once per
    user; each matrix's product tables are built on first use only."""
    pda = mn_pda(6, 2)
    config = small_config(pda, 18, 18, file_bytes=64)
    _product_tables.cache_clear()
    session = run_session(pda, config, profile=(3,) * 6)
    decoded = decode_all(session)
    assert _product_tables.cache_info().misses == 2
    for user, data in decoded.items():
        assert data == session.library[session.demands[user - 1] - 1]


def test_placement_multiplies_and_draws_once_for_a_small_library():
    """mn:6,2 with K = N = 18 and 64-byte files is one batch: placement
    makes one share product and one draw from the "sharing" stream, and
    key placement one more draw, so a per-file loop would show here."""
    pda = mn_pda(6, 2)
    config = small_config(pda, 18, 18, file_bytes=64)
    products, draws = [], []
    matmul = BinaryField.matmul

    def recording_matmul(self, coeffs, symbols):
        products.append(symbols.shape)
        return matmul(self, coeffs, symbols)

    def recording(module):
        draw = module.random_vector

        def random_vector(length, field, rng):
            draws.append((module.__name__, length))
            return draw(length, field, rng)
        return mock.patch.object(module, "random_vector", random_vector)

    with mock.patch.object(BinaryField, "matmul", recording_matmul), \
            recording(sharing), recording(scheme):
        session = run_session(pda, config, profile=(3,) * 6)
    length = session.meta.symbols_per_share
    assert products == [(15, 18 * length)]
    assert draws == [("seccache.sharing", 18 * 5 * length),
                     ("seccache.scheme", len(session.garray.pairs) * length)]


def one_column_pda(f, z):
    """A one-cache PDA of F rows whose first Z are stars."""
    return Pda.from_grid(((None,),) * z + tuple((s,) for s in range(1, f - z + 1)))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_batched_placement_shares_each_file_as_share_file_does(data):
    """helper_placement shares the library in batches, and each file's
    shares are byte for byte the ones share_file gives it alone, drawing
    from the same stream file after file; the stream ends in the same
    state.  The batch limit is cut to a drawn number of files, so batches
    of one file, of several and of all of them occur, and most file
    lengths need padding."""
    l = data.draw(st.integers(2, 16), label="l")
    f = data.draw(st.integers(2, min(8, 2 ** (l - 1))), label="F")
    z = data.draw(st.integers(1, f - 1), label="Z")
    num_files = data.draw(st.integers(1, 9), label="N")
    file_bytes = data.draw(st.integers(1, 40), label="file bytes")
    per_batch = data.draw(st.integers(1, num_files), label="files per batch")
    key = data.draw(st.integers(0, 2**64 - 1), label="key")
    library = tuple(data.draw(st.binary(min_size=file_bytes, max_size=file_bytes))
                    for _ in range(num_files))
    field, pda = BinaryField(l), one_column_pda(f, z)
    config = SystemConfig(1, 1, num_files, helper_memory_for(pda, num_files),
                          file_bytes, field)
    alone = mersenne_twister(key)
    expected = [share_file(d, f, z, field, alone) for d in library]
    # a limit just short of per_batch + 1 files' input
    limit = (per_batch + 1) * f * expected[0][1].symbols_per_share - 1
    batched = mersenne_twister(key)
    with mock.patch.object(scheme, "WORDS_PER_CALL", limit):
        shares, meta, _ = helper_placement(pda, config, library, batched)
    assert meta == expected[0][1]
    assert [s.shape for s in shares] == [s.shape for s, _ in expected]
    assert [s.tobytes() for s in shares] == [s.tobytes() for s, _ in expected]
    state, ref = batched.state["state"], alone.state["state"]
    assert state["pos"] == ref["pos"] and np.array_equal(state["key"], ref["key"])


def duplicate_payloads(session):
    """Broadcasts whose (file, share row) set repeats an earlier one's."""
    garray = session.garray
    payloads = [
        frozenset((session.demands[user - 1], row) for row, user in occ)
        for occ in garray.pair_occurrences.values()
    ]
    return len(payloads) - len(set(payloads))


def test_non_distinct_demands_keep_worst_case_count(worked_pda):
    config = small_config(worked_pda, 21, 21, l=3)
    repeated = (1,) * 21
    session = run_session(worked_pda, config, profile=WORKED_PROFILE, demands=repeated)
    assert len(session.transmissions) == 20  # no demand-aware pruning
    assert duplicate_payloads(session) > 0
    distinct = run_session(worked_pda, config, profile=WORKED_PROFILE)
    assert duplicate_payloads(distinct) == 0


# -- rate -----------------------------------------------------------------------


def test_worked_rate_is_ten(worked_pda):
    report = rate_report(worked_pda, WORKED_PROFILE)
    assert report.per_s_multiplicity == (6, 6, 5, 3)
    assert report.num_transmissions == 20
    assert report.rate == Fraction(10)


def test_uniform_rate_formula():
    for num_caches, t, per_cache in [(4, 2, 3), (6, 3, 2), (5, 1, 4)]:
        pda = mn_pda(num_caches, t)
        p = pda.params
        profile = (per_cache,) * num_caches
        report = rate_report(pda, profile)
        k = per_cache * num_caches
        assert report.rate == Fraction(
            k * p.num_ints, num_caches * (p.num_rows - p.stars_per_column)
        )


def test_single_user_rate_counts_first_column(worked_pda):
    report = rate_report(worked_pda, (1, 0, 0, 0, 0, 0))
    # integers appearing in column 1: {1, 2}
    assert report.rate == Fraction(2, 2)
    assert report.per_s_multiplicity == (1, 1, 0, 0)


def test_rate_matches_delivery_count_random():
    rng = random.Random(7)
    for _ in range(30):
        num_caches = rng.randint(2, 5)
        t = rng.randint(1, num_caches - 1)
        pda = mn_pda(num_caches, t)
        num_users = rng.randint(num_caches, 15)
        buckets = [0] * num_caches
        for _ in range(num_users):
            buckets[rng.randrange(num_caches)] += 1
        config = small_config(pda, num_users, num_users, seed=rng.getrandbits(32), file_bytes=1)
        session = run_session(pda, config, profile=tuple(buckets))
        assert len(session.transmissions) == session.rate.num_transmissions
        p = pda.params
        assert session.rate.rate == Fraction(
            len(session.transmissions), p.num_rows - p.stars_per_column
        )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_each_integer_costs_its_largest_load_in_any_order(data):
    """Eq. 7 with the loads in any order, empty caches included: the report
    charges each integer the largest load among its columns, stays the same
    when the columns and the loads are permuted together, and counts the
    broadcasts that a session of that PDA and profile sends."""
    pda = data.draw(random_pdas())
    profile, num_files, demands = draw_users(data.draw, pda.num_caches)
    report = rate_report(pda, profile)
    assert report.per_s_multiplicity == eq7_loads(pda, profile)
    assert report.rate == eq7_oracle(pda, profile)
    order = data.draw(st.permutations(range(1, pda.num_caches + 1)))
    assert rate_report(pda.permute_columns(order), [profile[c - 1] for c in order]) == report
    config = small_config(pda, num_files, len(demands), file_bytes=1)
    session = run_session(pda, config, profile=profile, demands=demands)
    assert len(session.transmissions) == report.num_transmissions


def test_dedicated_cache_reduction():
    # K = Lambda with one user per cache: every pair has rank 1 and the
    # transmissions coincide with the plain per-integer XOR schedule.
    pda = mn_pda(4, 2)
    config = small_config(pda, 4, 4, l=8, file_bytes=1)
    session = run_session(pda, config, profile=(1, 1, 1, 1))
    p = pda.params
    assert session.rate.rate == Fraction(p.num_ints, p.num_rows - p.stars_per_column)
    assert set(session.garray.pairs) == {(s, 1) for s in range(1, p.num_ints + 1)}
    for s in range(1, p.num_ints + 1):
        # participants of (s, 1) are exactly the PDA occurrences of s
        got = {
            (row, session.association.user_to_cache[user - 1])
            for row, user in session.garray.pair_occurrences[(s, 1)]
        }
        want = set(pda.occurrences[s - 1])
        assert got == want


def partitions(total, parts):
    """Nonincreasing compositions of total into exactly `parts` parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(-(-total // parts), total + 1):
        for rest in partitions(total - first, parts - 1):
            if rest[0] <= first:
                yield (first,) + rest


def test_uniform_profile_minimizes_rate():
    for num_caches, t in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 1), (4, 3)]:
        pda = mn_pda(num_caches, t)
        for k in range(num_caches, 13, num_caches):
            uniform_rate = rate_report(pda, (k // num_caches,) * num_caches).rate
            best = min(
                rate_report(pda, prof).rate for prof in partitions(k, num_caches)
            )
            assert uniform_rate == best


def test_skewed_profiles_do_not_beat_uniform():
    pda = mn_pda(4, 2)
    uniform = rate_report(pda, (3, 3, 3, 3)).rate
    assert rate_report(pda, (12, 0, 0, 0)).rate >= uniform
    assert rate_report(pda, (6, 3, 2, 1)).rate >= uniform


def test_wide_subpacketization_instance():
    # F = C(8, 4) = 70 shares per file; exercises the large-matrix paths
    pda = mn_pda(8, 4)
    config = SystemConfig(
        num_caches=8,
        num_users=8,
        num_files=8,
        helper_memory=helper_memory_for(pda, 8),
        file_bytes=2,
        field=BinaryField(8),
        seed=17,
    )
    session = run_session(pda, config, profile=(1,) * 8)
    assert session.pda.num_rows == 70
    assert decode_user(session, 3) == session.library[2]
    p = pda.params
    assert session.rate.rate == Fraction(p.num_ints, p.num_rows - p.stars_per_column)


def test_session_path_runs_no_scalar_field_arithmetic(monkeypatch):
    """Encoding, decoding and verification use only the exp/log tables; the
    scalar product builds them and nothing else.  The Cauchy, inverse and
    product-table caches are emptied first, so no cached matrix skips the
    path."""
    for cache in (cauchy_matrix, _cached_inverse, _product_tables):
        cache.cache_clear()
    field = BinaryField(16)
    field.exp_table  # built while scalar mul still works

    def scalar_mul(self, a, b):
        raise RuntimeError("scalar field product on the session path")

    monkeypatch.setattr(BinaryField, "mul", scalar_mul)
    pda = mn_pda(4, 2)
    config = SystemConfig(
        num_caches=4,
        num_users=8,
        num_files=8,
        helper_memory=helper_memory_for(pda, 8),
        file_bytes=64,
        field=field,
        seed=5,
    )
    session = run_session(pda, config, profile=(1, 3, 2, 2))
    for user, data in decode_all(session).items():
        assert data == session.library[session.demands[user - 1] - 1]
    assert verify_session(session).all_hold
    sabotaged = verify_session(strip_pads(session))
    assert not all(v.holds for v in sabotaged.user_delivery.values())


def test_single_file_library_placement():
    # N = 1 with a (2, 1) split: each cache stores exactly one share of it
    pda = mn_pda(2, 1)
    config = small_config(pda, 1, 2, l=3)
    session = run_session(pda, config, profile=(1, 1), demands=(1, 1))
    assert all(len(rows) == 1 for rows in session.cached_rows)
    assert len(session.shares) == 1 and len(session.shares[0]) == 2
    for user in (1, 2):
        assert decode_user(session, user) == session.library[0]


def test_single_user_single_column_system():
    # Lambda = K = 1 with a one-column array: one transmission, rate 1/(F-Z)
    pda = Pda.from_grid(((None,), (1,)))
    config = small_config(pda, 1, 1, l=3)
    session = run_session(pda, config, profile=(1,))
    assert len(session.transmissions) == 1
    assert session.rate.rate == Fraction(1)
    assert decode_user(session, 1) == session.library[0]


# -- M = 0 baseline ---------------------------------------------------------------


def baseline_config(num_users, num_files, seed=0):
    return SystemConfig(
        num_caches=min(3, num_users),
        num_users=num_users,
        num_files=num_files,
        helper_memory=Fraction(0),
        file_bytes=3,
        field=BinaryField(8),
        seed=seed,
    )


def test_baseline_rate_is_k():
    for k in (1, 5, 21):
        session = one_time_pad_session(baseline_config(k, max(k, 2)))
        assert session.rate.rate == Fraction(k)
        assert session.rate.num_transmissions == k


def test_baseline_decodes():
    session = one_time_pad_session(baseline_config(6, 6))
    for user in range(1, 7):
        assert decode_user(session, user) == session.library[user - 1]


def test_baseline_rate_independent_of_demands():
    config = baseline_config(4, 2)
    for demands in ((1, 1, 1, 1), (2, 1, 2, 1)):
        session = one_time_pad_session(config, demands=demands)
        assert session.rate.rate == Fraction(4)
        for user in range(1, 5):
            assert (
                decode_user(session, user) == session.library[demands[user - 1] - 1]
            )


def test_baseline_requires_zero_memory(worked_pda):
    config = small_config(worked_pda, 21, 21)
    with pytest.raises(ValueError):
        one_time_pad_session(config)


@pytest.mark.parametrize(
    "num_users, kwargs, message",
    [
        (3, dict(library=[bytes(3)] * 6), "library must hold 4 files, got 6"),
        (3, dict(demands=(1, 2, 3, 4, 1)), "demand vector length must be K"),
        (3, dict(demands=(1, 2)), "demand vector length must be K"),
        (2, dict(profile=(1, 1, 0)), "cache counts disagree"),
    ],
)
def test_baseline_checks_inputs_like_run_session(num_users, kwargs, message):
    with pytest.raises(ValueError, match=message):
        one_time_pad_session(baseline_config(num_users, 4), **kwargs)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(session=zero_memory_sessions())
def test_zero_memory_sessions_decode_at_rate_k_with_one_pad_per_user(session):
    config, association = session.config, session.association
    for user, data in decode_all(session).items():
        assert data == session.library[session.demands[user - 1] - 1]
    assert len(session.transmissions) == session.rate.num_transmissions == config.num_users
    assert session.rate.rate == Fraction(config.num_users)
    assert session.rate.per_s_multiplicity == tuple(n for n in association.profile if n)
    for (lam, i), payload in zip(session.garray.pairs, session.transmissions):
        user = association.groups[lam - 1][i - 1]
        demanded = session.library[session.demands[user - 1] - 1]
        plain = bytes_to_symbols(demanded, config.field, session.meta.symbols_per_share)[0]
        (row,) = session.user_keys[user]
        assert session.garray.pairs[row] == (lam, i)
        assert np.array_equal(payload, plain ^ session.key_pool[row])


def test_the_zero_memory_scheme_runs_no_field_product(monkeypatch):
    """The (0, 1) sharing is the identity, so on the bulk shape (six caches
    of three users, K = N = 18) the M = 0 session is placed and decoded
    bit-exactly with BinaryField.matmul unreachable."""
    def no_product(self, coeffs, symbols):
        raise RuntimeError("field product in the M = 0 scheme")

    monkeypatch.setattr(BinaryField, "matmul", no_product)
    config = SystemConfig(6, 18, 18, Fraction(0), 64, seed=3)
    session = one_time_pad_session(config, profile=(3,) * 6)
    assert decode_all(session) == {
        user: session.library[d - 1] for user, d in enumerate(session.demands, start=1)
    }


@pytest.mark.parametrize(
    "num_files, file_bytes, l, calls",
    [
        (18, 8 << 10, 8, 1),  # the bulk shape: ceil(18 * 8192 / 2^18)
        (40, 16 << 10, 8, 3),  # ceil(40 * 16384 / 2^18)
        (20, 48 << 10, 12, 3),  # ceil(20 * 32768 / 2^18), bit-level codec
        (40, 16 << 10, 16, 2),  # ceil(40 * 8192 / 2^18)
        (2, (1 << 18) + 8, 8, 2),  # a file larger than a batch goes alone
    ],
)
def test_the_zero_memory_placement_makes_one_codec_call_per_batch(
        monkeypatch, num_files, file_bytes, l, calls):
    """The library is converted as helper_placement shares it: one codec
    call per batch of whole files that fits in WORDS_PER_CALL symbols, at
    least one file each, and each file's share is its row of the batch."""
    batches = []

    def counted(data, field, count, files=1):
        batches.append(files)
        return bytes_to_symbols(data, field, count, files)

    monkeypatch.setattr(scheme, "bytes_to_symbols", counted)
    config = SystemConfig(1, 2, num_files, Fraction(0), file_bytes, BinaryField(l), seed=4)
    library = tuple(bytes([n]) * (file_bytes - 1) + b"\x81" for n in range(num_files))
    session = one_time_pad_session(config, library=library)
    assert len(batches) == calls and sum(batches) == num_files
    length = session.meta.symbols_per_share
    for data, share in zip(library, session.shares):
        assert share.shape == (1, length)
        assert np.array_equal(share, bytes_to_symbols(data, config.field, length))


# -- memory ----------------------------------------------------------------------
#
# tracemalloc counts NumPy's buffers, so these peaks are the arrays a session
# holds at once.  The session is mn:4,2 (F = 6, Z = 3) with four 4 MiB files at
# GF(2^8): its shares are twice the library, and its keys and broadcasts a
# third of it each.

MEMORY_FILE_BYTES = 4 << 20


def memory_config():
    pda = mn_pda(4, 2)
    return pda, SystemConfig(4, 4, 4, helper_memory_for(pda, 4), MEMORY_FILE_BYTES, seed=1)


def traced_peak(build):
    """(result, peak bytes above what was held before build ran)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_session_peaks_near_its_shares_keys_and_broadcasts():
    # Measured at 2.67 times the library, what the finished session holds;
    # 3.10 while sharing a file also held its subfiles and randomness apart
    # from their stacked input, and 4.67 while the session kept every
    # file's sharing randomness and a key draw held 4 bytes per symbol.
    pda, config = memory_config()
    library = tuple(bytes([n]) * MEMORY_FILE_BYTES for n in range(4))
    session, peak = traced_peak(
        lambda: run_session(pda, config, library=library, profile=(1, 1, 1, 1))
    )
    assert peak <= 2.7 * 4 * MEMORY_FILE_BYTES
    assert not hasattr(session, "randomness")


def test_a_session_of_many_small_files_peaks_near_its_shares_and_one_batch():
    # 256 files of 16 KiB on mn:4,2, so a batch holds 7 files.  Measured at
    # 2.28 times the library: the shares, twice the library, and one
    # batch's input, product and draw, about 1.1 MiB whatever the library;
    # 2.36 while each draw also copied its words to uint32.
    pda, num_files, file_bytes = mn_pda(4, 2), 256, 16 << 10
    config = SystemConfig(4, 4, num_files, helper_memory_for(pda, num_files), file_bytes)
    library = tuple(bytes([n % 256]) * file_bytes for n in range(num_files))
    session, peak = traced_peak(
        lambda: run_session(pda, config, library=library, profile=(1, 1, 1, 1))
    )
    assert len({id(s.base) for s in session.shares}) == -(-num_files // 7)
    assert peak <= 2.3 * num_files * file_bytes


def test_a_zero_memory_session_peaks_near_its_shares_and_one_batch():
    # 64 files of 48 KiB at GF(2^12), 32768 symbols a file, so a batch
    # holds 8 files and the bit-level codec runs 8 times.  Measured at 4.46
    # times the library through decode_all: the shares, 4/3 of the library,
    # and one batch's unpacked bits, 3 bytes a bit, about 9 MiB whatever
    # the library; 26.3 with one codec pass over the whole library.
    num_files, file_bytes = 64, 48 << 10
    config = SystemConfig(1, 4, num_files, Fraction(0), file_bytes, BinaryField(12), seed=2)
    library = tuple(bytes([n]) * file_bytes for n in range(num_files))
    decoded, peak = traced_peak(
        lambda: decode_all(one_time_pad_session(config, library=library))
    )
    assert decoded == {user: library[user - 1] for user in range(1, 5)}
    assert peak <= 4.5 * num_files * file_bytes


def test_decoding_peaks_near_the_session_and_its_outputs():
    # Measured at 4.22 times the library: the session's 2.67, three decoded
    # files, and the last user's (F, L) shares with their product; 4.27
    # while a product's gather could hold 1 MiB.  4.51
    # while decoding stacked a list of shares and copied the symbols once
    # more on their way to bytes, and 4.42 when decode_user keeps its own
    # reference to the shares through the byte assembly.
    pda, config = memory_config()
    library = tuple(bytes([n]) * MEMORY_FILE_BYTES for n in range(4))
    decoded, peak = traced_peak(lambda: decode_all(
        run_session(pda, config, library=library, profile=(1, 1, 1, 1))
    ))
    assert decoded == {user: library[user - 1] for user in range(1, 5)}
    assert peak <= 4.3 * 4 * MEMORY_FILE_BYTES


def test_decoding_users_in_batches_holds_one_batch_beyond_its_outputs():
    # 128 users of mn:4,2, each demanding its own 16 KiB file, so a batch
    # holds 7 users' (F, L) shares.  Measured at 1.49 times the library when
    # every file is kept, and at 0.56 in the CLI's decode checks, which let
    # each file go once compared: one batch's shares, product and bytes and
    # the product's gather, about 1.2 MiB whatever the user count.
    pda, num_users, file_bytes = mn_pda(4, 2), 128, 16 << 10
    config = SystemConfig(4, num_users, num_users, helper_memory_for(pda, num_users),
                          file_bytes, seed=3)
    library = tuple(bytes([n]) * file_bytes for n in range(num_users))
    session = run_session(pda, config, library=library, profile=(32,) * 4)
    users = session.garray.column_users
    meta = session.meta
    assert scheme.WORDS_PER_CALL // (meta.num_shares * meta.symbols_per_share) == 7
    decoded, peak = traced_peak(lambda: dict(decode_users(session, users)))
    assert decoded == {user: library[user - 1] for user in users}
    assert peak <= 1.5 * num_users * file_bytes
    checks, peak = traced_peak(lambda: cli._decode_checks(session))
    assert checks == {user: True for user in users}
    assert peak <= 0.6 * num_users * file_bytes


def test_the_synthetic_library_peaks_at_its_output_plus_one_file():
    # Measured at 1.25 times the output: the library, one file's buffer and
    # one batch of words.
    _, config = memory_config()
    library, peak = traced_peak(lambda: synthetic_library(config))
    assert [len(f) for f in library] == [MEMORY_FILE_BYTES] * 4
    assert peak <= 1.3 * 4 * MEMORY_FILE_BYTES


# -- determinism -------------------------------------------------------------------


def payload_blob(session):
    return b"".join(bytes(v.tolist()) for v in session.transmissions)


def test_same_seed_same_bytes():
    a = make_worked_session(seed=99)
    b = make_worked_session(seed=99)
    assert payload_blob(a) == payload_blob(b)
    assert a.library == b.library


def test_different_seed_different_bytes():
    a = make_worked_session(seed=99)
    b = make_worked_session(seed=100)
    assert payload_blob(a) != payload_blob(b)


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(3, 2, 2, Fraction(1), 4)  # K < Lambda
    with pytest.raises(ValueError):
        SystemConfig(2, 2, 0, Fraction(1), 4)
    with pytest.raises(ValueError):
        SystemConfig(2, 2, 2, Fraction(-1), 4)
    with pytest.raises(ValueError):
        SystemConfig(2, 2, 2, Fraction(1), 0)
    SystemConfig(2, 2, 4, Fraction(1), MAX_LIBRARY_BYTES // 4)
    with pytest.raises(ValueError, match="larger than the"):
        SystemConfig(2, 2, 4, Fraction(1), MAX_LIBRARY_BYTES // 4 + 1)


def drawn_arrays(session):
    """The shares, keys and broadcasts the session's draw contract gives,
    derived from its library and seed without reading its arrays: each
    file shared from the "sharing" stream in file order, one key block
    from the "keys" stream in pair order, and each broadcast its pair's
    key XOR the participants' demanded shares."""
    config, meta, garray = session.config, session.meta, session.garray
    rng = _stream(config.seed, "sharing")
    shares = [
        share_file(data, meta.num_shares, meta.num_random, config.field, rng)[0]
        for data in session.library
    ]
    length = meta.symbols_per_share
    keys = random_vector(len(garray.pairs) * length, config.field,
                         _stream(config.seed, "keys")).reshape(-1, length)
    broadcasts = keys.copy()
    for payload, occurrences in zip(broadcasts, garray.pair_occurrences.values()):
        for row, user in occurrences:
            payload ^= shares[session.demands[user - 1] - 1][row - 1]
    return shares, keys, broadcasts


def array_bytes(shares, keys, broadcasts):
    return ([s.tobytes() for s in shares],
            [k.tobytes() for k in keys],
            [x.tobytes() for x in broadcasts])


@pytest.mark.parametrize("l", [8, 16])
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_decoding_and_verifying_write_into_no_session_array(l, data):
    """Delivery and decoding XOR in place, into arrays of their own only:
    the shares, keys and broadcasts keep the bytes the draws give through
    run_session, decode_all and a strip-pads verify_session.  The shares
    are writable, so a stray in-place XOR would corrupt them silently."""
    session = data.draw(random_pda_sessions(l=l))
    expected = array_bytes(*drawn_arrays(session))
    held = (session.shares, session.key_pool, session.transmissions)
    assert array_bytes(*held) == expected
    for user, file in decode_all(session).items():
        assert file == session.library[session.demands[user - 1] - 1]
    assert array_bytes(*held) == expected
    stripped = strip_pads(session)
    stripped_bytes = array_bytes(stripped.shares, stripped.key_pool, stripped.transmissions)
    verify_session(stripped)
    assert array_bytes(stripped.shares, stripped.key_pool,
                       stripped.transmissions) == stripped_bytes
    assert array_bytes(*held) == expected


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(session=random_pda_sessions())
def test_random_pda_sessions_decode_at_the_rate_and_stay_secret(session):
    assert validate(session.pda.entries) == session.pda.params
    for user, data in decode_all(session).items():
        assert data == session.library[session.demands[user - 1] - 1]
    rate = rate_report(session.pda, session.association.profile)
    assert len(session.transmissions) == rate.num_transmissions
    assert verify_session(session).all_hold
