"""Rank-criterion secrecy checks against enumeration and sabotage."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from seccache import BinaryField, Pda, mn_pda, secrecy
from seccache.scheme import (
    SystemConfig,
    helper_memory_for,
    one_time_pad_session,
    run_session,
)
from seccache.secrecy import (
    SecrecyVerdict,
    SessionAnalyzer,
    _exposing_combination,
    check_external_eavesdropper,
    check_zero_information,
    verify_session,
)
from seccache.sharing import cauchy_matrix
from tests.conftest import (
    WORKED_GRID,
    WORKED_PROFILE,
    brute_force_secrecy,
    cache_model,
    complementary_cache,
    eavesdropper_model,
    enumerate_independence,
    gf_vec_mat,
    make_worked_session,
    random_pda_sessions,
    residual,
    residual_delivery_model,
    scalar_row_reduce,
    share_subset_model,
    variable_assignment,
    zero_memory_sessions,
)


def evaluate_observations(model, w, v):
    """A w + B v for a concrete assignment (test-side, plain loops)."""
    field = model.field
    out = field.zeros(model.obs_dim)
    stacked = np.concatenate([model.obs_files, model.obs_rand], axis=1)
    x = np.concatenate([w, v]).astype(field.dtype)
    for r in range(model.obs_dim):
        acc = 0
        for c in np.nonzero(stacked[r])[0]:
            acc ^= field.mul(int(stacked[r, c]), int(x[c]))
        out[r] = acc
    return out


def tiny_session(profile=(1, 1), num_files=2, l=2, seed=1, strip_pads=False,
                 demands=None):
    num_users = sum(profile)
    pda = mn_pda(len(profile), 1)
    config = SystemConfig(
        num_caches=len(profile),
        num_users=num_users,
        num_files=num_files,
        helper_memory=helper_memory_for(pda, num_files),
        file_bytes=1,
        field=BinaryField(l),
        seed=seed,
    )
    session = run_session(pda, config, profile=profile, demands=demands)
    return secrecy.strip_pads(session) if strip_pads else session


# -- model construction -------------------------------------------------------


def test_zero_inputs_give_zero_observations(worked_session):
    model = SessionAnalyzer(worked_session).user_model(3, include_delivery=True)
    field = model.field
    w = field.zeros(model.file_dim)
    v = field.zeros(model.rand_dim)
    assert not evaluate_observations(model, w, v).any()


def test_obs_dim_counts(worked_session):
    s = worked_session
    fsym = s.meta.symbols_per_share
    n, z, f = 21, 2, 4
    analyzer = SessionAnalyzer(s)
    placement = analyzer.user_model(1, include_delivery=False)
    assert placement.obs_dim == n * z * fsym + (f - z) * fsym
    delivery = analyzer.user_model(1, include_delivery=True)
    assert delivery.obs_dim == placement.obs_dim + 20 * fsym


def test_protected_columns_are_the_files_in_order(worked_session):
    model = SessionAnalyzer(worked_session).user_model(1, include_delivery=True)
    width = model.symbols_per_file
    assert model.protected_columns([3, 1, 3]).tolist() == [
        *range(width), *range(2 * width, 3 * width)
    ]
    assert model.protected_columns(()).size == 0
    for outside in (0, 22):
        with pytest.raises(ValueError, match=f"file {outside} out of range"):
            model.protected_columns({1, outside})


def test_model_reproduces_actual_session_values(worked_session):
    s = worked_session
    analyzer = SessionAnalyzer(s)
    w, v = variable_assignment(analyzer)
    model = analyzer.user_model(5, include_delivery=True)
    values = evaluate_observations(model, w, v)
    for label, value in zip(model.row_labels, values):
        kind, *rest = label
        if kind == "share":
            n, j, pos = rest
            expect = s.shares[n - 1][j - 1][pos]
        elif kind == "key":
            si, i, pos = rest
            expect = s.key_pool[s.garray.pair_index[(si, i)]][pos]
        else:
            si, i, pos = rest
            expect = s.transmissions[s.garray.pair_index[(si, i)]][pos]
        assert int(value) == int(expect), label


def test_unknown_observer(worked_session):
    with pytest.raises(ValueError):
        SessionAnalyzer(worked_session).user_model(99, include_delivery=True)


# -- scheme-level secrecy -----------------------------------------------------


def test_worked_example_full_report(worked_session):
    report = verify_session(worked_session)
    assert report.all_hold
    assert set(report.cache_placement) == set(range(1, 7))
    assert set(report.user_delivery) == set(range(1, 22))


def test_verdict_rejects_an_inconsistent_witness():
    with pytest.raises(ValueError):
        SecrecyVerdict(False)
    with pytest.raises(ValueError):
        SecrecyVerdict(True, witness=np.ones(1, dtype=np.uint8))


def test_every_cache_placement_holds(worked_session):
    analyzer = SessionAnalyzer(worked_session)
    for lam in range(1, 7):
        verdict = check_zero_information(cache_model(analyzer, lam), range(1, 22))
        assert verdict.holds


def test_delivery_scope_protects_everything_but_the_demand(worked_session):
    model = SessionAnalyzer(worked_session).user_model(4, include_delivery=True)
    protected = set(range(1, 22)) - {worked_session.demands[3]}
    assert check_zero_information(model, protected).holds


def test_sabotaged_delivery_fails_with_valid_witness():
    sabotaged = make_worked_session(strip_pads=True)
    model = SessionAnalyzer(sabotaged).user_model(2, include_delivery=True)
    protected = set(range(1, 22)) - {sabotaged.demands[1]}
    verdict = check_zero_information(model, protected)
    assert not verdict.holds
    # witness kills the randomness columns and hits a protected file column
    field = model.field
    assert not any(gf_vec_mat(field, verdict.witness, model.obs_rand))
    exposed = gf_vec_mat(
        field, verdict.witness, model.obs_files[:, model.protected_columns(protected)]
    )
    assert any(exposed)
    assert verdict.witness_rows  # labeled summary available
    assert verdict.witness_summary()


def test_witness_is_nonconstant_in_a_protected_symbol():
    sabotaged = make_worked_session(strip_pads=True)
    model = SessionAnalyzer(sabotaged).user_model(2, include_delivery=True)
    protected = set(range(1, 22)) - {sabotaged.demands[1]}
    verdict = check_zero_information(model, protected)
    field = model.field
    cols = model.protected_columns(protected)
    exposed = gf_vec_mat(field, verdict.witness, model.obs_files[:, cols])
    target = int(cols[next(i for i, c in enumerate(exposed) if c)])

    def combine(w):
        v = field.zeros(model.rand_dim)
        obs = evaluate_observations(model, w, v)
        acc = 0
        for c_phi, y in zip(verdict.witness, obs):
            acc ^= field.mul(int(c_phi), int(y))
        return acc

    w0 = field.zeros(model.file_dim)
    w1 = field.zeros(model.file_dim)
    w1[target] = 1
    assert combine(w0) != combine(w1)


def test_eavesdropper_holds_on_worked_example(worked_session):
    assert check_external_eavesdropper(worked_session).holds


def mn_6_1_stripped_session():
    # 6 caches, t=1: each demanded file sheds F-Z = 5 shares against only
    # Z = 1 randomness symbol, so unpadded broadcasts must leak.
    pda = mn_pda(6, 1)
    config = SystemConfig(6, 6, 6, helper_memory_for(pda, 6), 1,
                          field=BinaryField(8), seed=4)
    return secrecy.strip_pads(run_session(pda, config, profile=(1,) * 6))


def test_eavesdropper_fails_when_pads_stripped():
    verdict = check_external_eavesdropper(mn_6_1_stripped_session())
    assert not verdict.holds


def test_strip_pads_returns_a_padless_copy(worked_session):
    sent = worked_session.transmissions.copy()
    stripped = secrecy.strip_pads(worked_session)
    assert stripped.pads_stripped and not worked_session.pads_stripped
    assert worked_session.transmissions.shape == sent.shape
    for p, x in enumerate(sent):
        assert np.array_equal(worked_session.transmissions[p], x)
    # each stripped payload is the XOR of the participants' demanded shares
    garray = worked_session.garray
    assert len(stripped.transmissions) == len(garray.pair_occurrences)
    for p, occurrences in enumerate(garray.pair_occurrences.values()):
        want = np.zeros_like(sent[p])
        for row, user in occurrences:
            demand = worked_session.demands[user - 1]
            want ^= worked_session.shares[demand - 1][row - 1]
        assert np.array_equal(stripped.transmissions[p], want)


def test_strip_pads_refuses_a_stripped_session():
    # Stripping twice would put the pads back under a stripped flag: every
    # user of mn:4,2 with one user per cache would decode, and verify would
    # report the leaks of a session that has none.
    pda = mn_pda(4, 2)
    config = SystemConfig(4, 4, 4, helper_memory_for(pda, 4), 2,
                          field=BinaryField(8), seed=3)
    stripped = secrecy.strip_pads(run_session(pda, config, profile=(1, 1, 1, 1)))
    with pytest.raises(ValueError, match="^the session's pads are already stripped$"):
        secrecy.strip_pads(stripped)


def test_no_transmissions_is_vacuously_secret():
    session = tiny_session((1, 1), l=3)
    none = session.key_pool[:0]
    session = replace(session, garray=replace(session.garray, pair_occurrences={}),
                      key_pool=none, transmissions=none,
                      user_keys={user: () for user in session.user_keys})
    analyzer = SessionAnalyzer(session)
    model = eavesdropper_model(analyzer)
    assert model.obs_dim == 0
    assert check_zero_information(model, [1, 2]).holds
    assert verify_session(session).all_hold
    assert verify_session(secrecy.strip_pads(session)).all_hold


# -- sharing-level secrecy ------------------------------------------------------


@pytest.mark.parametrize("z,f", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
def test_share_subsets_reveal_nothing_until_complete(z, f):
    field = BinaryField(3)
    enc = cauchy_matrix(f, field)
    for subset in combinations(range(1, f + 1), z):
        model = share_subset_model(enc, z, subset, field)
        assert check_zero_information(model, [1]).holds, subset
    full = share_subset_model(enc, z, tuple(range(1, f + 1)), field)
    assert not check_zero_information(full, [1]).holds


def test_more_than_z_shares_leak():
    field = BinaryField(3)
    enc = cauchy_matrix(4, field)
    model = share_subset_model(enc, 2, (1, 2, 3), field)
    assert not check_zero_information(model, [1]).holds


# -- brute-force oracle -----------------------------------------------------------


def test_brute_force_single_share_is_independent(gf2):
    enc = cauchy_matrix(2, gf2)
    model = share_subset_model(enc, 1, (1,), gf2)
    assert enumerate_independence(model, [1])  # 4*4 = 16 cases
    assert check_zero_information(model, [1]).holds


def test_brute_force_both_shares_determine_the_file(gf2):
    enc = cauchy_matrix(2, gf2)
    model = share_subset_model(enc, 1, (1, 2), gf2)
    assert not enumerate_independence(model, [1])
    assert not check_zero_information(model, [1]).holds


def test_brute_force_agrees_on_tiny_scheme():
    session = tiny_session((1, 1), num_files=2, l=3)
    for user in (1, 2):
        protected = {1, 2} - {session.demands[user - 1]}
        verdict = brute_force_secrecy(session, user, protected)
        rank = check_zero_information(
            SessionAnalyzer(session, positions=1).user_model(user, True), protected
        )
        assert verdict.holds == rank.holds is True
        # the unrestricted model agrees as well
        assert check_zero_information(
            SessionAnalyzer(session).user_model(user, True), protected
        ).holds


def test_brute_force_flags_sabotage():
    session = tiny_session((2, 0), num_files=2, l=2, strip_pads=True,
                           demands=(1, 2))
    verdict = brute_force_secrecy(session, 2, {1})
    rank = check_zero_information(
        SessionAnalyzer(session, positions=1).user_model(2, True), {1}
    )
    assert verdict.holds == rank.holds is False
    assert verdict.witness is not None


def test_brute_force_guard():
    session = make_worked_session()  # far too large
    with pytest.raises(ValueError, match="too large"):
        brute_force_secrecy(session, 1, {2})


def test_enumeration_size_guard(gf2):
    enc = cauchy_matrix(2, gf2)
    model = share_subset_model(enc, 1, (1,), gf2)
    with pytest.raises(ValueError):
        enumerate_independence(model, [1], max_symbols=1)


def solvable(field, mat_b, target):
    """Test-side oracle: is B x = target solvable?  Eliminates [B | target]
    with the plain-list `scalar_row_reduce`."""
    augmented = [list(r) + [t] for r, t in zip(mat_b, target)]
    rows, _ = scalar_row_reduce(field, augmented, mat_b.shape[1])
    # inconsistent iff some row is all-zero except the augmented entry
    return not any(
        all(v == 0 for v in row[:-1]) and row[-1] != 0 for row in rows
    )


def test_rank_criterion_matches_solvability_oracle(gf3):
    # holds <=> every protected column of A is a solvable target for B
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for _ in range(60):
        obs = rng.randint(1, 6)
        rb = rng.randint(0, 4)
        fa = rng.randint(1, 4)
        b = gf3.zeros(obs, rb)
        a = gf3.zeros(obs, fa)
        for mat in (b, a):
            for r in range(obs):
                for c in range(mat.shape[1]):
                    mat[r, c] = rng.randrange(8)
        witness = _exposing_combination(gf3, b, a)
        expected = all(solvable(gf3, b, a[:, c]) for c in range(fa))
        assert (witness is None) == expected
        outcomes[expected] += 1
        if witness is not None:
            # the witness really kills B and hits A
            assert not any(gf_vec_mat(gf3, witness, b))
            assert any(gf_vec_mat(gf3, witness, a))
    assert outcomes[True] and outcomes[False]


def test_zero_randomness_exposes_the_first_nonzero_row(gf3, monkeypatch):
    def no_elimination(*args):
        raise AssertionError("B has no nonzero column to pivot on")

    monkeypatch.setattr(secrecy, "_echelon", no_elimination)
    a = gf3.zeros(4, 2)
    a[2, 1], a[3, 0] = 5, 1
    for b in (gf3.zeros(4, 0), gf3.zeros(4, 3)):
        witness = _exposing_combination(gf3, b, a)
        assert witness.dtype == gf3.dtype and witness.tolist() == [0, 0, 1, 0]
    assert _exposing_combination(gf3, gf3.zeros(4, 3), gf3.zeros(4, 2)) is None


# -- randomized scheme sweep -------------------------------------------------------


def test_random_small_instances_satisfy_all_conditions():
    rng = random.Random(11)
    for _ in range(10):
        num_caches = rng.randint(2, 4)
        t = rng.randint(1, num_caches - 1)
        pda = mn_pda(num_caches, t)
        num_users = rng.randint(num_caches, 8)
        buckets = [0] * num_caches
        for _ in range(num_users):
            buckets[rng.randrange(num_caches)] += 1
        config = SystemConfig(
            num_caches, num_users, num_users,
            helper_memory_for(pda, num_users), 1,
            field=BinaryField(8), seed=rng.getrandbits(32),
        )
        session = run_session(pda, config, profile=tuple(buckets))
        assert verify_session(session).all_hold


# -- one-position verification ------------------------------------------------


def test_positions_below_one_are_rejected():
    stripped = make_worked_session(strip_pads=True)
    for positions in (0, -1):
        with pytest.raises(ValueError, match="positions"):
            SessionAnalyzer(stripped, positions)
    session = tiny_session((2, 0), num_files=2, l=2, strip_pads=True,
                           demands=(1, 2))
    with pytest.raises(ValueError, match="positions"):
        brute_force_secrecy(session, 2, {1}, positions=0)


def report_checks(report):
    """(name, verdict) for every check of a report, in a fixed order."""
    return [
        *((("cache", lam), v) for lam, v in report.cache_placement.items()),
        *((("placement", u), v) for u, v in report.user_placement.items()),
        *((("delivery", u), v) for u, v in report.user_delivery.items()),
        (("eavesdropper",), report.eavesdropper),
    ]


def dense_report(session, positions=None):
    """verify_session's battery, every check run on the dense model of the
    first `positions` symbol positions (all of them for None)."""
    analyzer = SessionAnalyzer(session, positions)
    all_files = range(1, session.config.num_files + 1)
    users = session.garray.column_users
    return secrecy.SecrecyReport(
        {lam: check_zero_information(cache_model(analyzer, lam), all_files)
         for lam in range(1, session.config.num_caches + 1)},
        {u: check_zero_information(analyzer.user_model(u, False), all_files)
         for u in users},
        {u: check_zero_information(analyzer.user_model(u, True),
                                   set(all_files) - {session.demands[u - 1]})
         for u in users},
        check_zero_information(eavesdropper_model(analyzer), all_files),
    )


def position_major(count, positions):
    """Index order that takes position-innermost rows or columns to
    position-major ones."""
    return np.arange(count).reshape(-1, positions).T.ravel()


@st.composite
def small_sessions(draw):
    num_caches = draw(st.integers(2, 3))
    pda = mn_pda(num_caches, draw(st.integers(1, num_caches - 1)))
    l = draw(st.integers(2, 16))
    assume(1 << l >= 2 * pda.num_rows)  # room for the Cauchy matrix
    caches = draw(st.lists(st.integers(1, num_caches), min_size=num_caches,
                           max_size=4))
    profile = tuple(caches.count(c) for c in range(1, num_caches + 1))
    num_files = draw(st.integers(1, 3))
    demands = tuple(draw(st.lists(st.integers(1, num_files), min_size=len(caches),
                                  max_size=len(caches))))
    config = SystemConfig(
        num_caches, len(caches), num_files, helper_memory_for(pda, num_files),
        draw(st.integers(1, 40)), field=BinaryField(l),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    session = run_session(pda, config, profile=profile, demands=demands)
    return secrecy.strip_pads(session) if draw(st.booleans()) else session


EXACTNESS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@EXACTNESS
@given(session=small_sessions())
def test_full_width_model_is_identity_kron_one_position_model(session):
    analyzer = SessionAnalyzer(session)
    one = SessionAnalyzer(session, positions=1)
    width = session.meta.symbols_per_share
    for full, m1 in [
        *((analyzer.user_model(u, True), one.user_model(u, True))
          for u in session.garray.column_users),
        (eavesdropper_model(analyzer), eavesdropper_model(one)),
    ]:
        rows = position_major(full.obs_dim, width)
        eye = np.eye(width, dtype=full.obs_files.dtype)
        for got, base in ((full.obs_files, m1.obs_files), (full.obs_rand, m1.obs_rand)):
            cols = position_major(got.shape[1], width)
            assert np.array_equal(got[rows][:, cols], np.kron(eye, base))
        assert [full.row_labels[r] for r in rows] == [
            (*label[:-1], pos) for pos in range(width) for label in m1.row_labels
        ]


@EXACTNESS
@given(session=small_sessions())
def test_verify_session_matches_the_full_width_report(session):
    got = report_checks(verify_session(session))
    want = report_checks(dense_report(session))
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, one), (_, full) in zip(got, want):
        assert one.holds == full.holds, name
        assert one.witness_summary() == full.witness_summary(), name
    assert check_external_eavesdropper(session).holds == want[-1][1].holds


@EXACTNESS
@given(session=small_sessions().map(
    lambda session: session if session.pads_stripped else secrecy.strip_pads(session)))
def test_one_position_witness_lifts_to_the_full_width_model(session):
    width = session.meta.symbols_per_share
    analyzer = SessionAnalyzer(session)
    one = SessionAnalyzer(session, positions=1)
    all_files = set(range(1, session.config.num_files + 1))
    failing = 0
    for user in session.garray.column_users:
        protected = all_files - {session.demands[user - 1]}
        verdict = check_zero_information(one.user_model(user, True), protected)
        if verdict.holds:
            continue
        failing += 1
        full = analyzer.user_model(user, True)
        index = {label: r for r, label in enumerate(full.row_labels)}
        for pos in {0, width - 1}:
            phi = full.field.zeros(full.obs_dim)
            for (*label, _), coeff in verdict.witness_rows:
                phi[index[(*label, pos)]] = coeff
            assert not any(gf_vec_mat(full.field, phi, full.obs_rand))
            exposed = full.obs_files[:, full.protected_columns(protected)]
            assert any(gf_vec_mat(full.field, phi, exposed))
    assume(failing)  # some stripped sessions leak nothing (e.g. one file)


def maybe_stripped(sessions):
    return st.tuples(sessions, st.booleans()).map(
        lambda drawn: secrecy.strip_pads(drawn[0]) if drawn[1] else drawn[0]
    )


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(session=st.one_of(
    small_sessions(),
    maybe_stripped(zero_memory_sessions()),
    maybe_stripped(random_pda_sessions()),
))
def test_verify_session_matches_the_dense_one_position_battery(session):
    got = report_checks(verify_session(session))
    want = report_checks(dense_report(session, positions=1))
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, reduced), (_, dense) in zip(got, want):
        assert reduced.holds == dense.holds, name
        assert reduced.witness_summary() == dense.witness_summary(), name
        if not dense.holds:
            assert np.array_equal(reduced.witness, dense.witness), name


def test_a_cache_without_z_shares_is_an_error(worked_session):
    rows = list(worked_session.cached_rows)
    rows[2] = rows[2][:1]
    broken = replace(worked_session, cached_rows=tuple(rows))
    with pytest.raises(RuntimeError, match="cache 3 holds 1 share rows"):
        verify_session(broken)


@pytest.mark.parametrize("rows", [(1, 1), (0, 3), (1, 5)],
                         ids=["duplicate", "row-0", "row-F+1"])
def test_a_cache_must_list_z_distinct_rows_in_range(worked_session, rows):
    # cache 2 holds shares 1 and 3 of F = 4
    assert worked_session.cached_rows[1] == (1, 3)
    cached = list(worked_session.cached_rows)
    cached[1] = rows
    broken = replace(worked_session, cached_rows=tuple(cached))
    with pytest.raises(RuntimeError, match=r"cache 2 holds 2 share rows .* distinct rows in 1\.\.4"):
        verify_session(broken)


def test_verification_cost_does_not_grow_with_file_size(monkeypatch):
    # a clean verify eliminates nothing, so the sessions are stripped: their
    # failing caches' inverses and the eavesdropper eliminate
    shapes = []

    def recording(echelon):
        def recorded(field, mat, pivot_cols):
            shapes.append((mat.shape, pivot_cols))
            return echelon(field, mat, pivot_cols)
        return recorded

    monkeypatch.setattr(secrecy, "_echelon", recording(secrecy._echelon))
    monkeypatch.setattr(BinaryField, "echelon", recording(BinaryField.echelon))
    by_size = {}
    for file_bytes in (4, 2048):
        shapes.clear()
        verify_session(secrecy.strip_pads(make_worked_session(file_bytes=file_bytes)))
        by_size[file_bytes] = list(shapes)
    assert by_size[4] and by_size[4] == by_size[2048]


def test_failing_witnesses_take_no_elimination(monkeypatch):
    # with the pads on nothing inverts or eliminates; stripping them adds one
    # inverse for each cache's cancel rows, as every cache has a failing
    # user, and one elimination for the eavesdropper's one-position model,
    # and no failing delivery witness takes one, as each is lifted in closed
    # form
    counts = []
    echelon, invert = secrecy._echelon, secrecy.invert_matrix

    def eliminating(field, mat, pivot_cols):
        counts[-1]["eliminations"] += pivot_cols > 0
        return echelon(field, mat, pivot_cols)

    def inverting(mat, field):
        counts[-1]["inverses"] += 1
        return invert(mat, field)

    monkeypatch.setattr(secrecy, "_echelon", eliminating)
    monkeypatch.setattr(secrecy, "invert_matrix", inverting)
    for strip in (False, True):
        counts.append({"inverses": 0, "eliminations": 0})
        report = verify_session(make_worked_session(strip_pads=strip))
        assert report.all_hold != strip
    assert counts == [{"inverses": 0, "eliminations": 0}, {"inverses": 6, "eliminations": 1}]


def mn_10_3_session():
    """mn:10,3 (F = 120, Z = 36) with two users per cache and N = K = 20."""
    pda = mn_pda(10, 3)
    config = SystemConfig(10, 20, 20, helper_memory_for(pda, 20), 2,
                          field=BinaryField(8), seed=3)
    return run_session(pda, config, profile=(2,) * 10)


def counting_field_arithmetic(monkeypatch):
    """Patch every elimination, the secrecy module's and those of its
    inverses, and every field product to count their calls, and forbid
    building a one-position model."""
    calls = {"echelon": 0, "matmul": 0}
    matmul = BinaryField.matmul

    def eliminating(echelon):
        def counted(field, mat, pivot_cols):
            calls["echelon"] += 1
            return echelon(field, mat, pivot_cols)
        return counted

    def multiplying(self, coeffs, symbols):
        calls["matmul"] += 1
        return matmul(self, coeffs, symbols)

    def no_dense_model(*args, **kwargs):
        raise AssertionError("a clean verify builds no one-position model")

    monkeypatch.setattr(secrecy, "_echelon", eliminating(secrecy._echelon))
    monkeypatch.setattr(BinaryField, "echelon", eliminating(BinaryField.echelon))
    monkeypatch.setattr(BinaryField, "matmul", multiplying)
    monkeypatch.setattr(secrecy, "SessionAnalyzer", no_dense_model)
    return calls


@pytest.mark.parametrize("make", [make_worked_session, mn_10_3_session])
def test_a_clean_verify_runs_no_field_arithmetic(monkeypatch, make):
    session = make()
    calls = counting_field_arithmetic(monkeypatch)
    assert verify_session(session).all_hold
    assert calls == {"echelon": 0, "matmul": 0}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(session=st.one_of(random_pda_sessions(), zero_memory_sessions()))
@example(session=one_time_pad_session(  # Z = 0
    SystemConfig(2, 3, 2, Fraction(0), 4, seed=1), profile=(2, 1), demands=(1, 2, 1)))
def test_every_untampered_pads_on_session_passes_with_no_field_arithmetic(
    monkeypatch, session
):
    with monkeypatch.context() as patched:
        calls = counting_field_arithmetic(patched)
        assert verify_session(session).all_hold
    assert calls == {"echelon": 0, "matmul": 0}


def check_pads_on_failing_witnesses(session, cache):
    """Give the cache its complementary Z shares: its randomness block stays
    invertible, but its users' broadcasts now expose what they lack."""
    session = complementary_cache(session, cache)
    got = report_checks(verify_session(session))
    want = report_checks(dense_report(session, positions=1))
    assert [(name, v.holds) for name, v in got] == [(name, v.holds) for name, v in want]
    dense = SessionAnalyzer(session, positions=1)
    all_files = set(range(1, session.config.num_files + 1))
    failing = [(name, v) for name, v in got if not v.holds]
    assert failing and {kind for (kind, _), _ in failing} == {"delivery"}
    for (_, user), verdict in failing:
        model = dense.user_model(user, True)
        protected = all_files - {session.demands[user - 1]}
        exposed = model.obs_files[:, model.protected_columns(protected)]
        assert not any(gf_vec_mat(model.field, verdict.witness, model.obs_rand))
        assert any(gf_vec_mat(model.field, verdict.witness, exposed))
        assert [c for (kind, *_), c in verdict.witness_rows if kind == "key"] == [1]
        # the closed-form lift lays its rows out as the one-position model
        assert len(verdict.witness) == model.obs_dim
        assert verdict.witness_rows == tuple(
            (model.row_labels[r], int(verdict.witness[r]))
            for r in np.flatnonzero(verdict.witness)
        )


@pytest.mark.parametrize("cache", range(1, 7))
def test_pads_on_failing_witnesses_are_valid(worked_session, cache):
    check_pads_on_failing_witnesses(worked_session, cache)


@pytest.mark.parametrize("cache", range(1, 7))
def test_pads_on_witnesses_place_keys_in_sorted_order(worked_session, cache):
    # with the rows reversed every column lists its integers in decreasing
    # order, so a user's sorted keys differ from its column order
    pda = Pda.from_grid(WORKED_GRID[::-1])
    session = run_session(pda, worked_session.config, profile=WORKED_PROFILE)
    check_pads_on_failing_witnesses(session, cache)


@st.composite
def delivery_sessions(draw, stripped=None):
    """A random PDA, M = 0 or worked-example session, demands repeating at
    times, with one cache given shares it lacked (`complementary_cache`) at
    times, and with or without its pads (drawn when `stripped` is None).
    With the pads on, a tampered cache's users fail only where another
    user's demand differs, which the worked example's 21 distinct demands
    ensure."""
    session = draw(st.one_of(
        zero_memory_sessions(),
        random_pda_sessions(),
        st.builds(make_worked_session, seed=st.integers(0, 2**32 - 1)),
    ))
    if session.meta.num_random and draw(st.booleans()):
        cache = draw(st.integers(1, session.config.num_caches))
        session = complementary_cache(session, cache)
    if stripped is None:
        stripped = draw(st.booleans())
    return secrecy.strip_pads(session) if stripped else session


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(session=delivery_sessions())
@example(session=complementary_cache(make_worked_session(), 2))
@example(session=secrecy.strip_pads(complementary_cache(make_worked_session(), 5)))
def test_carried_share_table_is_the_residual_model_in_other_columns(session):
    config = session.config
    field, f, z = config.field, session.meta.num_shares, session.meta.num_random
    shapes = []
    matmul = BinaryField.matmul

    def recording(self, coeffs, symbols):
        product = matmul(self, coeffs, symbols)
        shapes.append(product.shape)
        return product

    with mock.patch.object(BinaryField, "matmul", recording):
        report = verify_session(session)
    # the cancel rows C_v (C_v^lam)^-1 of each cache with a failing user, and
    # no R_lam
    cache_of = session.association.user_to_cache
    failing = {cache_of[u - 1] for u, v in report.user_delivery.items() if not v.holds}
    assert shapes == [(f, z)] * len(failing)
    all_files = set(range(1, config.num_files + 1))
    table = secrecy._carried_shares(session)
    for user in session.garray.column_users:
        lam = cache_of[user - 1]
        r_lam, cancel = residual(session, lam)
        assert np.array_equal(secrecy._cancel_rows(session, lam), cancel)
        want = residual_delivery_model(session, user, r_lam)
        lacked = [j - 1 for j in range(1, f + 1) if j not in session.cached_rows[lam - 1]]
        got = secrecy._delivery_model(session, user, table, lacked)
        assert got.row_labels == want.row_labels and got.rand_dim == 0
        # A_reference = A_table . blockdiag(S_lam), S_lam = R_lam at the
        # shares the cache lacks
        blocks = np.kron(np.eye(config.num_files, dtype=field.dtype), r_lam[lacked])
        assert np.array_equal(field.matmul(got.obs_files, blocks), want.obs_files)
        protected = all_files - {session.demands[user - 1]}
        reference = check_zero_information(want, protected)
        reduced = check_zero_information(got, protected)
        assert reduced.witness_rows == reference.witness_rows
        verdict = report.user_delivery[user]
        assert verdict.holds == reference.holds
        if not verdict.holds:
            broadcasts = [row for row in verdict.witness_rows if row[0][0] == "x"]
            assert broadcasts == list(reference.witness_rows)


def dense_eavesdropper_check(session):
    """The broadcast-only check on the dense one-position model."""
    model = eavesdropper_model(SessionAnalyzer(session, positions=1))
    return check_zero_information(model, range(1, session.config.num_files + 1))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(session=delivery_sessions(stripped=True))
@example(session=make_worked_session(strip_pads=True))
@example(session=secrecy.strip_pads(complementary_cache(make_worked_session(), 3)))
@example(session=mn_6_1_stripped_session())
def test_stripped_eavesdropper_on_the_table_is_the_dense_check(session):
    reduced, dense = check_external_eavesdropper(session), dense_eavesdropper_check(session)
    assert reduced.holds == dense.holds
    assert reduced.witness_summary() == dense.witness_summary()
    if not dense.holds:
        assert np.array_equal(reduced.witness, dense.witness)


@pytest.mark.parametrize("make", [
    lambda: make_worked_session(strip_pads=True),
    lambda: secrecy.strip_pads(complementary_cache(make_worked_session(), 2)),
    mn_6_1_stripped_session,
], ids=["worked", "complementary", "mn-6-1"])
def test_a_stripped_verify_builds_no_dense_model(monkeypatch, make):
    session = make()
    want = report_checks(dense_report(session, positions=1))

    def no_dense_model(*args, **kwargs):
        raise AssertionError("verify builds no dense model")

    monkeypatch.setattr(secrecy, "SessionAnalyzer", no_dense_model)
    got = report_checks(verify_session(session))
    assert not all(v.holds for _, v in got)
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, reduced), (_, dense) in zip(got, want):
        assert reduced.holds == dense.holds, name
        assert reduced.witness_summary() == dense.witness_summary(), name
        if not dense.holds:
            assert np.array_equal(reduced.witness, dense.witness), name
