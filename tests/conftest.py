"""Shared fixtures: the 6-cache/21-user worked example, small helpers,
the test-side oracles (scalar inverse, elimination and vector-matrix
product, polynomial irreducibility, the association of a user-to-cache
assignment, the distribution-enumeration secrecy oracle, a session's
actual variable values, the eq. 7 rate, the simplified unit-cache bound,
the dense observation models of a share subset, of a cache and of the
eavesdropper, and the R_lam delivery reduction that the carried-share
table is checked against), a cache tamper that keeps verify running, and
Hypothesis strategies for random valid PDAs that are not MN and for
sessions of those PDAs and of the M = 0 scheme."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from seccache import BinaryField, Pda, SystemConfig, mn_pda, run_session, secrecy
from seccache.bounds import lambda_of_s
from seccache.scheme import Association, _stream, helper_memory_for, one_time_pad_session
from seccache.secrecy import (
    LinearObservationModel,
    SecrecyVerdict,
    SessionAnalyzer,
    check_zero_information,
)
from seccache.sharing import bytes_to_subfiles, cauchy_matrix, random_vector

# The 4x6 reference array used throughout: (Lambda, F, Z, S) = (6, 4, 2, 4).
WORKED_GRID = (
    (None, None, None, 1, 2, 3),
    (None, 1, 2, None, None, 4),
    (1, None, 3, None, 4, None),
    (2, 3, None, 4, None, None),
)

WORKED_PROFILE = (6, 5, 4, 3, 2, 1)

# Expected per-user expansion of the reference array for the profile above,
# written user-major (column k of the array is row k here).
WORKED_G_COLUMNS = (
    (None, None, (1, 1), (2, 1)),
    (None, None, (1, 2), (2, 2)),
    (None, None, (1, 3), (2, 3)),
    (None, None, (1, 4), (2, 4)),
    (None, None, (1, 5), (2, 5)),
    (None, None, (1, 6), (2, 6)),
    (None, (1, 1), None, (3, 1)),
    (None, (1, 2), None, (3, 2)),
    (None, (1, 3), None, (3, 3)),
    (None, (1, 4), None, (3, 4)),
    (None, (1, 5), None, (3, 5)),
    (None, (2, 1), (3, 1), None),
    (None, (2, 2), (3, 2), None),
    (None, (2, 3), (3, 3), None),
    (None, (2, 4), (3, 4), None),
    ((1, 1), None, None, (4, 1)),
    ((1, 2), None, None, (4, 2)),
    ((1, 3), None, None, (4, 3)),
    ((2, 1), None, (4, 1), None),
    ((2, 2), None, (4, 2), None),
    ((3, 1), (4, 1), None, None),
)


@pytest.fixture(scope="session")
def gf8():
    return BinaryField(8)


@pytest.fixture(scope="session")
def gf3():
    return BinaryField(3)


@pytest.fixture(scope="session")
def gf2():
    return BinaryField(2)


@pytest.fixture
def worked_pda():
    return Pda.from_grid(WORKED_GRID)


def make_worked_session(seed=7, file_bytes=4, field=None, strip_pads=False,
                        demands=None):
    """The full 21-user reference run (N = 21, M = 21, distinct demands)."""
    pda = Pda.from_grid(WORKED_GRID)
    field = field or BinaryField(3)
    config = SystemConfig(
        num_caches=6,
        num_users=21,
        num_files=21,
        helper_memory=helper_memory_for(pda, 21),
        file_bytes=file_bytes,
        field=field,
        seed=seed,
    )
    session = run_session(pda, config, profile=WORKED_PROFILE, demands=demands)
    return secrecy.strip_pads(session) if strip_pads else session


@pytest.fixture
def worked_session():
    return make_worked_session()


def field_inv(field, a):
    """Multiplicative inverse a^(q - 2) by scalar powering; raises
    ZeroDivisionError for 0."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^l)")
    if a >= field.order:
        raise ValueError(f"{a} is not a field element")
    return field.pow(a, field.order - 2)


def scalar_row_reduce(field, rows, pivot_cols):
    """Test-side oracle: Gauss-Jordan elimination on plain lists of ints with
    scalar field arithmetic, written independently of the package's numpy
    kernel.  Pivots come from the first pivot_cols columns, each the first
    nonzero entry at or below the pivot row.  Returns (reduced rows, pivot
    count)."""
    rows = [list(map(int, r)) for r in rows]
    pivot_row = 0
    for col in range(pivot_cols):
        pivot = next(
            (r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = field_inv(field, rows[pivot_row][col])
        rows[pivot_row] = [field.mul(inv, v) for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [
                    v ^ field.mul(f, w) for v, w in zip(rows[r], rows[pivot_row])
                ]
        pivot_row += 1
    return rows, pivot_row


def poly_mod(a, b):
    """Remainder of a divided by b, both GF(2)[x] polynomials as ints."""
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def is_irreducible(poly, degree):
    """Exhaustive trial division by every polynomial of degree 1..degree//2."""
    if poly.bit_length() - 1 != degree:
        return False
    for d in range(1, degree // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if poly_mod(poly, q) == 0:
                return False
    return True


def associate_by_assignment(assignment, num_caches):
    """The association of a per-user cache label vector (labels in [1,
    Lambda]), built by scanning the users once per cache: caches relabeled
    by load, descending, ties in label order, each group in user order.  The
    reference that `Association.from_profile` is checked against."""
    loads = [0] * num_caches
    for cache in assignment:
        loads[cache - 1] += 1
    cache_order = tuple(sorted(range(1, num_caches + 1), key=lambda c: (-loads[c - 1], c)))
    new_label = {orig: new for new, orig in enumerate(cache_order, start=1)}
    return Association(
        profile=tuple(loads[c - 1] for c in cache_order),
        groups=tuple(
            tuple(u for u, c in enumerate(assignment, start=1) if c == orig)
            for orig in cache_order
        ),
        user_to_cache=tuple(new_label[c] for c in assignment),
        cache_order=cache_order,
    )


def gf_vec_mat(field, phi, mat):
    """phi @ mat over the field (test-side, plain loops)."""
    out = [0] * mat.shape[1]
    for r, c_phi in enumerate(phi):
        if c_phi == 0:
            continue
        for c in np.nonzero(mat[r])[0]:
            out[c] ^= field.mul(int(c_phi), int(mat[r, c]))
    return out


def variable_assignment(analyzer):
    """A session's actual (w, v) values, for model validation: w is every
    file's subfiles, v every file's randomness and then every pair's key,
    each vector cut to the analyzer's symbols per share.

    The session keeps no sharing randomness, so it is redrawn here from the
    seed's "sharing" stream: one draw of Z * L symbols per file, in file
    order, which is the draw contract the golden run directories rely on."""
    session, meta = analyzer.session, analyzer.session.meta
    field = session.config.field
    subfiles = [
        bytes_to_subfiles(data, meta.num_shares, meta.num_random, field)[0]
        for data in session.library
    ]
    rng, length = _stream(session.config.seed, "sharing"), meta.symbols_per_share
    randomness = [
        random_vector(meta.num_random * length, field, rng).reshape(meta.num_random, length)
        for _ in session.library
    ]

    def flat(blocks):
        return np.concatenate([blk[:, : analyzer.fsym].ravel() for blk in blocks])

    return flat(subfiles), flat([*randomness, session.key_pool])


def enumerate_independence(model, protected, max_symbols=12, max_states=1 << 22):
    """Enumerate every (w, v), build the exact joint distribution of
    (protected file symbols, observations), and test independence.

    Deliberately ignorant of the rank criterion: it compares empirical
    joint counts against the product of the marginals.
    """
    field = model.field
    dims = model.file_dim + model.rand_dim
    states = field.order**dims
    if dims > max_symbols or states > max_states:
        raise ValueError(
            f"instance too large to enumerate ({dims} symbols over "
            f"GF(2^{field.l}))"
        )

    codes = np.arange(states, dtype=np.int64)
    inputs = np.empty((states, dims), dtype=field.dtype)
    for d in range(dims):
        inputs[:, d] = (codes // (field.order**d)) % field.order

    stacked = np.concatenate([model.obs_files, model.obs_rand], axis=1)
    obs = field.matmul(stacked, inputs.T).T

    wp = inputs[:, model.protected_columns(protected)]
    joint = np.concatenate([wp, obs], axis=1)
    joint_rows, joint_counts = np.unique(joint, axis=0, return_counts=True)
    wp_rows, wp_inverse = np.unique(
        joint_rows[:, : wp.shape[1]], axis=0, return_inverse=True
    )
    obs_rows, obs_inverse = np.unique(
        joint_rows[:, wp.shape[1] :], axis=0, return_inverse=True
    )
    if len(joint_rows) != len(wp_rows) * len(obs_rows):
        return False
    wp_counts = np.zeros(len(wp_rows), dtype=np.int64)
    np.add.at(wp_counts, wp_inverse, joint_counts)
    obs_counts = np.zeros(len(obs_rows), dtype=np.int64)
    np.add.at(obs_counts, obs_inverse, joint_counts)
    return bool(
        np.all(
            joint_counts * states
            == wp_counts[wp_inverse] * obs_counts[obs_inverse]
        )
    )


def brute_force_secrecy(session, observer, protected, include_delivery=True,
                        positions=1, max_symbols=12, max_states=1 << 22):
    """Enumeration-based verdict for a tiny session, restricted to the
    first `positions` symbol positions (positions never interact).

    The hold/fail decision comes entirely from the enumeration; on failure
    the reported witness is extracted from the linear model (a failing
    distribution always has one).
    """
    model = SessionAnalyzer(session, positions).user_model(observer, include_delivery)
    if enumerate_independence(model, protected, max_symbols, max_states):
        return SecrecyVerdict(True)
    verdict = check_zero_information(model, protected)
    if verdict.holds:
        raise RuntimeError("enumeration found a dependence the linear model lacks")
    return verdict


def share_subset_model(enc, num_random, rows, field):
    """Observation of selected shares (1-based rows) of a single shared
    file with one symbol per subfile; used for sharing-level checks."""
    nsub = len(enc) - num_random
    picked = enc[[j - 1 for j in rows]]
    labels = tuple(("share", 1, j, 0) for j in rows)
    return LinearObservationModel(field, 1, nsub, picked[:, :nsub], picked[:, nsub:], labels)


def cache_model(analyzer, cache):
    """The dense model of every share symbol a cache stores, at the
    analyzer's positions."""
    if not 1 <= cache <= analyzer.session.config.num_caches:
        raise ValueError(f"cache {cache} out of range")
    return analyzer._assemble([analyzer.cache_block(cache)])


def eavesdropper_model(analyzer):
    """The dense model of every broadcast symbol, at the analyzer's
    positions: all the broadcast-only eavesdropper sees."""
    return analyzer._assemble([analyzer.delivery_block()])


def residual(session, cache):
    """The reference delivery reduction: R_lam = C_w + C_v (C_v^lam)^-1
    C_w^lam, F x (F - Z), each share as a user at the given cache sees it
    once its cached shares have cancelled the sharing randomness, and the
    cancel rows C_v (C_v^lam)^-1, F x Z.  Eliminating [C_v^lam | C_w^lam |
    I] on its first Z columns leaves [I | (C_v^lam)^-1 C_w^lam |
    (C_v^lam)^-1]."""
    field, z, nsub = session.config.field, session.meta.num_random, session.meta.num_subfiles
    enc = cauchy_matrix(session.meta.num_shares, field)
    c_w, c_v = enc[:, :nsub], enc[:, nsub:]
    rows = [j - 1 for j in session.cached_rows[cache - 1]]
    work = np.concatenate([c_v[rows], c_w[rows], np.eye(z, dtype=c_v.dtype)], axis=1)
    if field.echelon(work, z) < z:
        raise ValueError(f"cache {cache}: its randomness block is singular")
    product = field.matmul(c_v, work[:, z:])
    return c_w ^ product[:, :nsub], product[:, nsub:]


def residual_delivery_model(session, user, r_lam):
    """The reference delivery check with the user's cache and keys
    eliminated: one row per broadcast it cannot discard, whose block for
    file n sums the R_lam rows of the shares of file n it carries, and no
    randomness columns."""
    field = session.config.field
    width = r_lam.shape[1]
    keys = set(session.user_keys[user])
    pairs = [pair for p, pair in enumerate(session.garray.pairs)
             if session.pads_stripped or p in keys]
    a = field.zeros(len(pairs), session.config.num_files * width)
    for r, pair in enumerate(pairs):
        for row, other in session.garray.pair_occurrences[pair]:
            d = session.demands[other - 1]
            a[r, (d - 1) * width : d * width] ^= r_lam[row - 1]
    labels = tuple(("x", *pair, 0) for pair in pairs)
    return LinearObservationModel(
        field, session.config.num_files, width, a, field.zeros(len(pairs), 0), labels
    )


def complementary_cache(session, cache):
    """The session with the given cache holding the first Z shares it did
    not hold, topped up from its own when F - Z < Z (its complement when
    F = 2Z).  Every Z rows of a Cauchy matrix's C_v are an invertible
    block, so verify still runs, but the cache's users now lack shares
    that their broadcasts carry of other files."""
    held = session.cached_rows[cache - 1]
    lacked = [j for j in range(1, session.meta.num_shares + 1) if j not in held]
    rows = list(session.cached_rows)
    rows[cache - 1] = tuple(sorted([*lacked, *held][: session.meta.num_random]))
    return replace(session, cached_rows=tuple(rows))


def eq7_loads(pda, profile):
    """Test-side eq. 7 charges, from a scan of the grid: for each integer
    s, the top load among the caches whose columns contain it, the loads
    in column order."""
    return tuple(
        max(profile[k] for row in pda.entries for k, e in enumerate(row) if e == s)
        for s in range(1, pda.params.num_ints + 1)
    )


def eq7_oracle(pda, profile):
    """Test-side re-derivation of the worst-case rate: the eq. 7 charges
    over the F - Z symbols of a share."""
    p = pda.params
    return Fraction(sum(eq7_loads(pda, profile)), p.num_rows - p.stars_per_column)


def unit_cache_bound_terms(num_files, num_users, helper_memory, profile):
    """The cut-set terms in their simplified M_U = 1 form,
    s - (lambda_s - 1) M / (floor(N/s) - 1), each clamped at zero; the
    reference that the package's unsimplified formula is checked against."""
    m = Fraction(helper_memory)
    terms = []
    for s in range(1, min(num_files // 2, num_users) + 1):
        per = num_files // s
        lam_s = lambda_of_s(profile, s)
        value = s - Fraction((lam_s - 1) * m, per - 1)
        terms.append((s, max(value, Fraction(0))))
    return terms


# -- random valid PDAs ----------------------------------------------------------
#
# Built only from operations that keep C1-C3 (Yan, Cheng, Tang, Chen, IEEE
# Trans. IT 2017): splitting an integer's occurrences under a fresh integer
# leaves every same-integer pair one that was already valid; stacking two
# PDAs with equal Lambda and disjoint integers adds their F and Z; and row
# and column permutations and integer relabelings change no condition.


def _split(grid, s, chosen, fresh):
    """Give the chosen (row, column) occurrences of integer s the integer
    fresh."""
    return [
        [fresh if (j, k) in chosen else e for k, e in enumerate(row)]
        for j, row in enumerate(grid)
    ]


@st.composite
def random_pdas(draw):
    """A valid PDA from MN(Lambda, t) (Lambda = 2..4) or the worked grid,
    with integers split, a second PDA of the same Lambda stacked below,
    rows and columns permuted and the integers relabeled to 1..S."""
    num_caches = draw(st.sampled_from((2, 3, 4, 6)))

    def component():
        if num_caches == 6:
            return [list(row) for row in WORKED_GRID]
        t = draw(st.integers(1, num_caches - 1))
        return [list(row) for row in mn_pda(num_caches, t).entries]

    grid = component()
    if draw(st.booleans()):
        offset = max(e for row in grid for e in row if e is not None)
        grid += [
            [None if e is None else e + offset for e in row] for row in component()
        ]
    for _ in range(draw(st.integers(0, 3))):
        top = max(e for row in grid for e in row if e is not None)
        shared = [s for s in range(1, top + 1)
                  if sum(row.count(s) for row in grid) > 1]
        if not shared:
            break
        s = draw(st.sampled_from(shared))
        where = [(j, k) for j, row in enumerate(grid)
                 for k, e in enumerate(row) if e == s]
        chosen = draw(st.lists(st.sampled_from(where), min_size=1,
                               max_size=len(where) - 1, unique=True))
        grid = _split(grid, s, set(chosen), top + 1)
    rows = draw(st.permutations(range(len(grid))))
    cols = draw(st.permutations(range(num_caches)))
    used = sorted({e for row in grid for e in row if e is not None})
    relabel = dict(zip(used, draw(st.permutations(range(1, len(used) + 1)))))
    return Pda.from_grid(
        tuple(
            tuple(None if grid[j][k] is None else relabel[grid[j][k]] for k in cols)
            for j in rows
        )
    )


def draw_users(draw, num_caches):
    """A profile of Lambda to Lambda + 3 users over num_caches caches (empty
    caches included), a file count N in 1..3, and demands that may repeat."""
    caches = draw(st.lists(st.integers(1, num_caches), min_size=num_caches,
                           max_size=num_caches + 3))
    profile = tuple(caches.count(c) for c in range(1, num_caches + 1))
    num_files = draw(st.integers(1, 3))
    demands = tuple(draw(st.lists(st.integers(1, num_files), min_size=len(caches),
                                  max_size=len(caches))))
    return profile, num_files, demands


@st.composite
def random_pda_sessions(draw, l=None):
    """A session of a random PDA with `draw_users`' profile and demands,
    at the given l, or at any l with 2^l >= 2F when l is None."""
    pda = draw(random_pdas())
    profile, num_files, demands = draw_users(draw, pda.num_caches)
    if l is None:
        l = draw(st.integers((2 * pda.num_rows - 1).bit_length(), 16))
    assume(2 * pda.num_rows <= 1 << l)
    config = SystemConfig(
        pda.num_caches, len(demands), num_files, helper_memory_for(pda, num_files),
        draw(st.integers(1, 16)), field=BinaryField(l),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return run_session(pda, config, profile=profile, demands=demands)


@st.composite
def zero_memory_sessions(draw):
    """An M = 0 one-time-pad session with `draw_users`' profile and demands
    over 1..4 caches, at any l in 2..16."""
    num_caches = draw(st.integers(1, 4))
    profile, num_files, demands = draw_users(draw, num_caches)
    config = SystemConfig(
        num_caches, len(demands), num_files, Fraction(0), draw(st.integers(1, 8)),
        field=BinaryField(draw(st.integers(2, 16))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return one_time_pad_session(config, profile=profile, demands=demands)
