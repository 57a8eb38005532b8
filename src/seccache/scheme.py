"""Four-phase secretive delivery for shared-cache networks, driven by a PDA.

Phases, in order:

  1. helper placement   - every file is encoded into F shares, an (F, L)
                          array, by the (Z, F) non-perfect secret sharing
                          that F fixes, one product per batch of files;
                          cache lam stores the shares whose PDA rows are
                          stars in column lam.
  2. association        - users attach to caches; caches are relabeled by
                          their user counts (the profile), largest first,
                          and the PDA columns are permuted the same way.
                          The labels fix only the output order: integer s
                          costs the largest load among its columns under
                          any labeling (eq. 7).
  3. user key placement - the PDA is expanded into G, one column of F
                          entries per user: its cache's PDA column with
                          integer s tagged as the pair (s, i), i the user's
                          rank within the cache.  Pair (s, i) sits at the
                          (row, user) of each occurrence of s whose cache
                          has an i-th user.  One uniform one-time-pad key
                          per distinct pair is row p of the (P, L) key
                          block, pairs in sorted order, and each user
                          stores the rows of the pairs its column carries.
  4. delivery           - row p of the (P, L) broadcast block is the XOR
                          of pair p's participants' demanded shares and key
                          row p; each participant strips the key and
                          its cached shares to recover one new share.

Decoding (`decode_users`) is each user's: every share it lacks is one
broadcast with the pair's key and the other participants' cached shares
XORed away, and all F shares invert the sharing.  Users are decoded in
batches, as placement shares files: one product and one codec pass per
batch of whole users.

The M = 0 one-time-pad scheme (`one_time_pad_session`) is the same
procedure with F = 1 and Z = 0: it has its own placement and one-row G-array,
and shares phases 3 and 4 with `run_session`.  A session does not store the
share matrix: it is cauchy_matrix(F, field), which the sharing and the
verifier each build from F.

Relabeling caches after placement is pure bookkeeping: the share-to-cache
map never depends on the association, so sorting labels by load first and
placing second yields the identical system.

All rate and memory arithmetic is exact (fractions.Fraction).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import accumulate

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .field import BinaryField
from .pda import Pda
from .sharing import (
    WORDS_PER_CALL,
    ShareMeta,
    _share_meta,
    bytes_to_symbols,
    cauchy_matrix,  # not called here: perfbench/tracing.py patches scheme.cauchy_matrix
    random_vector,
    random_words,
    share_file,
    unshare_file,
)

Pair = tuple[int, int]

# Largest library, N x file_bytes, that a session may hold.  `simulate --pda
# mn:4,2` over four files peaks near 5 times its library (ru_maxrss, 2-vCPU
# host): 111, 188 and 323 MiB at 16, 32 and 64 MiB.  A 128 MiB library peaked
# at 645 MiB before this cap, above the 428 MiB it was first set against.
MAX_LIBRARY_BYTES = 1 << 26


@dataclass(frozen=True)
class SystemConfig:
    """A (Lambda, K, M, N) shared-cache problem instance with unit user caches."""

    num_caches: int
    num_users: int
    num_files: int
    helper_memory: Fraction  # M, in file units
    file_bytes: int
    field: BinaryField = BinaryField(8)
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.num_caches <= self.num_users:
            raise ValueError("need K >= Lambda >= 1")
        if self.num_files < 1:
            raise ValueError("need at least one file")
        if self.helper_memory < 0:
            raise ValueError("helper memory cannot be negative")
        if self.file_bytes < 1:
            raise ValueError("files must be nonempty")
        if self.num_files * self.file_bytes > MAX_LIBRARY_BYTES:
            raise ValueError(
                f"a library of {self.num_files} x {self.file_bytes} bytes is "
                f"larger than the {MAX_LIBRARY_BYTES} bytes a session can hold"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def helper_memory_for(pda: Pda, num_files: int) -> Fraction:
    """The helper memory M for which Z/F = M/(M+N) holds exactly."""
    p = pda.params
    return Fraction(
        num_files * p.stars_per_column, p.num_rows - p.stars_per_column
    )


def worst_case_demands(num_users: int, num_files: int) -> tuple[int, ...]:
    """All-distinct demand vector (1, 2, ..., K); needs N >= K."""
    if num_files < num_users:
        raise ValueError("worst-case demands need N >= K")
    return tuple(range(1, num_users + 1))


@dataclass(frozen=True)
class Association:
    """User-to-cache attachment after load-sorted relabeling.

    profile[i] is the user count of (relabeled) cache i+1, nonincreasing;
    groups[i] lists that cache's users in original index order; cache_order
    maps each new label back to the caller's original cache label.
    """

    profile: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    user_to_cache: tuple[int, ...]
    cache_order: tuple[int, ...]

    def __post_init__(self):
        if any(a < b for a, b in zip(self.profile, self.profile[1:])):
            raise ValueError("profile must be nonincreasing")
        if sum(self.profile) != len(self.user_to_cache):
            raise ValueError("profile does not sum to the user count")
        for lam, group in enumerate(self.groups, start=1):
            if len(group) != self.profile[lam - 1]:
                raise ValueError(f"group {lam} does not match the profile")
            if any(self.user_to_cache[u - 1] != lam for u in group):
                raise ValueError("groups and user_to_cache disagree")

    @property
    def num_users(self) -> int:
        return len(self.user_to_cache)

    @property
    def num_caches(self) -> int:
        return len(self.profile)

    @classmethod
    def from_profile(cls, profile) -> "Association":
        """Users 1..K attached cache-major in the given order, each group a
        contiguous range of users, then caches relabeled by load, descending,
        ties in the given order."""
        profile = tuple(profile)
        if any(n < 0 for n in profile):
            raise ValueError("profile entries must be nonnegative")
        first = tuple(accumulate(profile, initial=1))
        cache_order = tuple(sorted(range(1, len(profile) + 1), key=lambda c: -profile[c - 1]))
        new_label = {orig: new for new, orig in enumerate(cache_order, start=1)}
        return cls(
            profile=tuple(profile[c - 1] for c in cache_order),
            groups=tuple(tuple(range(first[c - 1], first[c])) for c in cache_order),
            user_to_cache=tuple(
                new_label[c] for c, load in enumerate(profile, start=1) for _ in range(load)
            ),
            cache_order=cache_order,
        )


@dataclass(frozen=True)
class GArray:
    """The per-user expansion G of a PDA: column lam copied once for each
    user at cache lam, integer s tagged with the user's rank i there as
    the pair (s, i).

    columns[user] is the user's F entries (None for a star), users in
    cache-major, group order, the order of decode.txt and of verify's
    per-user lines; pair_occurrences[pair] lists the pair's 1-based
    (row, user) positions, pairs in sorted order: `pairs`, the row order of
    the key and broadcast blocks, where pair_index[pair] is the pair's row."""

    columns: dict[int, tuple[Pair | None, ...]]
    pair_occurrences: dict[Pair, tuple[tuple[int, int], ...]]

    @property
    def column_users(self) -> tuple[int, ...]:
        return tuple(self.columns)

    @cached_property
    def pairs(self) -> tuple[Pair, ...]:
        return tuple(self.pair_occurrences)

    @cached_property
    def pair_index(self) -> dict[Pair, int]:
        return {pair: p for p, pair in enumerate(self.pairs)}


def _largest_loads(pda: Pda, profile: tuple[int, ...]) -> tuple[int, ...]:
    """For s = 1, ..., S, the largest load among the caches whose columns
    hold s, profile[lam - 1] being cache lam's load: eq. 7's charge for s,
    whatever order the loads are listed in."""
    return tuple([max([profile[lam - 1] for _, lam in occ]) for occ in pda.occurrences])


def build_g_array(pda: Pda, association: Association) -> GArray:
    """G of the PDA whose column lam is cache lam of the association;
    empty caches contribute no users.

    Integer s gives the pairs (s, 1), ..., (s, top), top the largest load
    among the caches whose columns hold s, and pair (s, i) sits at each
    occurrence (j, lam) of s whose cache has an i-th user,
    groups[lam - 1][i - 1]."""
    if association.num_caches != pda.num_caches:
        raise ValueError("association and PDA disagree on the cache count")
    groups, profile = association.groups, association.profile
    columns: dict[int, tuple[Pair | None, ...]] = {}
    for base, group in zip(zip(*pda.entries), groups):
        for i, user in enumerate(group, start=1):
            columns[user] = tuple([None if e is None else (e, i) for e in base])
    pair_occurrences = {
        (s, i): tuple([(j, groups[lam - 1][i - 1]) for j, lam in occ if i <= profile[lam - 1]])
        for s, (occ, top) in enumerate(zip(pda.occurrences, _largest_loads(pda, profile)), start=1)
        for i in range(1, top + 1)
    }
    return GArray(columns, pair_occurrences)


@dataclass(frozen=True)
class RateReport:
    """Worst-case delivery load: sum over s of the top load among the
    caches containing s, normalized by the share size."""

    num_transmissions: int
    rate: Fraction
    per_s_multiplicity: tuple[int, ...]


def rate_report(pda: Pda, profile) -> RateReport:
    """The rate of eq. 7 for the PDA with profile[lam - 1] users at the
    cache of column lam: integer s costs the largest of its columns'
    loads.  The loads may come in any order; the report is the one a
    session of this PDA and profile sends."""
    profile = tuple(profile)
    if len(profile) != pda.num_caches:
        raise ValueError("profile length must equal the cache count")
    p = pda.params
    per_s = _largest_loads(pda, profile)
    total = sum(per_s)
    return RateReport(total, Fraction(total, p.num_rows - p.stars_per_column), per_s)


# -- phase implementations -----------------------------------------------------


def _batches(items, symbols: int) -> list:
    """The items in order, in batches of as many whole items of `symbols`
    symbols as fit in WORDS_PER_CALL (read at each call), at least one."""
    step = max(1, WORDS_PER_CALL // symbols)
    return [items[start : start + step] for start in range(0, len(items), step)]


def helper_placement(pda: Pda, config: SystemConfig, library, rng):
    """Share every file and map star rows to cache contents.

    Returns (shares, meta, cached_rows): shares[n] is the (F, L) share
    array of file n+1, row j its share j+1; cached_rows[lam-1] lists the
    1-based share rows every cache lam stores (for all files, per PDA
    column lam).  The files are shared in `_batches` of F * L symbols a
    file, one share_file call each, so a larger file is shared alone.
    shares[n] is file n+1's column block of its batch's product.  No
    sharing randomness outlives its batch's share_file call.
    """
    p = pda.params
    m, n = config.helper_memory, config.num_files
    if Fraction(p.stars_per_column, p.num_rows) != Fraction(m, m + n):
        raise ValueError(
            f"memory ratio mismatch: Z/F = {Fraction(p.stars_per_column, p.num_rows)}"
            f" but M/(M+N) = {Fraction(m, m + n)}"
        )
    f, z, field = p.num_rows, p.stars_per_column, config.field
    meta = _share_meta(8 * config.file_bytes, f, z, field)
    length = meta.symbols_per_share
    shares = []
    for batch in _batches(library, f * length):
        block = share_file(b"".join(batch), f, z, field, rng, len(batch))[0]
        shares += [block[:, i : i + length] for i in range(0, block.shape[1], length)]
    cached_rows = tuple(pda.star_rows(lam) for lam in range(1, p.num_caches + 1))

    # Per-cache storage meets the memory budget with equality: N*Z*(B/(F-Z)) = M*B.
    stored_bits = n * p.stars_per_column * meta.share_bits
    if Fraction(stored_bits) != m * meta.padded_bits:
        raise RuntimeError(
            f"caches store {stored_bits} bits, the budget is {m * meta.padded_bits}"
        )
    return shares, meta, cached_rows


def user_key_placement(
    garray: GArray, symbols_per_share: int, field: BinaryField, rng
):
    """One uniform key per distinct pair: (key_pool, user_keys).

    key_pool is one draw of P * L symbols as a read-only (P, L) block, row
    p the key of garray.pairs[p], the same symbols as P draws of L one
    after the other.  user_keys[k] is the tuple of the rows user k stores,
    one per entry of its column (exactly F - Z), in the column's row order."""
    pairs, index = garray.pairs, garray.pair_index
    key_pool = random_vector(len(pairs) * symbols_per_share, field, rng)
    key_pool = key_pool.reshape(len(pairs), symbols_per_share)
    key_pool.setflags(write=False)
    user_keys = {
        user: tuple([index[entry] for entry in column if entry is not None])
        for user, column in garray.columns.items()
    }
    return key_pool, user_keys


def deliver(garray: GArray, shares, demands, key_pool) -> np.ndarray:
    """The read-only (P, L) broadcast block, in pair order: row p the XOR of
    every participant's demanded share with key row p."""
    num_files = len(shares)
    for user in garray.columns:
        if not 1 <= demands[user - 1] <= num_files:
            raise ValueError(f"user {user} demands unknown file {demands[user - 1]}")
    out = key_pool.copy()
    for acc, occurrences in zip(out, garray.pair_occurrences.values()):
        for row, user in occurrences:
            acc ^= shares[demands[user - 1] - 1][row - 1]
    out.setflags(write=False)
    return out


@dataclass
class SessionState:
    """Everything one end-to-end run produces; inputs to decode/verify."""

    config: SystemConfig
    pda: Pda | None  # canonical (column-permuted); None for the M=0 baseline
    association: Association
    meta: ShareMeta
    library: tuple[bytes, ...]
    shares: list
    cached_rows: tuple[tuple[int, ...], ...]
    garray: GArray
    key_pool: np.ndarray  # read-only (P, L), row p the key of garray.pairs[p]
    user_keys: dict[int, tuple[int, ...]]  # each user's key rows, in column order
    demands: tuple[int, ...]
    transmissions: np.ndarray  # read-only (P, L), row p the broadcast of pair p
    rate: RateReport
    # True only on the verifier's sabotaged copy, whose broadcasts carry no keys.
    pads_stripped: bool = False


class _Unseeded(ISeedSequence):
    """An all-zero initial MT19937 state, which `mersenne_twister`
    overwrites at once: building a generator from it reads no OS entropy
    and runs no SeedSequence hash.  The state is a list, not an array,
    because MT19937 copies it in word by word, and a list index is several
    times cheaper than an array's."""

    def generate_state(self, n_words, dtype=np.uint32):
        return [0] * n_words


def mersenne_twister(key: int) -> np.random.MT19937:
    """A NumPy Mersenne Twister in the state `random.Random(key)` starts
    from, for 0 <= key < 2^64: both seed by init_by_array on the key's
    32-bit words, least significant first, and one word [0] for key 0.  A
    list of words, not an integer or an array, selects init_by_array in
    `RandomState.seed`, which seeds the MT19937 it wraps; the MT19937 is
    returned, so draws read its raw words with no RandomState in between."""
    if not 0 <= key < 2**64:
        raise ValueError(f"key {key} does not fit in 64 bits")
    words = [key & 0xFFFFFFFF, key >> 32] if key >> 32 else [key]
    bit_generator = np.random.MT19937(_Unseeded())
    np.random.RandomState(bit_generator).seed(words)
    return bit_generator


def _stream(seed: int, tag: str) -> np.random.MT19937:
    """Independent deterministic generator derived from (seed, tag): the
    Mersenne Twister keyed by the first 8 bytes of sha256("seed:tag"), read
    big-endian."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return mersenne_twister(int.from_bytes(digest[:8], "big"))


def synthetic_library(config: SystemConfig) -> tuple[bytes, ...]:
    """Seed-derived stand-in library of N equal-length files.

    The bytes are those of successive randrange(256) calls, file after
    file, on a random.Random in the state of the "library" stream.  Each
    call is getrandbits(9): one generator word w, retried while w >> 23 >=
    256, that is while its top bit is set, and then w >> 23.  So the words
    are drawn in batches of at most WORDS_PER_CALL and the accepted bytes
    fill each file's buffer in order, the rest carried to the next file.
    The library so peaks at its output plus one file and one batch; words
    drawn past the last byte change nothing, since the generator is local.
    """
    rng = _stream(config.seed, "library")
    step, files, spare = config.file_bytes, [], np.empty(0, np.uint8)
    for _ in range(config.num_files):
        buf, filled = np.empty(step, np.uint8), 0
        while filled < step:
            if not len(spare):
                words = random_words(min(2 * (step - filled) + 64, WORDS_PER_CALL), rng)
                spare = (words[words < 1 << 31] >> 23).astype(np.uint8)
            take, spare = spare[: step - filled], spare[step - filled :]
            buf[filled : filled + len(take)] = take
            filled += len(take)
        files.append(buf.tobytes())
    return tuple(files)


def _session_inputs(
    config: SystemConfig, num_caches: int, library, profile, demands
) -> tuple[Association, tuple[int, ...], tuple[bytes, ...]]:
    """Check a session's association, demands and library against config
    and a scheme with num_caches caches; fill in the seed-derived library and
    the worst-case demands when they are not given.  The demands are checked
    first: the association costs time linear in the profile's user count."""
    if demands is None:
        demands = worst_case_demands(config.num_users, config.num_files)
    demands = tuple(demands)
    if len(demands) != config.num_users:
        raise ValueError("demand vector length must be K")
    if any(not 1 <= d <= config.num_files for d in demands):
        raise ValueError("demand out of range")

    association = Association.from_profile(profile)
    if association.num_users != config.num_users:
        raise ValueError(
            f"association covers {association.num_users} users, "
            f"config says {config.num_users}"
        )
    if not (association.num_caches == config.num_caches == num_caches):
        raise ValueError("cache counts disagree")

    if library is None:
        library = synthetic_library(config)
    library = tuple(bytes(f) for f in library)
    if len(library) != config.num_files:
        raise ValueError(f"library must hold {config.num_files} files, got {len(library)}")
    if any(len(f) != config.file_bytes for f in library):
        raise ValueError("library files must all have the configured length")
    return association, demands, library


def _keys_and_delivery(
    garray: GArray, rate: RateReport, *, config: SystemConfig, meta: ShareMeta,
    shares, demands, **placed
) -> SessionState:
    """Phases 3 and 4, shared by every scheme: one key per pair of garray
    from the seed's "keys" stream, then delivery, checked against the rate.
    `placed` holds the other SessionState fields, set by the placement."""
    key_pool, user_keys = user_key_placement(
        garray, meta.symbols_per_share, config.field, _stream(config.seed, "keys")
    )
    transmissions = deliver(garray, shares, demands, key_pool)
    if len(transmissions) != rate.num_transmissions:
        raise RuntimeError(
            f"{len(transmissions)} transmissions sent, the rate formula gives "
            f"{rate.num_transmissions}"
        )
    return SessionState(
        config=config, meta=meta, shares=shares, demands=demands, garray=garray,
        rate=rate, key_pool=key_pool, user_keys=user_keys,
        transmissions=transmissions, **placed,
    )


def run_session(
    pda: Pda, config: SystemConfig, library=None, *, profile, demands=None
) -> SessionState:
    """Drive all four phases and return the completed session."""
    association, demands, library = _session_inputs(
        config, pda.num_caches, library, profile, demands
    )
    canonical = pda.permute_columns(association.cache_order)
    shares, meta, cached_rows = helper_placement(
        canonical, config, library, _stream(config.seed, "sharing")
    )
    return _keys_and_delivery(
        build_g_array(canonical, association),
        rate_report(canonical, association.profile),
        config=config, pda=canonical, association=association, meta=meta,
        library=library, shares=shares, cached_rows=cached_rows, demands=demands,
    )


def decode_users(session: SessionState, users) -> Iterator[tuple[int, bytes]]:
    """Recover each of the users' demanded files from its caches and the
    broadcasts: (user, file) pairs in the order given.

    Every share a user lacks is unlocked by one transmission: XOR away the
    pair's key and the other participants' shares (which sit in this
    user's helper cache, by the PDA's cross-star structure), then invert
    the sharing once all F shares are present.  The users are decoded in
    `_batches` of F * L share symbols a user.  A batch's shares are one
    fresh array, user i's in columns i * L .. (i + 1) * L, each block
    recovered in place, and they go whole to `unshare_file`: one product
    and one codec pass for the batch, the shares let go before the bytes
    are assembled.  Each file is a slice of its batch's bytes.  The
    batches are decoded as the pairs are read, so a caller that lets each
    file go holds one batch's at a time.

    Raises ValueError, before anything is decoded, for a user outside
    1..K or one listed twice.
    """
    return _decoded_batches(session, _listed_users(session, users))


def _listed_users(session: SessionState, users) -> tuple[int, ...]:
    """The users as a tuple; ValueError names one outside 1..K or one
    listed twice."""
    users = tuple(users)
    num_users, seen = session.association.num_users, set()
    for user in users:
        if not 1 <= user <= num_users:
            raise ValueError(f"user {user} is not one of the users 1..{num_users}")
        if user in seen:
            raise ValueError(f"user {user} is listed twice")
        seen.add(user)
    return users


def _decoded_batches(session: SessionState, users: tuple[int, ...]):
    """(user, file) for each user, decoding one batch at a time."""
    meta, field = session.meta, session.config.field
    size = meta.data_bits // 8
    for batch in _batches(users, meta.num_shares * meta.symbols_per_share):
        data = unshare_file(_batch_shares(session, batch), meta, field, len(batch))
        for i, user in enumerate(batch):
            yield user, data[i * size : (i + 1) * size]
        del data  # not held while the next batch is decoded


def _batch_shares(session: SessionState, users: tuple[int, ...]) -> np.ndarray:
    """All F shares of each user's demanded file, side by side in one fresh
    (F, k * L) array, user i's in columns i * L .. (i + 1) * L.  Only this
    array is written; the session's shares, keys and broadcasts are read."""
    length = session.meta.symbols_per_share
    out = np.empty((session.meta.num_shares, len(users) * length), session.config.field.dtype)
    for i, user in enumerate(users):
        _user_shares(session, user, out[:, i * length : (i + 1) * length])
    return out


def _user_shares(session: SessionState, user: int, recovered: np.ndarray) -> None:
    """Write all F shares of the user's demanded file into recovered, an
    (F, L) array: the cached rows copied from its helper cache, and each
    other row j from broadcast row p, p the row of the entry at (j, user),
    with key row p and the other participants' shares XORed away in place."""
    garray, shares, sent = session.garray, session.shares, session.transmissions
    if len(sent) != len(garray.pairs):
        raise RuntimeError(f"{len(sent)} broadcasts sent for {len(garray.pairs)} pairs")
    lam = session.association.user_to_cache[user - 1]
    own = shares[session.demands[user - 1] - 1]
    cached = set(session.cached_rows[lam - 1])

    for j in cached:
        recovered[j - 1] = own[j - 1]
    keys = set(session.user_keys[user])
    for row, entry in zip(recovered, garray.columns[user]):
        if entry is None:
            continue
        p = garray.pair_index[entry]
        if p not in keys:
            raise RuntimeError(f"user {user} lacks key {entry}")
        np.bitwise_xor(sent[p], session.key_pool[p], out=row)
        for j, other in garray.pair_occurrences[entry]:
            if other == user:
                continue
            if j not in cached:
                raise RuntimeError("participant share not in this user's cache")
            row ^= shares[session.demands[other - 1] - 1][j - 1]


def decode_user(session: SessionState, user: int) -> bytes:
    """The user's demanded file: the one-user case of `decode_users`, a
    batch of one, taken without the batching loop."""
    users = _listed_users(session, (user,))
    return unshare_file(_batch_shares(session, users), session.meta, session.config.field)


def decode_all(session: SessionState) -> dict[int, bytes]:
    # One decode_user call per user, not one decode_users call, only
    # because perfbench pins scheme.decode_user.calls at one per user of a
    # bulk operation; ROADMAP item 1a re-pins it on the decoded users.
    return {
        user: decode_user(session, user) for user in session.garray.column_users
    }


def one_time_pad_session(
    config: SystemConfig, library=None, profile=None, demands=None
) -> SessionState:
    """The M = 0 scheme: no helper content, one whole-file pad per user.

    Files are kept whole (F = 1 share, Z = 0, no sharing randomness) and the
    G-array has one row, giving user i of cache lam the pair (lam, i).  Key
    placement and delivery are run_session's: each user's unit cache holds
    one uniform key, and the server broadcasts demanded file XOR key, once
    per user.  The rate is exactly K.

    The (1, 0) sharing is the identity, so a file's one share is its
    symbols.  The library is converted in `_batches` of L symbols a file,
    each batch one `bytes_to_symbols` call, so the codec never holds more
    than one batch's bits.  shares[n] is row n of its batch's (k, L)
    symbols, a (1, L) view.
    """
    if config.helper_memory != 0:
        raise ValueError("the one-time-pad baseline is the M = 0 scheme")
    if profile is None:
        profile = (config.num_users,) + (0,) * (config.num_caches - 1)
    association, demands, library = _session_inputs(
        config, config.num_caches, library, profile, demands
    )

    field = config.field
    meta = _share_meta(8 * config.file_bytes, 1, 0, field)
    length = meta.symbols_per_share
    shares = []
    for batch in _batches(library, length):
        block = bytes_to_symbols(b"".join(batch), field, length, len(batch))
        shares += [block[i : i + 1] for i in range(len(batch))]
    columns, pair_occurrences = {}, {}
    for lam, group in enumerate(association.groups, start=1):
        for i, user in enumerate(group, start=1):
            columns[user] = ((lam, i),)
            pair_occurrences[(lam, i)] = ((1, user),)
    per_s = tuple(load for load in association.profile if load > 0)
    return _keys_and_delivery(
        GArray(columns, pair_occurrences),
        RateReport(config.num_users, Fraction(config.num_users), per_s),
        config=config, pda=None, association=association, meta=meta, library=library,
        shares=shares,
        cached_rows=tuple(() for _ in range(config.num_caches)),
        demands=demands,
    )
