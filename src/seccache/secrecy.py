"""Exact secrecy verification for completed sessions.

Every quantity an observer sees (cached share symbols, key symbols,
broadcast symbols) is a GF(2^l)-linear function of the file symbols w and
the randomness symbols v (sharing randomness plus one-time-pad keys):

    observations = A w + B v        (all arithmetic over GF(2^l))

With v uniform and independent of w, the observations reveal nothing
about a set of protected files exactly when every protected file column
of A lies in the column space of B; equivalently rank([B | A_protected])
equals rank(B).  That rank condition is decided here by Gaussian
elimination (`BinaryField.echelon`, the package's one kernel); the tests
back it with a brute-force distribution-enumeration oracle on instances
small enough to enumerate.

Rows are labeled with structured tuples: ("share", n, j, pos),
("key", s, i, pos), ("x", s, i, pos).

Symbol positions never interact.  Symbol `pos` of a share, a key or a
broadcast depends only on the file and randomness symbols at the same
`pos`, through coefficients that do not depend on `pos`.  Taken
position-major, every full-width model is therefore kron(I_L, M1), where L
is the number of symbols per share and M1 is the model of one position.
Ranks scale by L, so rank([B | A_protected]) = rank(B) holds at all L
positions exactly when it holds for M1, and a witness for M1 is a witness
at any one position.  `verify_session` decides every check on a
reduction of M1, at a cost that does not depend on the file size; the
tests compare it with M1 and the full-width model (`SessionAnalyzer`).

The models order rows and columns with the position innermost.
Elimination on a full-width model then performs M1's elimination L times
in lock step, and the first witness row it finds is M1's witness at
position 0: the one-position and the full-width checks agree on every
verdict and on every witness.

`verify_session` decides each check on the smallest model that is exactly
equivalent to M1, following the paper's own argument.  Write C_w and C_v
for the first F - Z and the last Z columns of the share matrix
cauchy_matrix(F, field), and C^lam for its rows at the shares cache lam
stores, which `verify_session` first checks are Z distinct rows in 1..F.
Every square submatrix of a Cauchy matrix is invertible, so C_v^lam is,
and no verdict needs more than which shares each cache holds and each
broadcast carries: a clean session takes no elimination and no product.

- Placement.  A cache's shares of file n are C_w^lam w_n + C_v^lam v_n,
  so eliminating v_n leaves Z - rank(C_v^lam) = 0 rows, and each key row
  has a private key column.  The cache check and the placement check of
  each of its users run on a model with no rows, and hold.
- Delivery.  A cached-share combination cancels any v_n a broadcast
  combination carries, and what remains of share j is R_lam[j] = C_w[j] +
  C_v[j] (C_v^lam)^-1 C_w^lam over w_n alone (zero for a cached j).  A
  broadcast whose key the user lacks has a private key column and drops
  out; a held key cancels; with the pads stripped every broadcast stays.
  R_lam at the F - Z shares the cache lacks is S_lam, the Schur complement
  of C_v^lam in the invertible share matrix, so S_lam is invertible.  The
  check runs on the carried-share table, built once per verify: a 1 at
  (broadcast, file n, share j) when the broadcast carries share j of file
  n, restricted to the broadcasts the user keeps and the shares its cache
  lacks.  Times blockdiag(S_lam) it is the R_lam model, so both give the
  same verdict and the same first exposing broadcast.
- Eavesdropper.  It holds no key, so with the pads on every broadcast
  drops out and its model has no rows.  With them stripped, M1 is the
  carried-share table M times blockdiag(C_w) in A and blockdiag(C_v) in
  B (whose key columns are zero).  [C_w | C_v] is invertible, so where
  phi B = 0, phi A != 0 exactly when phi M != 0: the check takes M for
  A, and its one [B | I] elimination gives M1's verdict and witness.

A failing delivery check's reduced witness is one kept broadcast, the
first that exposes a protected file, and it lifts to M1 in closed form:
the broadcast, its key unless the pads are stripped, and C_v[j]
(C_v^lam)^-1 on the cached shares of file n for each share j of file n it
carries, which cancels v_n (`_cancel_rows`, once per cache with a failing
user).  With the pads stripped this is the witness an elimination of M1
gives: every cache and key row pivots (C_v^lam is invertible and each key
has its own column), so no broadcast row is swapped up past the pivots.
With the pads on, a key the user lacks makes its broadcast a pivot, and
such an elimination may name another valid broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .field import BinaryField
from .scheme import SessionState
from .sharing import cauchy_matrix

RowLabel = tuple


@dataclass
class LinearObservationModel:
    """Observations as an exact linear map of (file symbols, randomness)."""

    field: BinaryField
    num_files: int
    symbols_per_file: int
    obs_files: np.ndarray  # obs_dim x (num_files * symbols_per_file)
    obs_rand: np.ndarray  # obs_dim x rand_dim
    row_labels: tuple[RowLabel, ...]

    @property
    def obs_dim(self) -> int:
        return self.obs_files.shape[0]

    @property
    def file_dim(self) -> int:
        return self.obs_files.shape[1]

    @property
    def rand_dim(self) -> int:
        return self.obs_rand.shape[1]

    def protected_columns(self, protected) -> np.ndarray:
        """Columns of the protected files' data symbols (1-based files), in
        file order."""
        files = np.array(sorted(set(protected)), dtype=np.intp)
        outside = files[(files < 1) | (files > self.num_files)]
        if outside.size:
            raise ValueError(f"file {outside[0]} out of range")
        width = self.symbols_per_file
        return ((files[:, None] - 1) * width + np.arange(width)).ravel()


@dataclass
class SecrecyVerdict:
    """Outcome of one independence check; a failing check carries a
    nonzero combination of observations that exposes a protected symbol."""

    holds: bool
    witness: np.ndarray | None = None
    witness_rows: tuple[tuple[RowLabel, int], ...] | None = None

    def __post_init__(self):
        if self.holds != (self.witness is None):
            raise ValueError("a verdict carries a witness exactly when it fails")

    def witness_summary(self) -> str:
        """The witness restricted to its nonzero coefficients, labeled."""
        if not self.witness_rows:
            return ""
        return " + ".join(
            f"{coeff:x}*{kind}[{','.join(str(p) for p in rest)}]"
            for (kind, *rest), coeff in self.witness_rows
        )


def _verdict(model: "LinearObservationModel", witness: np.ndarray | None) -> SecrecyVerdict:
    if witness is None:
        return SecrecyVerdict(True)
    rows = tuple(
        (model.row_labels[r], int(witness[r]))
        for r in np.nonzero(witness)[0]
    )
    return SecrecyVerdict(False, witness, rows)


# -- elimination over GF(2^l) ----------------------------------------------


# The one elimination kernel, under a module-level name so that the secrecy
# module's eliminations can be wrapped and counted in one place.
_echelon = BinaryField.echelon


def _exposing_combination(
    field: BinaryField, b: np.ndarray, a: np.ndarray
) -> np.ndarray | None:
    """A row combination phi with phi.B = 0 but phi.A != 0, or None when
    every column of A already lies in the column space of B.

    Eliminating [B | I] on B's columns leaves E, the I part, with E.B in
    row echelon form.  phi is the first row of E past the pivots with
    phi.A != 0 (one table gather per row tried), which is the row an
    elimination of [B | A | I] would give.  When B is zero, E is I and phi
    is the unit vector of A's first nonzero row, returned without an
    elimination.
    """
    if a.shape[0] == 0 or not a.any():
        return None
    b = b[:, b.any(axis=0)]  # a zero column never pivots
    if b.shape[1] == 0:
        phi = np.zeros(a.shape[0], dtype=b.dtype)
        phi[np.flatnonzero(a.any(axis=1))[0]] = 1
        return phi
    work = np.concatenate([b, np.eye(b.shape[0], dtype=b.dtype)], axis=1)
    pivots = _echelon(field, work, b.shape[1])
    exp, log = field.exp_table, field.log_table
    a_logs = log[a]
    for phi in work[pivots:, b.shape[1] :]:
        if np.bitwise_xor.reduce(exp[log[phi][:, None] + a_logs], axis=0).any():
            return phi.copy()
    return None


def check_zero_information(
    model: LinearObservationModel, protected
) -> SecrecyVerdict:
    """Decide exact statistical independence of the observations from the
    protected files via the rank criterion."""
    cols = model.protected_columns(protected)
    witness = _exposing_combination(
        model.field, model.obs_rand, model.obs_files[:, cols]
    )
    return _verdict(model, witness)


# -- model construction from a session ---------------------------------------


class SessionAnalyzer:
    """Builds observation models for one session, sharing the expensive row
    blocks (per-cache shares, transmissions) across observers.  The models
    cover the first `positions` symbol positions of every share, key and
    broadcast (all of them for None), position innermost; at `positions=1`
    they are M1 (see the module docstring), which the tests check every
    verdict against."""

    def __init__(self, session: SessionState, positions: int | None = None):
        if positions is not None and positions < 1:
            raise ValueError(f"positions must be at least 1, got {positions}")
        self.session = session
        meta = session.meta
        self.fsym = (
            meta.symbols_per_share
            if positions is None
            else min(meta.symbols_per_share, positions)
        )
        self.nsub = meta.num_subfiles
        self.nrand = meta.num_random
        self.num_files = session.config.num_files
        self.spf = self.nsub * self.fsym
        self.file_dim = self.num_files * self.spf
        self.vdim = self.num_files * self.nrand * self.fsym
        self.pairs = session.garray.pairs  # key row p's columns start at vdim + p * fsym
        self.rand_dim = self.vdim + len(self.pairs) * self.fsym
        self._enc = cauchy_matrix(meta.num_shares, session.config.field)
        self._cache_blocks: dict[int, tuple] = {}
        self._delivery_block: tuple | None = None

    def _file_col(self, n: int, m: int, pos: int) -> int:
        return (n - 1) * self.spf + m * self.fsym + pos

    def _v_col(self, n: int, z: int, pos: int) -> int:
        return (n - 1) * self.nrand * self.fsym + z * self.fsym + pos

    def _add_share(self, a_row, b_row, n: int, j: int, pos: int) -> None:
        """XOR share j of file n at symbol pos into a row: the columns of its
        subfiles, then of its randomness, lie fsym apart."""
        coeffs = self._enc[j - 1]
        a_row[self._file_col(n, 0, pos) :: self.fsym][: self.nsub] ^= coeffs[: self.nsub]
        b_row[self._v_col(n, 0, pos) :: self.fsym][: self.nrand] ^= coeffs[self.nsub :]

    def _rows(self, count: int):
        field = self.session.config.field
        return field.zeros(count, self.file_dim), field.zeros(count, self.rand_dim)

    def cache_block(self, cache: int):
        """Rows for every share symbol stored by the given cache label."""
        if cache not in self._cache_blocks:
            rows = self.session.cached_rows[cache - 1]
            count = self.num_files * len(rows) * self.fsym
            a, b = self._rows(count)
            labels = []
            r = 0
            for n in range(1, self.num_files + 1):
                for j in rows:
                    for pos in range(self.fsym):
                        self._add_share(a[r], b[r], n, j, pos)
                        labels.append(("share", n, j, pos))
                        r += 1
            self._cache_blocks[cache] = (a, b, tuple(labels))
        return self._cache_blocks[cache]

    def key_block(self, user: int):
        keys = sorted(self.session.user_keys[user])
        a, b = self._rows(len(keys) * self.fsym)
        labels = []
        for r0, p in enumerate(keys):
            for pos in range(self.fsym):
                r = r0 * self.fsym + pos
                b[r, self.vdim + p * self.fsym + pos] = 1
                labels.append(("key", *self.pairs[p], pos))
        return a, b, tuple(labels)

    def delivery_block(self):
        """Rows for every broadcast symbol (shared by all observers)."""
        if self._delivery_block is None:
            session = self.session
            a, b = self._rows(len(self.pairs) * self.fsym)
            labels = []
            for p, pair in enumerate(self.pairs):
                for pos in range(self.fsym):
                    r = p * self.fsym + pos
                    for row, user in session.garray.pair_occurrences[pair]:
                        self._add_share(a[r], b[r], session.demands[user - 1], row, pos)
                    if not session.pads_stripped:
                        b[r, self.vdim + p * self.fsym + pos] ^= 1
                    labels.append(("x", *pair, pos))
            self._delivery_block = (a, b, tuple(labels))
        return self._delivery_block

    def _assemble(self, blocks) -> LinearObservationModel:
        a = np.concatenate([blk[0] for blk in blocks], axis=0)
        b = np.concatenate([blk[1] for blk in blocks], axis=0)
        labels = tuple(lbl for blk in blocks for lbl in blk[2])
        return LinearObservationModel(
            self.session.config.field, self.num_files, self.spf, a, b, labels
        )

    def user_model(self, user: int, include_delivery: bool) -> LinearObservationModel:
        if user not in self.session.garray.columns:
            raise ValueError(f"unknown user {user}")
        cache = self.session.association.user_to_cache[user - 1]
        blocks = [self.cache_block(cache), self.key_block(user)]
        if include_delivery:
            blocks.append(self.delivery_block())
        return self._assemble(blocks)


def _no_rows(field: BinaryField, num_files: int, width: int) -> LinearObservationModel:
    """What a check reduces to once every observation has cancelled or
    dropped out; every check on it holds."""
    a, b = field.zeros(0, num_files * width), field.zeros(0, 0)
    return LinearObservationModel(field, num_files, width, a, b, ())


def check_external_eavesdropper(session: SessionState) -> SecrecyVerdict:
    """Broadcast-only observer; every file is protected.  Decided on no rows
    with the pads on and on the carried-share table with them stripped,
    which is exact (see the module docstring)."""
    field, meta, num_files = session.config.field, session.meta, session.config.num_files
    model = _no_rows(field, num_files, meta.num_subfiles)
    if session.pads_stripped:
        pairs = session.garray.pairs
        f, z, rows = meta.num_shares, meta.num_random, len(pairs)
        table, rand = _carried_shares(session), field.zeros(rows, num_files, z)
        p, n, j = np.nonzero(table)
        np.bitwise_xor.at(rand, (p, n), cauchy_matrix(f, field)[j, f - z :])
        model = LinearObservationModel(
            field, num_files, f, table.reshape(rows, num_files * f),
            rand.reshape(rows, num_files * z),
            tuple(("x", *pair, 0) for pair in pairs))
    return check_zero_information(model, range(1, num_files + 1))


# -- whole-session verification ------------------------------------------------


@dataclass
class SecrecyReport:
    """Rank-check verdicts for every cache and user, plus the eavesdropper."""

    cache_placement: dict[int, SecrecyVerdict]
    user_placement: dict[int, SecrecyVerdict]
    user_delivery: dict[int, SecrecyVerdict]
    eavesdropper: SecrecyVerdict

    @property
    def all_hold(self) -> bool:
        verdicts = [
            *self.cache_placement.values(),
            *self.user_placement.values(),
            *self.user_delivery.values(),
            self.eavesdropper,
        ]
        return all(v.holds for v in verdicts)


def strip_pads(session: SessionState) -> SessionState:
    """Sabotage for secrecy testing: a copy of the session whose broadcasts
    carry no one-time pads, the broadcast block XOR the key block.  The
    input session is left untouched; ValueError if its pads are already
    stripped, since stripping them again would put them back."""
    if session.pads_stripped:
        raise ValueError("the session's pads are already stripped")
    transmissions = session.transmissions ^ session.key_pool
    transmissions.setflags(write=False)
    return replace(session, transmissions=transmissions, pads_stripped=True)


def _cancel_rows(session: SessionState, cache: int) -> np.ndarray:
    """C_v (C_v^lam)^-1, F x Z: the combinations of the cache's shares that
    cancel each share's sharing randomness, for lifting its users' failing
    witnesses.  Eliminating [C_v^lam | I] on its first Z columns leaves
    [I | (C_v^lam)^-1]; the cache holds Z distinct rows of a Cauchy matrix,
    so fewer than Z pivots breaks an invariant."""
    field, meta = session.config.field, session.meta
    z = meta.num_random
    c_v = cauchy_matrix(meta.num_shares, field)[:, meta.num_subfiles :]
    rows = [j - 1 for j in session.cached_rows[cache - 1]]
    work = np.concatenate([c_v[rows], np.eye(z, dtype=c_v.dtype)], axis=1)
    if _echelon(field, work, z) < z:
        raise RuntimeError(f"cache {cache}: the randomness block of its shares is singular")
    return field.matmul(c_v, work[:, z:])


def _carried_shares(session: SessionState) -> np.ndarray:
    """The carried-share table, P x N x F, broadcasts in pair order: 1 where
    a broadcast carries share j of file n, at most once (C3)."""
    occurrences, demands = session.garray.pair_occurrences, session.demands
    cells = [(p, demands[user - 1] - 1, row - 1) for p, occ in enumerate(occurrences.values())
             for row, user in occ]
    shape = len(occurrences), session.config.num_files, session.meta.num_shares
    table = session.config.field.zeros(*shape)
    table[tuple(np.array(cells, dtype=np.intp).reshape(-1, 3).T)] = 1
    return table


def _delivery_model(
    session: SessionState, user: int, table: np.ndarray, lacked: list[int]
) -> LinearObservationModel:
    """The user's delivery check with its cache and keys eliminated: the
    carried-share table at the broadcasts the user cannot discard and at
    the shares its cache lacks (0-based `lacked`).  With the pads stripped
    those are all the broadcasts; otherwise they are the rows of the keys
    the user holds, in row order."""
    field, pairs = session.config.field, session.garray.pairs
    rows = range(len(pairs)) if session.pads_stripped else sorted(session.user_keys[user])
    return LinearObservationModel(
        field, session.config.num_files, len(lacked),
        np.take(table[rows], lacked, axis=2).reshape(len(rows), table.shape[1] * len(lacked)),
        field.zeros(len(rows), 0), tuple(("x", *pairs[p], 0) for p in rows))


def _lifted(session: SessionState, user: int, pair, cancel, table) -> SecrecyVerdict:
    """The failing delivery witness of broadcast `pair` on the user's
    one-position model, from its cache's `_cancel_rows` and the
    carried-share table, read at the pair's row.

    Its rows are placed by the layout of `SessionAnalyzer.user_model` at
    one position, without building it: the cache block (file-major, then
    the cached rows), the user's key rows in row order, then every
    broadcast in pair order."""
    field, p = session.config.field, session.garray.pair_index[pair]
    cached = session.cached_rows[session.association.user_to_cache[user - 1] - 1]
    keys = sorted(session.user_keys[user])
    key_start = session.config.num_files * len(cached)
    x_start = key_start + len(keys)
    witness = field.zeros(x_start + len(table))
    labels = {x_start + p: ("x", *pair, 0)}
    if not session.pads_stripped:
        labels[key_start + keys.index(p)] = ("key", *pair, 0)
    witness[list(labels)] = 1
    for n, j in np.argwhere(table[p]).tolist():  # share j + 1 of file n + 1
        start = n * len(cached)
        witness[start : start + len(cached)] ^= cancel[j]
        labels.update((start + k, ("share", n + 1, c, 0)) for k, c in enumerate(cached))
    rows = tuple((labels[r], int(witness[r])) for r in np.flatnonzero(witness))
    return SecrecyVerdict(False, witness, rows)


def verify_session(session: SessionState) -> SecrecyReport:
    """Run the full battery: per-cache placement secrecy, per-user
    placement secrecy, per-user delivery secrecy (all files but the
    demanded one), and the broadcast-only eavesdropper.

    Each check is one `check_zero_information` call on the smallest model
    exactly equivalent to its one-position model (see the module
    docstring): no rows for placement and the eavesdropper with the pads
    on, the carried-share table otherwise.  Raises RuntimeError, naming
    the cache, when a cache does not list Z distinct share rows in 1..F.
    """
    config, meta = session.config, session.meta
    f, z = meta.num_shares, meta.num_random
    for lam, rows in enumerate(session.cached_rows, start=1):
        if not len(rows) == len(set(rows).intersection(range(1, f + 1))) == z:
            raise RuntimeError(f"cache {lam} holds {len(rows)} share rows {list(rows)}, "
                               f"not Z = {z} distinct rows in 1..{f}")
    placed = _no_rows(config.field, 1, meta.num_subfiles)
    all_files = set(range(1, config.num_files + 1))
    caches = range(1, config.num_caches + 1)
    cache_placement = {lam: check_zero_information(placed, {1}) for lam in caches}
    users = session.garray.column_users
    user_placement = {user: check_zero_information(placed, {1}) for user in users}
    table = _carried_shares(session)
    user_delivery = {}
    # groups list the users cache by cache, in the G-array's column order
    for lam, group in enumerate(session.association.groups, start=1):
        lacked = [j for j in range(f) if j + 1 not in session.cached_rows[lam - 1]]
        model = cancel = None
        for user in group:
            # with the pads stripped every user keeps every broadcast, so the
            # users of a cache share one model
            if model is None or not session.pads_stripped:
                model = _delivery_model(session, user, table, lacked)
            verdict = check_zero_information(model, all_files - {session.demands[user - 1]})
            if not verdict.holds:  # one broadcast ("x", s, i, 0), coefficient 1
                cancel = _cancel_rows(session, lam) if cancel is None else cancel
                (label, _), = verdict.witness_rows
                verdict = _lifted(session, user, label[1:-1], cancel, table)
            user_delivery[user] = verdict
    return SecrecyReport(
        cache_placement, user_placement, user_delivery, check_external_eavesdropper(session)
    )
