"""Placement delivery arrays: type, validator, constructors, I/O.

A PDA is an F x Lambda grid whose entries are either a star or an integer
in [1, S].  Stars mark cached shares; equal integers mark XOR-multicast
opportunities.  Validity means:

  C1: every column holds the same number of stars (Z);
  C2: the integers are exactly 1..S with no gaps;
  C3: equal integers lie in distinct rows and columns, and the two cross
      positions of any such pair are stars.

A valid PDA also has a star (Z > 0); the starless `one_row_pda` of the
M = 0 scheme is built, never read from input.

Rows and columns are 1-based in every public coordinate this module
reports, matching the usual array-as-printed convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb

# A star entry; integer entries are ints >= 1.
STAR = None

# Largest subset-family grid mn_pda builds.  mn:18,9 (875,160 cells) takes
# about 1.7 s and 110 MiB; mn:20,10 (3,695,120) would take 10 s and 320 MiB.
MN_MAX_CELLS = 1 << 21

Entry = int | None
Grid = tuple[tuple[Entry, ...], ...]


class PdaError(ValueError):
    """A grid that is not a valid PDA."""


class C1Violation(PdaError):
    def __init__(self, column: int, count: int, expected: int):
        self.column, self.count, self.expected = column, count, expected
        super().__init__(
            f"C1: column {column} has {count} stars, expected {expected}"
        )


class C2Violation(PdaError):
    def __init__(self, missing: int):
        self.missing = missing
        super().__init__(f"C2: integer {missing} does not occur")


class C3Violation(PdaError):
    def __init__(self, value: int, first: tuple[int, int], second: tuple[int, int]):
        self.value, self.first, self.second = value, first, second
        super().__init__(
            f"C3: integer {value} at {first} and {second} breaks the star pattern"
        )


class PdaFormatError(ValueError):
    """Malformed PDA text."""


@dataclass(frozen=True)
class PdaParams:
    num_caches: int  # Lambda
    num_rows: int  # F (subpacketization)
    stars_per_column: int  # Z; 0 only for one_row_pda
    num_ints: int  # S

    def __post_init__(self):
        if not 0 <= self.stars_per_column < self.num_rows:
            raise PdaError(
                f"need 0 <= Z < F, got Z={self.stars_per_column}, F={self.num_rows}"
            )
        # Holds for every valid PDA; a failure means the validator is broken.
        if self.num_ints > self.num_caches * (self.num_rows - self.stars_per_column):
            raise RuntimeError(
                f"S={self.num_ints} exceeds Lambda*(F-Z) for a PDA that passed validation"
            )

    @property
    def memory_ratio(self) -> Fraction:
        """Z/F, the fraction of each file a helper cache effectively holds."""
        return Fraction(self.stars_per_column, self.num_rows)


def _normalize_grid(grid) -> Grid:
    rows = tuple(tuple(row) for row in grid)
    if not rows or not rows[0]:
        raise PdaError("empty grid")
    width = len(rows[0])
    for j, row in enumerate(rows, start=1):
        if len(row) != width:
            raise PdaError(f"row {j} has {len(row)} entries, expected {width}")
        for entry in row:
            if entry is not STAR and (not isinstance(entry, int) or entry < 1):
                raise PdaError(f"row {j}: entries must be stars or integers >= 1")
    return rows


def validate(grid) -> PdaParams:
    """Check C1-C3 and return the (Lambda, F, Z, S) parameters.

    Raises C1Violation, C2Violation or C3Violation pinpointing the first
    failure; Z is inferred from the star counts, S from the largest
    integer (which must leave no gaps below it).  A grid that passes C1-C3
    with no star (Z = 0) is refused too: M = 0 is the one-row PDA's.
    """
    rows = _normalize_grid(grid)
    f, lam = len(rows), len(rows[0])

    star_counts = [sum(1 for j in range(f) if rows[j][k] is STAR) for k in range(lam)]
    z = star_counts[0]
    for k, count in enumerate(star_counts, start=1):
        if count != z:
            raise C1Violation(k, count, z)

    positions: dict[int, list[tuple[int, int]]] = {}
    for j in range(f):
        for k in range(lam):
            if rows[j][k] is not STAR:
                positions.setdefault(rows[j][k], []).append((j + 1, k + 1))
    if not positions:
        raise C2Violation(1)
    s_max = max(positions)
    for s in range(1, s_max + 1):
        if s not in positions:
            raise C2Violation(s)

    for s, occ in positions.items():
        for (j1, k1), (j2, k2) in combinations(occ, 2):
            if j1 == j2 or k1 == k2:
                raise C3Violation(s, (j1, k1), (j2, k2))
            if rows[j1 - 1][k2 - 1] is not STAR or rows[j2 - 1][k1 - 1] is not STAR:
                raise C3Violation(s, (j1, k1), (j2, k2))

    if z == 0:
        raise PdaError(f"need 0 < Z < F, got Z=0, F={f}")
    return PdaParams(lam, f, z, s_max)


@dataclass(frozen=True)
class Pda:
    """A validated placement delivery array, or `one_row_pda`'s."""

    entries: Grid
    params: PdaParams

    @classmethod
    def from_grid(cls, grid) -> "Pda":
        rows = _normalize_grid(grid)
        return cls(rows, validate(rows))

    @property
    def num_caches(self) -> int:
        return self.params.num_caches

    @property
    def num_rows(self) -> int:
        return self.params.num_rows

    def star_rows(self, col: int) -> tuple[int, ...]:
        """1-based rows where the given column holds a star."""
        return tuple(
            j + 1 for j in range(self.num_rows) if self.entries[j][col - 1] is STAR
        )

    @cached_property
    def occurrences(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """occurrences[s - 1] lists the 1-based (row, col) positions of
        integer s, column by column, from one column-major pass."""
        found: list[list[tuple[int, int]]] = [[] for _ in range(self.params.num_ints)]
        for k, column in enumerate(zip(*self.entries), start=1):
            for j, e in enumerate(column, start=1):
                if e is not STAR:
                    found[e - 1].append((j, k))
        return tuple(map(tuple, found))

    def permute_columns(self, order) -> "Pda":
        """New PDA whose column i is this one's column order[i-1] (1-based).

        Permuting columns keeps C1-C3 and (Lambda, F, Z, S), so the grid
        is not validated again and the parameters are this PDA's."""
        if sorted(order) != list(range(1, self.num_caches + 1)):
            raise ValueError("order must be a permutation of the column indices")
        grid = tuple(
            tuple(row[c - 1] for c in order) for row in self.entries
        )
        return Pda(grid, self.params)


def check_mn_size(num_caches: int, t: int) -> None:
    """ValueError if the grid of mn:num_caches,t, C(Lambda, t) x Lambda
    cells, is larger than MN_MAX_CELLS."""
    cells = comb(num_caches, t) * num_caches
    if cells > MN_MAX_CELLS:
        raise ValueError(
            f"mn:{num_caches},{t} has {cells} cells (C({num_caches},{t}) rows x "
            f"{num_caches} columns); at most {MN_MAX_CELLS} can be built"
        )


def one_row_pda(num_caches: int) -> Pda:
    """The subset-family PDA at t = 0: one row 1 ... Lambda, no star
    (F = 1, Z = 0, S = Lambda).  C1-C3 hold, so the grid is not validated,
    which would refuse it for having no star."""
    return Pda((tuple(range(1, num_caches + 1)),), PdaParams(num_caches, 1, 0, num_caches))


def mn_pda(num_caches: int, t: int) -> Pda:
    """Subset-indexed PDA family: one row per t-subset of the caches.

    Rows are the t-subsets of [Lambda] in lexicographic order; entry
    (T, lam) is a star when lam is in T, else the lexicographic rank of
    T u {lam} among the (t+1)-subsets.  Parameters come out as
    F = C(Lambda, t), Z = C(Lambda-1, t-1), S = C(Lambda, t+1), and each
    integer appears exactly t + 1 times.  A grid of more than MN_MAX_CELLS
    cells is refused with ValueError before anything is built.
    """
    if num_caches < 2:
        raise ValueError("need at least 2 caches")
    if not 1 <= t <= num_caches - 1:
        raise ValueError(f"t must be in [1, {num_caches - 1}], got {t}")
    check_mn_size(num_caches, t)
    labels = range(1, num_caches + 1)
    rank = {
        subset: i for i, subset in enumerate(combinations(labels, t + 1), start=1)
    }
    grid = tuple(
        tuple(
            STAR if lam in row_set else rank[tuple(sorted(set(row_set) | {lam}))]
            for lam in labels
        )
        for row_set in combinations(labels, t)
    )
    return Pda.from_grid(grid)


# -- text format ---------------------------------------------------------------
#
# Line 1: "Lambda F Z S" (ASCII decimal, space-separated); then F lines of
# Lambda tokens, each "*" or ASCII decimal >= 1.  "#" starts a comment line.

_STAR_TOKENS = {"*", "⋆"}  # "*" and the star symbol


def load_pda(text: str) -> Pda:
    """Parse and validate PDA text; the header is cross-checked."""
    data_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data_lines.append((lineno, stripped))
    if not data_lines:
        raise PdaFormatError("no content")

    header_line, header = data_lines[0]
    tokens = header.split()
    if len(tokens) != 4 or not all(t.isascii() and t.isdigit() for t in tokens):
        raise PdaFormatError(
            f"line {header_line}: header must be four integers 'Lambda F Z S'"
        )
    lam, f, z, s = map(int, tokens)

    body = data_lines[1:]
    if len(body) != f:
        raise PdaFormatError(f"expected {f} grid rows, found {len(body)}")
    grid = []
    for rownum, (lineno, line) in enumerate(body, start=1):
        tokens = line.split()
        if len(tokens) != lam:
            raise PdaFormatError(
                f"line {lineno}: row {rownum} has {len(tokens)} entries, expected {lam}"
            )
        row: list[Entry] = []
        for colnum, tok in enumerate(tokens, start=1):
            if tok in _STAR_TOKENS:
                row.append(STAR)
            elif tok.isascii() and tok.isdigit() and int(tok) >= 1:
                row.append(int(tok))
            else:
                raise PdaFormatError(
                    f"line {lineno}: bad entry {tok!r} at column {colnum}"
                )
        grid.append(tuple(row))

    pda = Pda.from_grid(grid)
    got = pda.params
    declared = (lam, f, z, s)
    actual = (got.num_caches, got.num_rows, got.stars_per_column, got.num_ints)
    if declared != actual:
        raise PdaFormatError(
            f"header declares (Lambda,F,Z,S)={declared} but the grid has {actual}"
        )
    return pda


def save_pda(pda: Pda) -> str:
    """Render in the text format load_pda reads; single spaces, trailing newline."""
    p = pda.params
    lines = [f"{p.num_caches} {p.num_rows} {p.stars_per_column} {p.num_ints}"]
    for row in pda.entries:
        lines.append(" ".join("*" if e is STAR else str(e) for e in row))
    return "\n".join(lines) + "\n"
