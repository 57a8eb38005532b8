"""GF(2^l) arithmetic against an independent coefficient-list oracle."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seccache.field import _DEFAULT_POLYS, BinaryField
from tests.conftest import field_inv, is_irreducible, scalar_row_reduce


def oracle_mul(a, b, poly, l):
    """Schoolbook polynomial multiply-and-reduce on explicit coefficient
    lists; shares no code with the int-based implementation."""
    ca = [(a >> i) & 1 for i in range(l)]
    cb = [(b >> i) & 1 for i in range(l)]
    prod = [0] * (2 * l - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            prod[i + j] ^= x & y
    cp = [(poly >> i) & 1 for i in range(l + 1)]
    for top in range(len(prod) - 1, l - 1, -1):
        if prod[top]:
            shift = top - l
            for i, c in enumerate(cp):
                prod[shift + i] ^= c
    return sum(bit << i for i, bit in enumerate(prod[:l]))


def test_add_is_self_inverse():
    """x + x = 0 for every x, through the XOR that sums matmul's terms, on
    both of its branches."""
    for field in (BinaryField(3), BinaryField(16)):
        x = np.arange(field.order, dtype=field.dtype)
        assert not field.matmul(np.array([[1, 1]]), np.stack([x, x])).any()


def test_mul_identity_exhaustive(gf8):
    for x in range(gf8.order):
        assert gf8.mul(x, 1) == x


def test_mul_matches_oracle_gf8_example(gf3):
    # GF(2^3) with x^3 + x + 1
    expected = oracle_mul(6, 3, gf3.poly, 3)
    assert gf3.mul(6, 3) == expected
    assert expected == 1  # frozen from the oracle


@pytest.mark.parametrize("l", [2, 3, 4, 8])
def test_mul_matches_oracle_everywhere_small(l):
    field = BinaryField(l)
    rng = random.Random(l)
    pairs = (
        [(a, b) for a in range(field.order) for b in range(field.order)]
        if l <= 4
        else [(rng.randrange(256), rng.randrange(256)) for _ in range(400)]
    )
    for a, b in pairs:
        assert field.mul(a, b) == oracle_mul(a, b, field.poly, l)


def test_axioms_exhaustive_gf3(gf3):
    q = gf3.order
    for x in range(q):
        for y in range(q):
            assert gf3.mul(x, y) == gf3.mul(y, x)
            for z in range(q):
                assert gf3.mul(x, gf3.mul(y, z)) == gf3.mul(gf3.mul(x, y), z)
                assert gf3.mul(x, y ^ z) == gf3.mul(x, y) ^ gf3.mul(x, z)


def test_inverse_everywhere(gf8):
    for x in range(1, gf8.order):
        assert gf8.mul(x, field_inv(gf8, x)) == 1


def test_inv_zero_is_an_error(gf8):
    with pytest.raises(ZeroDivisionError):
        field_inv(gf8, 0)


@pytest.mark.parametrize("l", [1, 17, 0])
def test_width_bounds(l):
    with pytest.raises(ValueError):
        BinaryField(l)


def test_all_default_polynomials_are_irreducible():
    """Each width's polynomial is irreducible, and every lower-valued
    polynomial of that degree is not, so it is the lowest-valued one."""
    assert sorted(_DEFAULT_POLYS) == list(range(2, 17))
    for l, poly in _DEFAULT_POLYS.items():
        assert BinaryField(l).poly == poly
        assert is_irreducible(poly, l)
        assert not any(is_irreducible(lower, l) for lower in range(1 << l, poly))


def test_the_irreducibility_oracle_rejects_reducible_and_wrong_degree_polynomials():
    assert not is_irreducible(0b1001, 3)  # x^3 + 1 = (x + 1)(x^2 + x + 1)
    assert not is_irreducible(0b1011, 4)  # degree 3
    assert is_irreducible(0b1011, 3)


def test_default_gf8_polynomial_is_the_standard_one():
    assert BinaryField(8).poly == 0x11B  # x^8 + x^4 + x^3 + x + 1


@pytest.mark.parametrize("l", [2, 3, 8, 11])
def test_exp_log_tables_consistent(l):
    field = BinaryField(l)
    exp, log = field.exp_table, field.log_table
    for x in range(1, field.order):
        assert exp[log[x]] == x
    # doubled table lets exp[log a + log b] skip the modulo
    rng = random.Random(l)
    for _ in range(100):
        a = rng.randrange(1, field.order)
        b = rng.randrange(1, field.order)
        assert exp[log[a] + log[b]] == field.mul(a, b)
    # log 0 points into a zero tail, so products with 0 need no mask
    for a in range(field.order):
        assert exp[log[0] + log[a]] == exp[log[a] + log[0]] == 0


def test_tables_are_shared_read_only_per_polynomial():
    first, second = BinaryField(16), BinaryField(16)
    assert first.exp_table is second.exp_table
    assert first.log_table is second.log_table
    for table in (first.exp_table, first.log_table):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 0
    other = BinaryField(15)
    assert other.exp_table is not first.exp_table
    assert other.log_table is not first.log_table
    rng = random.Random(15)
    for _ in range(50):
        a, b = rng.randrange(other.order), rng.randrange(other.order)
        assert other.exp_table[other.log_table[a] + other.log_table[b]] == other.mul(a, b)


def test_scale_and_outer_match_scalar_mul(gf8):
    rng = random.Random(0)
    vec = np.array([rng.randrange(256) for _ in range(40)], dtype=gf8.dtype)
    s = 0x53
    scaled = gf8.scale(s, vec)
    assert all(int(y) == gf8.mul(s, int(x)) for x, y in zip(vec, scaled))
    factors = np.array([3, 200, 1], dtype=gf8.dtype)
    outer = gf8.scaled_outer(factors, vec)
    for r, f in enumerate(factors):
        assert all(
            int(outer[r, c]) == gf8.mul(int(f), int(vec[c])) for c in range(len(vec))
        )


# -- the elimination kernel against the scalar oracles --------------------------


@st.composite
def low_rank_matrices(draw):
    """(field, matrix, pivot_cols): random symbols, about half of them zero,
    with some rows replaced by scalar combinations of two earlier
    rows so that rank-deficient matrices are common at every l."""
    field = BinaryField(draw(st.integers(2, 16)))
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(1, 10))
    symbol = st.one_of(st.just(0), st.integers(1, field.order - 1))
    grid = [draw(st.lists(symbol, min_size=cols, max_size=cols)) for _ in range(rows)]
    for r in range(2, rows):
        if draw(st.booleans()):
            a, b = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            fa, fb = draw(symbol), draw(symbol)
            grid[r] = [field.mul(fa, x) ^ field.mul(fb, y)
                       for x, y in zip(grid[a], grid[b])]
    mat = np.array(grid, dtype=field.dtype).reshape(rows, cols)
    return field, mat, draw(st.integers(0, cols))


@settings(max_examples=200, deadline=None)
@given(case=low_rank_matrices())
def test_echelon_matches_the_scalar_forward_oracle(case):
    """echelon is a forward elimination: the oracle's exact rows and rank,
    each pivot scaled to 1 with zeros below it, and zeros throughout the
    first pivot_cols columns of the rows past the pivots."""
    field, mat, pivot_cols = case
    expect_rows, expect_rank = scalar_row_reduce(field, mat.tolist(), pivot_cols, above=False)
    rank = field.echelon(mat, pivot_cols)
    assert rank == expect_rank
    assert mat.tolist() == expect_rows
    lead = mat[:, :pivot_cols]
    pivot_of = [int(np.nonzero(row)[0][0]) for row in lead[:rank]]
    assert pivot_of == sorted(set(pivot_of))
    for r, c in enumerate(pivot_of):
        assert mat[r, c] == 1
        assert not mat[r + 1 :, c].any()
    assert not lead[rank:].any()


@settings(max_examples=200, deadline=None)
@given(case=low_rank_matrices())
def test_echelon_matches_the_scalar_gauss_jordan_oracle(case):
    """Clearing above a pivot changes only rows above it, so the rows past
    the pivots, all that a secrecy witness reads, are a Gauss-Jordan
    elimination's."""
    field, mat, pivot_cols = case
    expect_rows, expect_rank = scalar_row_reduce(field, mat.tolist(), pivot_cols)
    rank = field.echelon(mat, pivot_cols)
    assert rank == expect_rank
    assert mat[rank:].tolist() == expect_rows[rank:]
