"""Shared hypothesis strategies for exact-arithmetic property tests."""

from fractions import Fraction

import hypothesis.strategies as st

from fockspec.weyl import WeylElement


def rationals(max_abs_num: int = 9, max_den: int = 9) -> st.SearchStrategy:
    return st.builds(
        Fraction,
        st.integers(-max_abs_num, max_abs_num),
        st.integers(1, max_den),
    )


def nonzero_rationals(max_abs_num: int = 9, max_den: int = 9) -> st.SearchStrategy:
    return rationals(max_abs_num, max_den).filter(bool)


def weyl_elements(max_degree: int = 4, max_terms: int = 4) -> st.SearchStrategy:
    term = st.tuples(
        st.tuples(st.integers(0, max_degree), st.integers(0, max_degree)),
        rationals(),
    )
    return st.builds(WeylElement, st.lists(term, min_size=0, max_size=max_terms))


def rational_root_multisets(
    max_roots: int = 3, max_den: int = 10**6, max_mult: int = 2
) -> st.SearchStrategy:
    """Distinct rationals (zero drawn often), each with a multiplicity."""
    root = st.one_of(st.just(Fraction(0)), rationals(max_den, max_den))
    return st.lists(
        st.tuples(root, st.integers(1, max_mult)),
        min_size=1,
        max_size=max_roots,
        unique_by=lambda pair: pair[0],
    )


@st.composite
def banded_matrices(draw, max_size: int = 8, max_bandwidth: int = 3):
    """Square rational matrices of size 0..max_size, zero more than a drawn
    lower bandwidth (0..max_bandwidth, or full) below the diagonal; zero
    entries are drawn often."""
    n = draw(st.integers(0, max_size))
    band = draw(st.one_of(st.integers(0, max_bandwidth), st.just(n)))
    entry = st.one_of(st.just(Fraction(0)), rationals())
    return [[draw(entry) if i - j <= band else Fraction(0) for j in range(n)] for i in range(n)]


@st.composite
def low_rank_matrices(draw, max_rows: int = 6, max_cols: int = 6):
    """Products of an r x k and a k x c rational matrix (k drawn up to
    min(r, c)), so that nullspaces are often nontrivial."""
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    k = draw(st.integers(0, min(rows, cols)))
    entry = st.one_of(st.just(Fraction(0)), rationals())
    left = [[draw(entry) for _ in range(k)] for _ in range(rows)]
    right = [[draw(entry) for _ in range(cols)] for _ in range(k)]
    return [
        [sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(cols)]
        for i in range(rows)
    ]
