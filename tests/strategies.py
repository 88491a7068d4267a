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
