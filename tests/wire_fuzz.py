"""Hypothesis strategies shared by the wire-parser totality tests."""

from hypothesis import strategies as st


def byte_mutations(valid: bytes):
    """Arbitrary bytes, or *valid* truncated, with one byte replaced, or
    with bytes appended: inputs a total parser must either accept (and
    round-trip) or reject with a CurieError."""
    return st.one_of(
        st.binary(max_size=2 * len(valid)),
        st.integers(0, len(valid) - 1).map(lambda cut: valid[:cut]),
        st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
            lambda t: valid[:t[0]] + bytes([t[1]]) + valid[t[0] + 1:]),
        st.binary(min_size=1, max_size=8).map(lambda tail: valid + tail),
    )
