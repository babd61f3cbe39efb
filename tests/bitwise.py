"""Bitwise list comparison shared by the tests."""


def assert_bitwise_equal(got, want):
    """Fail unless got and want have equal length and equal repr at every index.

    The report names the first differing index and both values.  A whole-list
    repr comparison makes pytest diff two long strings character by character,
    which takes seconds for a sweep of thousands of rows.
    """
    assert len(got) == len(want), f"length {len(got)} != {len(want)}"
    for i, (a, b) in enumerate(zip(got, want)):
        if repr(a) != repr(b):
            raise AssertionError(f"index {i}: {a!r} != {b!r}")
