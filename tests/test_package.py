"""The package's public names."""

import structmv as sm


def test_all_is_sorted_without_duplicates_and_resolves():
    assert sm.__all__ == sorted(set(sm.__all__))
    missing = [name for name in sm.__all__ if not hasattr(sm, name)]
    assert missing == []
