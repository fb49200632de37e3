"""The package's public names."""

import fanolines


def test_all_is_sorted_unique_and_resolves():
    names = fanolines.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(fanolines, name)]
    assert missing == []
