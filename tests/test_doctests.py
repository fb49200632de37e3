"""Keep the illustrative docstring examples honest."""

import doctest

import fanolines.chains
import fanolines.dsl
import fanolines.families
import fanolines.terms


def test_module_doctests():
    for module in (fanolines.terms, fanolines.dsl, fanolines.chains, fanolines.families):
        result = doctest.testmod(module)
        assert result.failed == 0, f"doctest failures in {module.__name__}"
        assert result.attempted > 0
