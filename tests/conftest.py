"""Catalogs shared by the whole test session.

A built catalog is frozen and files its index as it is built, so the
modules that only read the (15,4) catalog share one build.
"""

import pytest

from fanolines.catalog import build_catalog


@pytest.fixture(scope="session")
def cat15():
    return build_catalog(15, 4)
