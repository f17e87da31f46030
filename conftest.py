"""Start every test module with lrm's caches cold.

Some tests count cache misses or successor calls, so they must not see
rows another module left warm; without this the suite passes only in one
file order.
"""

import sys

import pytest


@pytest.fixture(autouse=True, scope="module")
def _cold_lrm_caches():
    for name, module in list(sys.modules.items()):
        if name == "lrm" or name.startswith("lrm."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name:
                    value.cache_clear()
    yield
