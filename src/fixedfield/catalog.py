"""The embedded catalog of the 48 transitive subgroups of S8.

The data itself lives in ``data/catalog.suite`` (perm and group
declarations plus order/transitivity/wreath checks); this module gives
programmatic access to the entries.  Named elements carry the order of
the cyclic group they generate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .perms import PermGroup
from .suite import Suite, load_suite


class CatalogError(KeyError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # "group" or "element"
    generators: tuple
    expected_order: int


@lru_cache(maxsize=1)
def _catalog_suite() -> Suite:
    return load_suite("catalog")


def catalog_lookup(name: str) -> CatalogEntry:
    suite = _catalog_suite()
    if name in suite.group_words:
        return CatalogEntry(
            name, "group", tuple(suite.group_words[name]), suite.groups[name].order
        )
    if name in suite.perm_words:
        order = PermGroup([suite.perms[name]]).order
        return CatalogEntry(name, "element", (suite.perm_words[name],), order)
    raise CatalogError(f"unknown catalog name {name!r}")


def catalog_names():
    suite = _catalog_suite()
    return list(suite.group_words) + list(suite.perm_words)
