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


# orders of the cyclic groups generated by the named elements (lcm of
# cycle lengths, checked by tests against the closure)
ELEMENT_ORDERS = {
    "sigma1": 2, "sigma2": 2, "kappa": 2, "kappa_tilde": 2, "kappa_prime": 4,
    "kappa_circ": 2, "phi1": 3, "phi1_tilde": 3, "phi2": 2, "phi2_tilde": 2,
    "psi1": 4, "psi2": 4, "theta": 7, "theta_tilde": 7,
    "Theta": 8, "Phi": 3, "Psi": 4, "Psi_tilde": 4,
}


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
    if name in ELEMENT_ORDERS:
        return CatalogEntry(
            name, "element", (suite.perm_words[name],), ELEMENT_ORDERS[name]
        )
    raise CatalogError(f"unknown catalog name {name!r}")


def catalog_group(name: str) -> PermGroup:
    suite = _catalog_suite()
    if name in suite.groups:
        return suite.groups[name]
    if name in suite.perms:
        return PermGroup([suite.perms[name]], degree=suite.points)
    raise CatalogError(f"unknown catalog name {name!r}")


def catalog_names():
    suite = _catalog_suite()
    return list(suite.group_words) + list(ELEMENT_ORDERS)
