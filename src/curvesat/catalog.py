"""Built-in fixture curves and line arrangements.

Entries are stored as input text in the same grammar the CLI accepts,
so every fixture goes through the ordinary parser.  The irreducible
flag is only set where irreducibility is classically known (smooth
curves; the binomial family y^d + x^k z^(d-k) exactly when
gcd(d, k) = 1; the rational cuspidal quartics); it gates the verdicts
that need it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import UnknownCatalogEntryError
from .parsing import parse_arrangement, parse_poly

POLY = "poly"
ARRANGEMENT = "arrangement"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str
    text: str
    irreducible: bool | None
    note: str


def _arr(lines):
    return "\n".join(lines) + "\n"


_ZIEGLER_A = [
    "x",
    "y",
    "x - y - z",
    "x - y + z",
    "2*x + y - 2*z",
    "x + 3*y - 3*z",
    "3*x + 2*y + 3*z",
    "x + 5*y + 5*z",
    "7*x - 4*y - z",
]

_ZIEGLER_A_OFF_CONIC = [
    "x",
    "y",
    "x + y - z",
    "5*x + 2*y - 10*z",
    "3*x + 2*y - 6*z",
    "x - 3*y + 15*z",
    "2*x - y + 10*z",
    "6*x + 5*y + 30*z",
    "3*x - 4*y - 24*z",
]


def _build():
    entries = []

    def poly(name, text, irreducible, note):
        entries.append(CatalogEntry(name, POLY, text, irreducible, note))

    def arrangement(name, lines, note):
        entries.append(
            CatalogEntry(name, ARRANGEMENT, _arr(lines), False, note))

    poly("xy", "x*y", False, "two lines through a point")
    poly("conic", "x^2 + y^2 + z^2", True, "smooth conic")
    for d in range(3, 7):
        poly(f"nodal-{d}", f"x*y*z^{d - 2} + x^{d} + y^{d}", None,
             f"degree {d} curve with a single node")
    for d in range(3, 11):
        for k in range(1, d):
            poly(f"nf-d{d}-k{k}", f"y^{d} + x^{k}*z^{d - k}",
                 gcd(d, k) == 1,
                 f"nearly free binomial curve, d={d}, k={k}")
    for d in range(3, 7):
        poly(f"fermat-{d}", f"x^{d} + y^{d} + z^{d}", True,
             f"smooth Fermat curve of degree {d}")
    arrangement("triangle", ["x", "y", "z"], "coordinate triangle")
    arrangement("concurrent-4", ["x", "y", "x + y", "x - y"],
                "four lines through one point")
    arrangement("near-pencil-4", ["x", "y", "x + y", "z"],
                "three concurrent lines plus one transversal")
    arrangement("braid-deleted", ["x", "y", "x - y", "x - z", "y - z"],
                "braid arrangement with one line removed")
    arrangement("braid", ["x", "y", "z", "x - y", "x - z", "y - z"],
                "braid arrangement")
    arrangement("generic-4", ["x", "y", "x + y + z", "x + 2*y + 3*z"],
                "four lines in general position")
    arrangement("generic-5",
                ["x", "y", "z", "x + y + z", "x + 2*y + 3*z"],
                "five lines in general position")
    arrangement("ziegler-A", _ZIEGLER_A,
                "Ziegler arrangement, six triple points on a conic")
    arrangement("ziegler-Aprime", _ZIEGLER_A_OFF_CONIC,
                "Ziegler arrangement, six triple points not on a conic")
    poly("tricuspidal-4",
         "x^2*y^2 + y^2*z^2 + z^2*x^2 - 2*x*y*z*(x + y + z)", True,
         "rational cuspidal quartic with three A2 cusps")
    poly("a6-quartic", "(y*z - x^2)^2 - x*y^3", True,
         "rational cuspidal quartic with one A6 cusp")
    b3 = ["x", "y", "z", "x + y", "x - y", "x + z", "x - z", "y + z", "y - z"]
    arrangement("b3", b3, "reflection arrangement of the Coxeter group B3")
    arrangement("b3-deleted", b3[:-1], "B3 arrangement with y - z removed")
    arrangement("grid-4x4",
                ["x", "x - z", "x - 2*z", "x - 3*z",
                 "y", "y - z", "y - 2*z", "y - 3*z", "z"],
                "4x4 grid of lines plus the line at infinity")
    return {e.name: e for e in entries}


_ENTRIES = _build()


def names() -> list:
    return list(_ENTRIES)


def entry(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise UnknownCatalogEntryError(
            f"unknown catalog entry {name!r}; see 'catalog list'") from None


def load(name: str):
    """Parse a catalog entry into a polynomial or an arrangement."""
    e = entry(name)
    if e.kind == POLY:
        return parse_poly(e.text)
    return parse_arrangement(e.text)
