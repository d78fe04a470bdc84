"""Helpers that only the tests call, built on the package's own pieces."""

from deltaplus.ddf import DDF
from deltaplus.rationals import EXT_INF, EXT_ZERO, ExtRat, ext_cmp
from deltaplus.tau import _corner_matrix
from deltaplus.tconorms import TConormDesc, _equal_corners
from deltaplus.verdicts import Verdict


def ext_min(a: ExtRat, b: ExtRat) -> ExtRat:
    return a if ext_cmp(a, b) <= 0 else b


def check_LS(l: TConormDesc) -> Verdict:
    """Decide strictness at the certificate: fail on the first quadruple
    u<u', v<v' with L(u,v) = L(u',v'), finite or not."""
    return _equal_corners(l, finite_only=False)


def idempotents(l: TConormDesc, grid: set[ExtRat] | frozenset[ExtRat]) -> set[ExtRat]:
    """Fixed points of the diagonal among grid and hinted elements; the
    endpoints 0 and infinity always qualify."""
    found = {EXT_ZERO, EXT_INF}
    for x in set(grid) | set(l.idempotent_hints):
        if l(x, x) == x:
            found.add(x)
    return found


def corner_images(l: TConormDesc, f: DDF, g: DDF) -> list[ExtRat]:
    """Sorted finite images of the grid's lower corners under L.

    Every cut list starts at 0, so under the drastic conorm these are the
    cuts of both operands.
    """
    return sorted({c for row in _corner_matrix(l, f, g) for c in row if not c.is_infinite})
