"""Reference arithmetic written from the definitions, apart from the engine.

Nothing here imports ``deltaplus``.  Values are plain ``Fraction`` objects;
``INF`` (``None``) stands for the infinite length.  A step function is a
list of jumps ``(x, p)`` with strictly increasing finite ``x`` and ``p``:
its value at a finite ``t`` is the largest ``p`` whose ``x`` lies below
``t``, and 0 when there is none.

The classification table follows the theorem: a pair (T, L) yields a
triangle operation exactly when (a) L is a continuous t-conorm that is
conditionally strictly increasing, (b) T is a t-norm, and (c) T is weakly
left continuous, and left continuous when L is not Archimedean.  The facts
it rests on are properties of each catalog operation, stated below.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

INF = None
ZERO = Fraction(0)
ONE = Fraction(1)


# ---- the operations, from their textbook definitions ------------------------

def tnorm(name: str):
    def drastic(x, y):
        return min(x, y) if max(x, y) == 1 else ZERO

    table = {
        "M": min,
        "Pi": lambda x, y: x * y,
        "W": lambda x, y: max(x + y - 1, ZERO),
        "nM": lambda x, y: min(x, y) if x + y > 1 else ZERO,
        "D": drastic,
        "nM_hat": lambda x, y: min(x, y) if x + y >= 1 else ZERO,
    }
    return table[name]


def _lmax(u, v):
    return INF if u is INF or v is INF else max(u, v)


def _plus(u, v):
    return INF if u is INF or v is INF else u + v


def _nilpotent(u, v):
    # Capped addition carried to [0, inf] by s = t / (1 + t).
    if u is INF or v is INF:
        return INF
    s = u / (1 + u) + v / (1 + v)
    return INF if s >= 1 else s / (1 - s)


def _drastic_conorm(u, v):
    if u == 0:
        return v
    if v == 0:
        return u
    return INF


def _osum_trunc(p):
    def fn(u, v):
        if u is not INF and v is not INF and u <= p and v <= p:
            return min(u + v, p)
        return _lmax(u, v)
    return fn


def _osum_strict(p):
    def fn(u, v):
        if u is INF or v is INF or max(u, v) > p:
            return _lmax(u, v)
        if u == p or v == p:
            return p
        s = u / (p - u) + v / (p - v)
        return p * s / (1 + s)
    return fn


def conorm(spec: str):
    name, _, param = spec.partition(":")
    if name == "osum_trunc":
        return _osum_trunc(Fraction(param))
    if name == "osum_strict":
        return _osum_strict(Fraction(param))
    return {"max": _lmax, "plus": _plus, "nilpotent_rat": _nilpotent,
            "drastic": _drastic_conorm}[name]


def lt(a, b) -> bool:
    """a < b on [0, inf]."""
    if a is INF:
        return False
    return b is INF or a < b


# ---- the theorem's table ------------------------------------------------------

# Properties of the catalog t-norms: every entry is a t-norm; the nilpotent
# minimum with ">=" is not weakly left continuous on x + y = 1, and the
# drastic product is only weakly left continuous (it drops on x = 1 and y = 1).
TNORM_FACTS = {
    # name: (left continuous, weakly left continuous)
    "M": (True, True),
    "Pi": (True, True),
    "W": (True, True),
    "nM": (True, True),
    "D": (False, True),
    "nM_hat": (False, False),
}

# Properties of the catalog conorms: every entry is a t-conorm; the drastic
# sum is discontinuous off the axes; the truncated ordinal sum has a plateau
# at its cap and so is not conditionally strictly increasing; max and the
# ordinal sums have interior idempotents (not Archimedean).
CONORM_FACTS = {
    # spec: (continuous, conditionally strictly increasing, Archimedean)
    "max": (True, True, False),
    "plus": (True, True, True),
    "nilpotent_rat": (True, True, True),
    "drastic": (False, True, True),
    "osum_trunc:2": (True, False, False),
    "osum_strict:2": (True, True, False),
}


def expected_failures(t: str, l: str) -> set[str]:
    """Condition tags that the theorem says fail for the pair."""
    left, weak = TNORM_FACTS[t]
    continuous, lcs, archimedean = CONORM_FACTS[l]
    failed = set()
    if not continuous:
        failed.add("a_continuity")
    if not lcs:
        failed.add("a_LCS")
    if not weak:
        failed.add("c_weak_left")
    if not archimedean and not left:
        failed.add("c_left_when_nonarchimedean")
    return failed


def is_lawful(t: str, l: str) -> bool:
    return not expected_failures(t, l)


# ---- step functions and the triangle operation --------------------------------

class Steps:
    """A step function given by its jumps, evaluated by bisection."""

    def __init__(self, jumps):
        self.jumps = list(jumps)
        self.xs = [x for x, _ in self.jumps]

    def __call__(self, t) -> Fraction:
        if t is INF:
            return ONE
        i = bisect_left(self.xs, t)  # jumps strictly below t
        return self.jumps[i - 1][1] if i else ZERO


def _bands(jumps):
    """Cut points 0 = c_0 < c_1 < ... and the value on ]c_i, c_{i+1}]."""
    cuts, values = [ZERO], [ZERO]
    for x, p in jumps:
        if x == 0:
            values[0] = p
        else:
            cuts.append(x)
            values.append(p)
    return cuts, values


def _cells(tn: str, f, g):
    """(a, b, a_hi, b_hi, value) for every cell ]a, a_hi] x ]b, b_hi]."""
    t = tnorm(tn)
    cuts_f, vals_f = _bands(f)
    cuts_g, vals_g = _bands(g)
    for i, a in enumerate(cuts_f):
        a_hi = cuts_f[i + 1] if i + 1 < len(cuts_f) else INF
        for j, b in enumerate(cuts_g):
            b_hi = cuts_g[j + 1] if j + 1 < len(cuts_g) else INF
            yield a, b, a_hi, b_hi, t(vals_f[i], vals_g[j])


def regularized(tn: str, spec: str, f, g) -> Steps:
    """x -> sup{ T(f(u), g(v)) : L(u, v) < x }, for finite x.

    For a continuous L a half-open cell reaches below x exactly when L at
    its closed lower corner is below x, so the result jumps at corner
    images.  For the drastic sum L(u, v) is finite only when u = 0 or
    v = 0, where f(0) = g(0) = 0, so nothing reaches a finite level.
    """
    corners = []
    if spec != "drastic":
        l = conorm(spec)
        for a, b, _, _, value in _cells(tn, f, g):
            c = l(a, b)
            if value > 0 and c is not INF:
                corners.append((c, value))
    jumps: list[tuple[Fraction, Fraction]] = []
    for c, value in sorted(corners):
        if value > (jumps[-1][1] if jumps else ZERO):
            if jumps and jumps[-1][0] == c:
                jumps[-1] = (c, value)
            else:
                jumps.append((c, value))
    return Steps(jumps)


def raw_at(tn: str, spec: str, f, g, x) -> Fraction:
    """sup{ T(f(u), g(v)) : L(u, v) = x } for finite x > 0.

    L is continuous and increasing, so over a half-open cell it takes every
    value in ]L(lower), L(upper)] and its lower value only on a plateau.
    Only the truncated ordinal sum has one: min(u + v, p) = p whenever
    u, v <= p and u + v >= p.
    """
    if spec == "drastic":
        # L(u, v) = x forces u = 0 or v = 0, and f(0) = g(0) = 0.
        return ZERO
    cap = Fraction(spec.partition(":")[2]) if spec.startswith("osum_trunc") else None
    l = conorm(spec)
    best = ZERO
    for a, b, a_hi, b_hi, value in _cells(tn, f, g):
        lo, hi = l(a, b), l(a_hi, b_hi)
        reaches = lt(lo, x) and not lt(hi, x)
        attained = cap is not None and lo == x and a < cap and b < cap and a + b >= cap
        if (reaches or attained) and value > best:
            best = value
    return best


def probe_points(*step_functions) -> list[Fraction]:
    """0, every breakpoint, every midpoint between neighbours, one beyond.

    Two step functions that agree on these points agree everywhere.
    """
    cuts = sorted({ZERO} | {x for jumps in step_functions for x, _ in jumps})
    probes = list(cuts)
    probes.extend((lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:]))
    probes.append(cuts[-1] + 1)
    return probes


def parse_steps(text: str):
    """Jumps of a ``DDF v1`` text, read independently of the engine."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "DDF v1":
        raise ValueError("missing DDF v1 header")
    jumps = []
    for line in lines[1:]:
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] != "jump" or len(parts) != 3:
            raise ValueError(f"bad line {line!r}")
        jumps.append((Fraction(parts[1]), Fraction(parts[2])))
    for (x0, p0), (x1, p1) in zip(jumps, jumps[1:]):
        if not (x0 < x1 and p0 < p1):
            raise ValueError("jumps not strictly increasing")
    return jumps


def format_steps(jumps) -> str:
    def fmt(q: Fraction) -> str:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    return "DDF v1\n" + "".join(f"jump {fmt(x)} {fmt(p)}\n" for x, p in jumps)
