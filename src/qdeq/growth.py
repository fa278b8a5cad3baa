"""Growth measurement for truncated series with coefficients in Q(q).

The objects of interest are the two valuation sequences of a solution
y = sum y_h x^h: the q-degrees deg_q(y_h) and the q-orders ord_q(y_h).
A solution has q-Gevrey growth of order s when deg_q(y_h) stays below
s*h(h-1)/2 + C*h + C for some constant C, with a mirror-image lower
bound on ord_q.  The two are valuations of one kind: a lower bound on
ord_q is an upper bound on -ord_q, so every routine here is written for
the deg side once and runs the ord side as the deg side of the negated
profile.  Everything here works on a finite truncation, so the
verdicts mean "consistent with order s through the computed range",
never an asymptotic claim.

Order estimation uses second differences: on the exact model
s*h(h-1)/2 + b*h + c the second difference is s everywhere, so the
median over the top half of the range recovers s exactly on model
sequences and is robust to low-order transients otherwise.

All arithmetic is exact.  Rescaling by s*h(h-1)/2 happens on the
valuation sequences as rationals; no q^(s*...) with fractional s is
ever formed, so no root of q is needed.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import InsufficientData, UncertainPolygon
from .ratfunc import NEG_INF, POS_INF
from .skewop import NewtonPolygon

_SIDES = ("deg", "ord")


def _tri(h):
    return h * (h - 1) // 2


def _finite(v):
    # by value (-POS_INF is a new float); math.isfinite overflows on huge ints
    return v != NEG_INF and v != POS_INF


def _oriented(profile, side):
    """The profile as the deg side sees it: ord_q bounds from below what
    deg_q bounds from above, so the ord side is the deg side of -profile
    (the infinities swap, -POS_INF equal to NEG_INF)."""
    if side not in _SIDES:
        raise ValueError(f"side must be 'deg' or 'ord', not {side!r}")
    return list(profile) if side == "deg" else [-v for v in profile]


def valuation_profile(y):
    """Per-coefficient valuations of a truncated series.

    Returns (deg_profile, ord_profile), both of length y.trunc + 1:
    entry h is deg_q / ord_q of the h-th coefficient, NEG_INF / POS_INF
    (the float infinities, equal by value) where the coefficient is zero.
    """
    degs = [c.deg_q for c in y.coeffs]
    ords = [c.ord_q for c in y.coeffs]
    return degs, ords


def estimate_order(profile, side):
    """Estimate the growth order s from one valuation sequence.

    Takes the median of the second differences p[h+1] - 2p[h] + p[h-1]
    over the top half of the index range, using only positions where all
    three entries are finite.  On any sequence of the exact form
    s*h(h-1)/2 + b*h + c the result is s exactly.

    side = "deg" estimates s in deg_q(y_h) <= s*h(h-1)/2 + ...;
    side = "ord" estimates s' in ord_q(y_h) >= -s'*h(h-1)/2 - ..., so a
    sequence falling like -h(h-1)/2 reports s' = 1 (positive).

    Raises InsufficientData with fewer than 5 finite entries, or when
    gaps leave no three consecutive finite entries in the top half.
    """
    profile = _oriented(profile, side)
    if sum(1 for v in profile if _finite(v)) < 5:
        raise InsufficientData(
            "order estimation needs at least 5 nonzero coefficients")
    interior = [h for h in range(1, len(profile) - 1)
                if all(_finite(profile[h + d]) for d in (-1, 0, 1))]
    if not interior:
        raise InsufficientData(
            "no three consecutive nonzero coefficients to difference")
    top = [h for h in interior if 2 * h >= interior[-1]]
    deltas = sorted(
        Fraction(profile[h + 1] - 2 * profile[h] + profile[h - 1])
        for h in top)
    k = len(deltas)
    if k % 2:
        med = deltas[k // 2]
    else:
        med = (deltas[k // 2 - 1] + deltas[k // 2]) / 2
    return med


class BoundVerdict(NamedTuple):
    ok: bool
    witness: int | None  # smallest violating h, None on pass


def verify_bound(profile, order, slack, side):
    """Check one q-Gevrey bound through the whole profile.

    deg side:  profile[h] <= order*h(h-1)/2 + slack*h + slack;
    ord side:  profile[h] >= -(order*h(h-1)/2 + slack*h + slack).

    Zero coefficients (infinite entries) satisfy any bound vacuously.
    Returns BoundVerdict(ok, witness) with the smallest violating h.
    """
    profile = _oriented(profile, side)
    (a, b), (c, d) = (Fraction(x).as_integer_ratio() for x in (order, slack))
    # in integers: both sides times the denominators b of order, d of slack
    for h, v in enumerate(profile):
        if _finite(v) and v * b * d > a * d * _tri(h) + c * b * (h + 1):
            return BoundVerdict(False, h)
    return BoundVerdict(True, None)


def fit_slack(profile, order, side):
    """Smallest slack >= 0 making verify_bound pass at the given order.

    Solves profile[h] <= order*h(h-1)/2 + slack*(h+1) (deg side, mirror
    image for ord) for every finite entry and returns the max demand.
    """
    profile = _oriented(profile, side)
    a, b = Fraction(order).as_integer_ratio()
    # the demand at h is (b*v - a*T(h)) / (b*(h+1)); the largest so far,
    # num/den with den > 0, is compared by cross-multiplying
    num, den = 0, 1
    for h, v in enumerate(profile):
        if _finite(v):
            p, r = b * v - a * _tri(h), b * (h + 1)
            if p * den > num * r:
                num, den = p, r
    return Fraction(num, den)


def predicted_orders(polygon):
    """(s, s_prime) read off a Newton polygon.

    s = 1/r for the smallest strictly positive finite slope r, or 0 when
    every finite slope is <= 0; s_prime = -1/r' for the largest strictly
    negative finite slope r', or 0 when none is negative.

    Coefficients masked by truncation could hide extra polygon points.
    Each such point is re-added at the lowest order it could still have
    (its entry in polygon.uncertain_bounds, one past its truncation) and
    the hull rebuilt through NewtonPolygon from the vertices and those
    points: if the hypothetical polygon predicts a different pair,
    UncertainPolygon is raised.  Any higher position for a hidden point
    only moves the hull toward the certain one, so agreement at the
    lowest position settles every case.  The vertices carry the whole
    certain hull: its other points sit on or above it.
    """
    base = _orders_from_slopes(polygon.slopes)
    hidden = NewtonPolygon(polygon.vertices
                           + list(polygon.uncertain_bounds.items()))
    if _orders_from_slopes(hidden.slopes) != base:
        raise UncertainPolygon(
            "coefficients masked by truncation could change the "
            "extremal slopes of the polygon")
    return base


def _orders_from_slopes(slopes):
    pos = [r for r in slopes if r > 0]
    neg = [r for r in slopes if r < 0]
    s = Fraction(1) / min(pos) if pos else Fraction(0)
    sp = Fraction(-1) / max(neg) if neg else Fraction(0)
    return s, sp


class GrowthReport:
    """Measured growth of one series solution, with verdicts.

    deg_profile / ord_profile    valuation sequences, infinite at zeros;
    order_deg / order_ord        estimated orders (None when the data
                                 cannot support an estimate);
    slack_deg / slack_ord        fitted linear-slack constants for the
                                 orders actually tested;
    verdicts                     {(side, order, slack): BoundVerdict};
    notes                        free-form observations (zero tails,
                                 polygon comparisons, estimation gaps).
    """

    __slots__ = ("deg_profile", "ord_profile", "order_deg", "order_ord",
                 "slack_deg", "slack_ord", "verdicts", "notes")

    def __init__(self, deg_profile, ord_profile, order_deg, order_ord,
                 slack_deg, slack_ord, verdicts, notes):
        self.deg_profile = list(deg_profile)
        self.ord_profile = list(ord_profile)
        self.order_deg = order_deg
        self.order_ord = order_ord
        self.slack_deg = slack_deg
        self.slack_ord = slack_ord
        self.verdicts = dict(verdicts)
        self.notes = list(notes)

    def passed(self):
        return all(v.ok for v in self.verdicts.values())

    def to_json(self):
        def rat(v):
            return None if v is None else str(Fraction(v))

        def entry(v):
            return int(v) if _finite(v) else None

        return {
            "deg_profile": [entry(v) for v in self.deg_profile],
            "ord_profile": [entry(v) for v in self.ord_profile],
            "estimated_order_deg": rat(self.order_deg),
            "estimated_order_ord": rat(self.order_ord),
            "slack_deg": rat(self.slack_deg),
            "slack_ord": rat(self.slack_ord),
            "verdicts": [
                {"side": side, "order": str(order), "slack": str(slack),
                 "pass": v.ok, "first_violation": v.witness}
                for (side, order, slack), v in self.verdicts.items()],
            "notes": list(self.notes),
        }

    def to_text(self):
        lines = []
        n = len(self.deg_profile) - 1
        lines.append(f"profiles through order {n}")
        if self.order_deg is not None:
            lines.append(f"estimated order (deg side): {self.order_deg}")
        if self.order_ord is not None:
            lines.append(f"estimated order (ord side): {self.order_ord}")
        for (side, order, slack), v in self.verdicts.items():
            tag = "pass" if v.ok else f"FAIL at h = {v.witness}"
            lines.append(f"bound [{side}] order {order}, slack {slack}: {tag}")
        lines.extend(self.notes)
        return "\n".join(lines)

    def __repr__(self):
        ok = "pass" if self.passed() else "fail"
        return (f"GrowthReport({len(self.deg_profile)} coefficients, "
                f"{len(self.verdicts)} bounds, {ok})")


def analyze(y, order=None, slack=None, polygon=None):
    """Full growth workup of one truncated series.

    order and slack, when given, bound both sides: deg_q(y_h) <=
    order*h(h-1)/2 + slack*h + slack and ord_q(y_h) >= its negation
    (verify_bound checks one side, for bounds that differ).  Without
    order, each side takes the polygon prediction when a polygon is
    given, else its measured estimate, else 0.  Without slack, each side
    fits the smallest constant making its bound hold, so a default run
    documents the tightest (order, slack) pair consistent with the data
    instead of gambling on a pass.

    With a polygon, the notes record whether each measured order stays
    within the predicted one (the prediction is an upper bound on the
    true order, not necessarily attained).
    """
    degs, ords = valuation_profile(y)
    profiles = dict(zip(_SIDES, (degs, ords)))
    notes = []

    est = dict.fromkeys(_SIDES)
    for side in _SIDES:
        try:
            est[side] = estimate_order(profiles[side], side)
        except InsufficientData:
            notes.append("too few nonzero coefficients to estimate the "
                         f"{side}-side order")

    predicted = None
    if polygon is not None:
        predicted = dict(zip(_SIDES, predicted_orders(polygon)))
        for side in _SIDES:
            if est[side] is None:
                continue
            rel = "within" if est[side] <= predicted[side] else "EXCEEDS"
            notes.append(f"measured {side}-side order {est[side]} {rel} "
                         f"polygon prediction {predicted[side]}")

    slacks, verdicts = {}, {}
    for side in _SIDES:
        if order is not None:
            s = Fraction(order)
        elif predicted is not None:
            s = predicted[side]
        else:
            s = est[side] if est[side] is not None else Fraction(0)
        profile = profiles[side]
        c = slacks[side] = Fraction(slack) if slack is not None else \
            fit_slack(profile, s, side)
        verdicts[side, s, c] = verify_bound(profile, s, c, side)

    last = None
    for h, v in enumerate(degs):
        if _finite(v):
            last = h
    if last is None:
        notes.append("every coefficient vanishes through the truncation")
    elif y.trunc - last >= 2:
        notes.append(f"coefficients vanish from order {last + 1} on: "
                     f"possibly a polynomial solution of degree {last}")

    return GrowthReport(degs, ords, est["deg"], est["ord"], slacks["deg"],
                        slacks["ord"], verdicts, notes)
