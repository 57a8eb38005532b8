"""Cut-set lower bound, optimality gap, and rate-memory sweeps.

The lower bound cuts the network at s users: over s in
{1, ..., min(floor(N/2), K)} (so floor(N/s) >= 2 and no denominator
vanishes), the achievable secretive rate is at least

    ( s*floor(N/s) - 1 - (lambda_s - 1) M - (s - 1) M_U ) / (floor(N/s) - 1)

where lambda_s is the cache serving the s-th user when users are counted
cache-by-cache down the nonincreasing profile.  Negative terms are
clamped at zero.  With unit user caches this simplifies to
s - (lambda_s - 1) M / (floor(N/s) - 1) term-by-term.

Everything is exact rational arithmetic; decimals appear only when
rendering CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .pda import Pda
from .scheme import helper_memory_for, rate_report


def lambda_of_s(profile, s: int) -> int:
    """Cache of the s-th user under cache-major enumeration: the smallest
    label whose cumulative load reaches s."""
    profile = tuple(profile)
    if any(a < b for a, b in zip(profile, profile[1:])):
        raise ValueError("profile must be nonincreasing")
    if not 1 <= s <= sum(profile):
        raise ValueError(f"s={s} out of range [1, {sum(profile)}]")
    running = 0
    for lam, load in enumerate(profile, start=1):
        running += load
        if running >= s:
            return lam
    raise RuntimeError("unreachable: s <= sum(profile)")


def cutset_terms(
    num_files: int, num_users: int, helper_memory, profile, user_memory=1
) -> list[tuple[int, Fraction]]:
    """The (s, value) bound terms, each clamped at zero."""
    if num_files < 1:
        raise ValueError("need at least one file")
    if num_users < 1:
        raise ValueError("need at least one user")
    m = Fraction(helper_memory)
    if m < 0:
        raise ValueError("helper memory cannot be negative")
    if user_memory < 1:
        raise ValueError("the setting requires unit-or-larger user caches")
    if sum(profile) != num_users:
        raise ValueError("profile must sum to the user count")
    mu = Fraction(user_memory)
    terms = []
    for s in range(1, min(num_files // 2, num_users) + 1):
        per = num_files // s  # floor(N/s) >= 2 on this range
        lam_s = lambda_of_s(profile, s)
        value = Fraction(s * per - 1 - (lam_s - 1) * m - (s - 1) * mu, per - 1)
        terms.append((s, max(value, Fraction(0))))
    return terms


def cutset_bound(
    num_files: int, num_users: int, helper_memory, profile, user_memory=1
) -> Fraction:
    """Best cut over all admissible s; 0 when N < 2 leaves no valid cut."""
    terms = cutset_terms(num_files, num_users, helper_memory, profile, user_memory)
    if not terms:
        return Fraction(0)
    return max(value for _, value in terms)


def unit_cache_bound_terms(
    num_files: int, num_users: int, helper_memory, profile
) -> list[tuple[int, Fraction]]:
    """The simplified M_U = 1 form, s - (lambda_s - 1) M / (floor(N/s) - 1);
    kept separate so the reduction can be checked symbolically."""
    m = Fraction(helper_memory)
    terms = []
    for s in range(1, min(num_files // 2, num_users) + 1):
        per = num_files // s
        lam_s = lambda_of_s(profile, s)
        value = s - Fraction((lam_s - 1) * m, per - 1)
        terms.append((s, max(value, Fraction(0))))
    return terms


@dataclass(frozen=True)
class OptimalityReport:
    ratio: Fraction
    achievable: Fraction
    lower_bound: Fraction
    gap_bound_applies: bool  # requires N >= 2K and M_U = 1


def optimality_ratio(pda: Pda, num_files: int, profile) -> OptimalityReport:
    """Achievable rate over the cut-set bound.  The order-optimality
    guarantee (ratio <= Lambda) is only claimed for N >= 2K; outside that
    regime the ratio is still computed but flagged."""
    profile = tuple(profile)
    num_users = sum(profile)
    achievable = rate_report(pda, profile).rate
    memory = helper_memory_for(pda, num_files)
    bound = cutset_bound(num_files, num_users, memory, profile)
    if bound <= 0:
        raise ValueError("lower bound is zero; the ratio is undefined")
    return OptimalityReport(
        ratio=achievable / bound,
        achievable=achievable,
        lower_bound=bound,
        gap_bound_applies=num_files >= 2 * num_users,
    )


# -- rate-memory sweeps -------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    memory: Fraction
    rate_achievable: Fraction
    rate_lower_bound: Fraction
    subpacketization: int
    pda_id: str


def sweep(num_files: int, profile, pdas: dict[str, Pda]) -> list[SweepPoint]:
    """One point per PDA (memory induced by Z/F = M/(M+N)) plus the M = 0
    one-time-pad baseline at rate K, sorted by memory then rate."""
    profile = tuple(sorted(profile, reverse=True))
    num_users = sum(profile)
    num_caches = len(profile)
    points = [
        SweepPoint(
            memory=Fraction(0),
            rate_achievable=Fraction(num_users),
            rate_lower_bound=cutset_bound(num_files, num_users, 0, profile),
            subpacketization=1,
            pda_id="m0-baseline",
        )
    ]
    for pda_id, pda in pdas.items():
        if pda.num_caches != num_caches:
            raise ValueError(
                f"PDA {pda_id!r} has {pda.num_caches} columns, profile has {num_caches}"
            )
        memory = helper_memory_for(pda, num_files)
        points.append(
            SweepPoint(
                memory=memory,
                rate_achievable=rate_report(pda, profile).rate,
                rate_lower_bound=cutset_bound(num_files, num_users, memory, profile),
                subpacketization=pda.num_rows,
                pda_id=pda_id,
            )
        )
    return sorted(points, key=lambda pt: (pt.memory, pt.rate_achievable))


def mn_sweep_pdas(num_caches: int) -> dict[str, Pda]:
    """The subset-family PDAs available for a sweep, one per t.  The
    largest grid, at t = Lambda // 2, is checked before any is built, so a
    sweep over too many caches fails at once with `mn_pda`'s error."""
    from .pda import check_mn_size, mn_pda

    check_mn_size(num_caches, num_caches // 2)
    return {f"mn:{num_caches},{t}": mn_pda(num_caches, t) for t in range(1, num_caches)}


def envelope_points(points) -> list[tuple[Fraction, Fraction]]:
    """Vertices of the lower convex envelope of (memory, rate); duplicate
    memory values collapse to their minimum rate.  Intermediate memory is
    achievable by time-sharing the two bracketing placements."""
    best: dict[Fraction, Fraction] = {}
    for pt in points:
        if pt.memory not in best or pt.rate_achievable < best[pt.memory]:
            best[pt.memory] = pt.rate_achievable
    ordered = sorted(best.items())
    hull: list[tuple[Fraction, Fraction]] = []
    for x, y in ordered:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies on or above segment hull[-2] -> (x, y)
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


def envelope_rate(points, memory) -> Fraction:
    """Rate of the envelope at a memory value within its span."""
    hull = envelope_points(points)
    memory = Fraction(memory)
    if not hull or not hull[0][0] <= memory <= hull[-1][0]:
        raise ValueError("memory outside the swept range")
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= memory <= x2:
            if x1 == x2:
                return min(y1, y2)
            return y1 + (y2 - y1) * (memory - x1) / (x2 - x1)
    return hull[-1][1]


# -- CSV emission ---------------------------------------------------------------

CSV_HEADER = "M,rate_achievable,rate_lower_bound,F,pda_id"


def fraction_to_decimal(value: Fraction, max_digits: int = 6) -> str:
    """Decimal rendering, exact when it terminates within max_digits and
    half-up rounded otherwise; no floating point involved."""
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    value = abs(value)
    scaled = value * 10**max_digits
    units = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator % scaled.denominator) >= scaled.denominator:
        units += 1
    text = f"{units:0{max_digits + 1}d}"
    whole, frac = text[:-max_digits], text[-max_digits:].rstrip("0")
    return sign + whole + ("." + frac if frac else "")


def sweep_csv(points) -> str:
    lines = [CSV_HEADER]
    for pt in points:
        lines.append(
            ",".join(
                (
                    fraction_to_decimal(pt.memory),
                    fraction_to_decimal(pt.rate_achievable),
                    fraction_to_decimal(pt.rate_lower_bound),
                    str(pt.subpacketization),
                    pt.pda_id,
                )
            )
        )
    return "\n".join(lines) + "\n"
