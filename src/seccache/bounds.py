"""Cut-set lower bound, optimality gap, and rate-memory sweeps.

The lower bound cuts the network at s users: over s in
{1, ..., min(floor(N/2), K)} (so floor(N/s) >= 2 and no denominator
vanishes), where K is the profile's sum, the achievable secretive rate is
at least

    ( s*floor(N/s) - 1 - (lambda_s - 1) M - (s - 1) M_U ) / (floor(N/s) - 1)

where lambda_s is the cache serving the s-th user when users are counted
cache-by-cache down the loads, largest first.  The bound needs no cache
labels, so every function here takes the loads in any order and reads
them largest first itself.  Negative terms are clamped at zero.  The
scheme gives every user exactly one file of keys, so the user memory M_U
is 1 throughout, and each term equals s - (lambda_s - 1) M / (floor(N/s) - 1).

Everything is exact rational arithmetic; decimals appear only when
rendering CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .pda import Pda, check_mn_size, mn_pda, one_row_pda
from .scheme import helper_memory_for, rate_report


def _cache_of_each_user(profile):
    """lambda_1, lambda_2, ...: the users counted cache by cache down the
    loads, largest first, each user giving its cache's rank."""
    loads = sorted(profile, reverse=True)
    return (lam for lam, load in enumerate(loads, start=1) for _ in range(load))


def lambda_of_s(profile, s: int) -> int:
    """Cache of the s-th user under cache-major enumeration down the loads,
    largest first: the smallest rank whose cumulative load reaches s."""
    profile = tuple(profile)
    if not 1 <= s <= sum(profile):
        raise ValueError(f"s={s} out of range [1, {sum(profile)}]")
    return next(islice(_cache_of_each_user(profile), s - 1, None))


def cutset_terms(num_files: int, helper_memory, profile) -> list[tuple[int, Fraction]]:
    """The (s, value) bound terms at M_U = 1, each clamped at zero, for the
    K = sum(profile) users, the loads in any order.  The users are counted
    cache by cache once, which gives every lambda_s in one pass."""
    if num_files < 1:
        raise ValueError("need at least one file")
    profile = tuple(profile)
    num_users = sum(profile)
    if num_users < 1:
        raise ValueError("need at least one user")
    m = Fraction(helper_memory)
    if m < 0:
        raise ValueError("helper memory cannot be negative")
    cache_of_user = _cache_of_each_user(profile)
    terms = []
    for s, lam_s in zip(range(1, min(num_files // 2, num_users) + 1), cache_of_user):
        per = num_files // s  # floor(N/s) >= 2 on this range
        value = Fraction(s * per - 1 - (lam_s - 1) * m - (s - 1), per - 1)
        terms.append((s, max(value, Fraction(0))))
    return terms


def cutset_bound(num_files: int, helper_memory, profile) -> Fraction:
    """Best cut over all admissible s for the K = sum(profile) users, the
    loads in any order; 0 when N < 2 leaves no valid cut."""
    terms = cutset_terms(num_files, helper_memory, profile)
    if not terms:
        return Fraction(0)
    return max(value for _, value in terms)


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
    achievable = rate_report(pda, profile).rate
    memory = helper_memory_for(pda, num_files)
    bound = cutset_bound(num_files, memory, profile)
    if bound <= 0:
        raise ValueError("lower bound is zero; the ratio is undefined")
    return OptimalityReport(
        ratio=achievable / bound,
        achievable=achievable,
        lower_bound=bound,
        gap_bound_applies=num_files >= 2 * sum(profile),
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
    """One point per PDA (memory induced by Z/F = M/(M+N)), the M = 0
    one-time-pad baseline first as the one-row PDA "m0-baseline" (memory 0,
    rate K, F = 1), sorted by memory then rate; profile[lam - 1] is the load
    of every PDA's column lam."""
    profile = tuple(profile)
    num_caches = len(profile)
    points = []
    for pda_id, pda in {"m0-baseline": one_row_pda(num_caches), **pdas}.items():
        if pda.num_caches != num_caches:
            raise ValueError(
                f"PDA {pda_id!r} has {pda.num_caches} columns, profile has {num_caches}"
            )
        memory = helper_memory_for(pda, num_files)
        points.append(
            SweepPoint(
                memory=memory,
                rate_achievable=rate_report(pda, profile).rate,
                rate_lower_bound=cutset_bound(num_files, memory, profile),
                subpacketization=pda.num_rows,
                pda_id=pda_id,
            )
        )
    return sorted(points, key=lambda pt: (pt.memory, pt.rate_achievable))


def mn_sweep_pdas(num_caches: int) -> dict[str, Pda]:
    """The subset-family PDAs available for a sweep, one per t.  The
    largest grid, at t = Lambda // 2, is checked before any is built, so a
    sweep over too many caches fails at once with `mn_pda`'s error."""
    check_mn_size(num_caches, num_caches // 2)
    return {f"mn:{num_caches},{t}": mn_pda(num_caches, t) for t in range(1, num_caches)}


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
