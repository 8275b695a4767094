"""Summary statistics shared by the benchmark and its self-test."""

import statistics

# Conventional percentiles, tried from the highest down.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)
MIN_BEYOND = 10


def percentile(values, pct):
    """Linear-interpolation percentile of a non-empty sequence."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sequence")
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND of n samples
    beyond it, or 50 (the median) when n is too small for any."""
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            return pct
    return 50.0


def timing_summary(values):
    """Median, tail percentile and sample count of a list of timings.

    Returns {"n", "p50", "tail_pct", "tail"}; all zero for no samples.
    """
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail_pct": 50.0, "tail": 0.0}
    pct = tail_percentile(n)
    return {"n": n, "p50": percentile(values, 50.0), "tail_pct": pct,
            "tail": percentile(values, pct)}


def relative_iqr(values):
    """Distance between the first and third quartile over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")
