"""Goodness-of-fit helpers shared by the sampler tests, computed with
`math` only (scipy is not a dependency)."""
import math


def chi2_survival(x: float, df: int) -> float:
    """P(X >= x) for X ~ chi-square with integer `df` and x > 0: the
    regularized upper incomplete gamma function Q(df/2, x/2) in closed
    form, each term taken in log space so that large df cannot overflow."""
    y = x / 2.0

    def term(a: float) -> float:  # y^a e^-y / Gamma(a + 1)
        return math.exp(a * math.log(y) - y - math.lgamma(a + 1))

    if df % 2 == 0:
        return sum(term(j) for j in range(df // 2))
    return math.erfc(math.sqrt(y)) + sum(term(j + 0.5) for j in range(df // 2))


def chi2_critical(df: int, alpha: float) -> float:
    """The x with chi2_survival(x, df) == alpha, by bisection."""
    low, high = 0.0, 1.0
    while chi2_survival(high, df) > alpha:
        high *= 2.0
    for _ in range(100):
        mid = (low + high) / 2.0
        low, high = (mid, high) if chi2_survival(mid, df) > alpha else (low, mid)
    return high


def binomial_pmf(n: int, p: float) -> list[float]:
    """P(X = i) for i = 0..n and X ~ Binomial(n, p) with 0 < p < 1, each
    term taken in log space."""
    return [
        math.exp(
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * math.log(p) + (n - i) * math.log1p(-p)
        )
        for i in range(n + 1)
    ]


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Binomial(n, p) with 0 < p < 1,
    summed exactly term by term."""
    pmf = binomial_pmf(n, p)
    return sum(pmf[: k + 1]), sum(pmf[k:])


MIN_EXPECTED = 5.0  # smallest expected count of a chi-square bin


def binomial_fit(values: list[int], n: int, p: float) -> tuple[float, int]:
    """Pearson statistic and degrees of freedom of the sample `values`
    against Binomial(n, p).  The outcomes expected at least MIN_EXPECTED
    times form a contiguous run lo..hi (the pmf is unimodal); every
    outcome below lo is pooled into lo's bin and every one above hi into
    hi's, so the tail bins are X <= lo and X >= hi."""
    expected = [len(values) * q for q in binomial_pmf(n, p)]
    kept = [i for i, e in enumerate(expected) if e >= MIN_EXPECTED]
    lo, hi = kept[0], kept[-1]
    assert hi > lo, "fewer than two bins"
    observed = [0] * (n + 1)
    for value in values:
        observed[value] += 1

    def bins(counts):
        return [sum(counts[: lo + 1]), *counts[lo + 1 : hi], sum(counts[hi:])]

    statistic = sum((o - e) ** 2 / e for o, e in zip(bins(observed), bins(expected)))
    return statistic, hi - lo
