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


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Binomial(n, p) with 0 < p < 1,
    summed exactly term by term, each term taken in log space."""

    def pmf(i: int) -> float:
        return math.exp(
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * math.log(p) + (n - i) * math.log1p(-p)
        )

    return sum(pmf(i) for i in range(k + 1)), sum(pmf(i) for i in range(k, n + 1))
