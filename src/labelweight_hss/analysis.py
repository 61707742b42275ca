"""Closed-form parameter formulas, comparison tables, and the random-code
labelweight analysis.

Scheme families compared (download rate, amortization):

* baseline   rate 1 - dt/s, amortization (s - dt) * j where j is the
             log of the server count in the output field size;
* hermitian  rate 1 - dt/s - (s^(1/3)+1)/(2 s^(2/3)),
             amortization s - dt - (s^(2/3)-s^(1/3))/2;
* goppa      rate 1 - u*dt/s, amortization s - u*dt, in two flavours:
             "exact" mode with the integer u = log2(s) (the mode that
             matches actual constructed codes) and "threshold" mode with the
             real-valued threshold u* = log2(2(dt)^2 - 4dt
             + 2(dt+1)sqrt((dt)^2-2dt+2) + 3).

Printing conventions are pinned by the reference tables this module
reproduces: amortization prints as ceil of the exact value; the baseline
rate truncates to 2 decimals while construction rates round half away
from zero; the rate delta column truncates the exact percentage (one
decimal below 2%) and the amortization delta column rounds the percentage
computed from the printed integers.

The random-code side provides the blockwise entropy function, ball
volumes, the dimension guarantee, and a seeded Monte Carlo experiment
measuring how often a uniform generator matrix misses the labelweight
target.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import NamedTuple, Sequence

from .codes import Labeling, ball_volume, check_span, span_labelweight
from .errors import ConditionViolated, DegenerateDimension, NotACube, ParameterOutOfRange
from .galois import FieldSpec, prime_power, randrange_run


# -- printing helpers -----------------------------------------------------------


def _dec(x) -> Decimal:
    if isinstance(x, Fraction):
        return Decimal(x.numerator) / Decimal(x.denominator)
    return Decimal(repr(float(x)))


def round_half_away(x, places: int = 2) -> str:
    """Round half away from zero to the given decimals, as a string."""
    quantum = Decimal(1).scaleb(-places)
    return str(_dec(x).quantize(quantum, rounding=ROUND_HALF_UP))


def truncate_decimals(x, places: int = 2) -> str:
    quantum = Decimal(1).scaleb(-places)
    return str(_dec(x).quantize(quantum, rounding=ROUND_DOWN))


def _pct_rate(ours_exact, base_exact) -> str:
    """Rate delta: truncate the exact percentage toward zero; one decimal
    place when the magnitude is below 2."""
    pct = 100.0 * (float(ours_exact) - float(base_exact)) / float(base_exact)
    if abs(pct) < 2:
        return truncate_decimals(pct, 1)
    return truncate_decimals(pct, 0)


def _pct_amort(ours_printed: int, base_printed: int) -> str:
    pct = Fraction(100 * (ours_printed - base_printed), base_printed)
    return round_half_away(pct, 0)


@dataclass
class ParamRow:
    """One table row: exact values plus their printed forms."""

    s: int
    kind: str
    rate_exact: object  # Fraction or float
    amort_exact: object
    rate_printed: str
    amort_printed: int


# -- closed-form families ----------------------------------------------------------


def _ceil_log(base: int, value: int) -> int:
    """The least j with base**j >= value (the base is a field size q >= 2,
    else ParameterOutOfRange): log_base(value) exactly when base**j == value."""
    if base < 2:
        raise ParameterOutOfRange(f"need q >= 2, got q={base}")
    j, acc = 0, 1
    while acc < value:
        acc *= base
        j += 1
    return j


def _servers_above_dt(s, d: int, t: int) -> int:
    """dt = d*t, after checking dt >= 1 and s > dt, the range of every
    closed-form family."""
    dt = d * t
    if dt < 1:
        raise ParameterOutOfRange(f"need dt >= 1, got dt={dt}")
    if s <= dt:
        raise ParameterOutOfRange(f"need s > dt, got s={s}, dt={dt}")
    return dt


def baseline_params(s: int, d: int, t: int, log_base) -> ParamRow:
    """Baseline optimal-rate family: rate 1 - dt/s, amortization (s-dt)*j.

    j = log_base(s) exactly when integral; exactly 3/2 when the base is
    s^(2/3) (cube-alphabet comparisons); otherwise ceil of the log.  The
    printed rate truncates (matching the reference tables).
    """
    dt = _servers_above_dt(s, d, t)
    rate = Fraction(s - dt, s)
    j: object
    if isinstance(log_base, int) and log_base >= 2 and log_base ** (exact := _ceil_log(log_base, s)) == s:
        j = exact
    elif math.isclose(float(log_base) ** 1.5, s, rel_tol=1e-9):
        j = Fraction(3, 2)
    else:
        j = math.ceil(math.log(s) / math.log(float(log_base)))
    amort = (s - dt) * j
    amort_exact = Fraction(amort) if isinstance(j, (int, Fraction)) else amort
    return ParamRow(
        s,
        "baseline",
        rate,
        amort_exact,
        truncate_decimals(rate, 2),
        math.ceil(amort_exact),
    )


def baseline_amort_lower(s: int, d: int, t: int, q: int) -> int:
    """Lower bound on baseline amortization:
    (s-dt) * ceil(max(log_q(s-dt+1), log_q(dt+1)))."""
    dt = _servers_above_dt(s, d, t)
    return (s - dt) * max(_ceil_log(q, s - dt + 1), _ceil_log(q, dt + 1))


def hermitian_params(s, d: int, t: int, exact: bool = False) -> ParamRow:
    """Curve-code family: rate 1 - dt/s - (s^(1/3)+1)/(2 s^(2/3)) and
    amortization s - dt - (s^(2/3)-s^(1/3))/2.

    Table mode accepts any real s > dt; exact mode requires s to be a
    perfect cube (the constructible case) and errors otherwise.  Cube
    inputs are evaluated in exact rational arithmetic, so integral
    amortization values print without float fuzz.
    """
    dt = _servers_above_dt(s, d, t)
    root = round(float(s) ** (1 / 3))
    is_cube = isinstance(s, int) and root**3 == s
    if exact and not is_cube:
        raise NotACube(f"{s} is not a cube")
    if is_cube:
        rate = 1 - Fraction(dt, s) - Fraction(root + 1, 2 * root * root)
        amort = s - dt - Fraction(root * root - root, 2)
    else:
        cbrt = float(s) ** (1 / 3)
        cbrt2 = float(s) ** (2 / 3)
        rate = 1 - dt / float(s) - (cbrt + 1) / (2 * cbrt2)
        amort = s - dt - (cbrt2 - cbrt) / 2
    if amort < 1:
        raise ParameterOutOfRange(f"amortization {amort} below 1 at s={s}")
    return ParamRow(s, "hermitian", rate, amort, round_half_away(rate, 2), math.ceil(amort))


def goppa_u_threshold(dt: int) -> float:
    """The real extension-degree threshold
    log2(2 dt^2 - 4 dt + 2 (dt+1) sqrt(dt^2 - 2 dt + 2) + 3)."""
    return math.log2(2 * dt * dt - 4 * dt + 2 * (dt + 1) * math.sqrt(dt * dt - 2 * dt + 2) + 3)


def goppa_params(s: int, d: int, t: int, mode: str = "exact") -> ParamRow:
    """Subfield-code family: rate 1 - u*dt/s, amortization s - u*dt.

    "exact" mode takes the integer u = log2(s) (s must be a power of
    two) and requires u to clear the real threshold strictly, matching
    what goppa_build actually constructs.  "threshold" mode substitutes the
    real threshold u* itself, which is the variant the printed comparison
    uses.
    """
    dt = _servers_above_dt(s, d, t)
    threshold = goppa_u_threshold(dt)
    if mode == "exact":
        u = _ceil_log(2, s)
        if 2**u != s:
            raise ParameterOutOfRange(f"exact mode needs s a power of two, got {s}")
        if not u > threshold:
            raise ConditionViolated(f"u={u} does not exceed the threshold {threshold:.4f}")
        rate = Fraction(s - u * dt, s)
        amort = s - u * dt
        if amort < 1:
            raise ParameterOutOfRange(f"amortization {amort} below 1 at s={s}")
        return ParamRow(s, "goppa-exact", rate, Fraction(amort), round_half_away(rate, 2), amort)
    if mode == "threshold":
        amort = s - threshold * dt
        rate = 1 - threshold * dt / s
        if amort < 1:
            raise ParameterOutOfRange(f"amortization {amort} below 1 at s={s}")
        return ParamRow(s, "goppa-threshold", rate, amort, round_half_away(rate, 2), math.ceil(amort))
    raise ValueError(f"unknown mode {mode!r}")


# -- blockwise entropy and the random-code bound -------------------------------------


def entropy_gen(q: int, w: int, x: float) -> float:
    """Blockwise entropy
    H_{q,w}(x) = x log_q(q^w - 1) - x log_q(x) - (1-x) log_q(1-x),
    with the endpoint values taken as limits."""
    if q < 2 or w < 1:
        raise ParameterOutOfRange("need q >= 2 and w >= 1")
    if not 0 <= x <= 1:
        raise ParameterOutOfRange(f"x={x} outside [0, 1]")
    logq = math.log(q)
    if x == 0:
        return 0.0
    if x == 1:
        return math.log(q**w - 1) / logq
    return (
        x * math.log(q**w - 1) / logq
        - x * math.log(x) / logq
        - (1 - x) * math.log(1 - x) / logq
    )


@dataclass(frozen=True)
class GvConfig:
    """Random-code experiment parameters: alphabet q, block width w,
    s blocks (n = s*w), relative labelweight delta (delta*s integral),
    and slack eps."""

    q: int
    w: int
    s: int
    delta: Fraction
    eps: Fraction

    def __post_init__(self):
        if self.q < 2 or self.w < 1 or self.s < 1:
            raise ParameterOutOfRange("need q >= 2, w >= 1, s >= 1")
        delta = Fraction(self.delta)
        eps = Fraction(self.eps)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "eps", eps)
        if (delta * self.s).denominator != 1:
            raise ParameterOutOfRange(f"delta*s = {delta * self.s} must be an integer")
        ceiling = 1 - Fraction(1, self.q**self.w)
        if not 0 <= delta <= ceiling:
            raise ParameterOutOfRange(f"delta={delta} outside [0, {ceiling}]")
        # slack range normalized by the block width so that the dimension
        # n(1 - H/w - eps) stays nonnegative (at w=1 this is [0, 1-H])
        h = entropy_gen(self.q, self.w, float(delta))
        if not 0 <= eps <= max(0.0, 1 - h / self.w):
            raise ParameterOutOfRange(f"eps={eps} outside [0, 1 - H/w]")

    @property
    def n(self) -> int:
        return self.s * self.w

    @property
    def target(self) -> int:
        return int(self.delta * self.s)


def gv_dimension(cfg: GvConfig) -> int:
    """floor(n - s*H_{q,w}(delta) - n*eps), at least 1 or Degenerate."""
    value = cfg.n - cfg.s * entropy_gen(cfg.q, cfg.w, float(cfg.delta)) - cfg.n * float(cfg.eps)
    k = math.floor(value)
    if k < 1:
        raise DegenerateDimension(f"dimension {k} below 1 for {cfg}")
    return k


def ball_bound_holds(cfg: GvConfig) -> bool:
    """Exact integer check of Vol(delta*s - 1) * q^k <= q^(n(1-eps)).

    Both sides are raised to the denominator of n(1-eps) so the
    comparison is between integers.
    """
    k = gv_dimension(cfg)
    radius = cfg.target - 1
    if radius < 0:
        return True
    vol = ball_volume(cfg.s, cfg.w, cfg.q, radius)
    exponent = cfg.n * (1 - cfg.eps)
    lhs = vol * cfg.q**k
    return lhs ** exponent.denominator <= cfg.q ** int(exponent.numerator)


@dataclass
class GvReport:
    config: GvConfig
    dimension: int
    trials: int
    failures: int
    failure_fraction: float
    bound: float
    slack: float
    within_bound: bool
    ball_bound_ok: bool


def gv_monte_carlo(cfg: GvConfig, trials: int, seed: int) -> GvReport:
    """Sample uniform generator matrices and measure the labelweight miss rate.

    A trial fails when some nonzero codeword of the sampled generator's
    span touches fewer than delta*s blocks.  A rank-deficient sample is
    judged by the code it does span: the zero words of its kernel
    messages are skipped, so it fails only if that code misses the
    target.  The observed fraction is compared against q^(-eps*n) plus a
    three-sigma binomial allowance.  Trial i draws from a generator
    seeded with (seed, i), so any subset of trials is reproducible in
    isolation.  Each trial enumerates q^k messages through
    span_labelweight, so an oversized k is refused by its budget
    (check_span) before the first generator is drawn.
    """
    if trials < 1:
        raise ParameterOutOfRange("need at least one trial")
    p, e = prime_power(cfg.q)
    spec = FieldSpec(p, e)
    k = gv_dimension(cfg)
    lab = Labeling.balanced(cfg.s, cfg.w)
    check_span(cfg.q, k)
    failures = 0
    for index in range(trials):
        rng = random.Random(f"{seed}:{index}")
        rows = spec.codes(randrange_run(rng, cfg.q, k * cfg.n))
        if span_labelweight(spec, rows, k, lab) < cfg.target:
            failures += 1
    fraction = failures / trials
    bound = min(1.0, float(cfg.q) ** (-float(cfg.eps) * cfg.n))
    slack = 3 * math.sqrt(bound * (1 - bound) / trials)
    return GvReport(
        cfg,
        k,
        trials,
        failures,
        fraction,
        bound,
        slack,
        fraction <= bound + slack,
        ball_bound_holds(cfg),
    )


# -- tables ---------------------------------------------------------------------


class Column(NamedTuple):
    """One table column: its row key (also its csv and text heading), its
    markdown heading, and the text a markdown cell ends with."""

    key: str
    heading: str
    suffix: str = ""


_RATE_COLUMNS = (
    Column("s", "# Servers"),
    Column("baseline_rate", "DL Rate"),
    Column("baseline_amort", "Amortize"),
    Column("ours_rate", "DL Rate"),
    Column("ours_amort", "Amortize"),
    Column("pct_rate", "% DL Rate", "%"),
    Column("pct_amort", "% Amortize", "%"),
)
_GV_COLUMNS = (
    Column("s", "s"),
    Column("w", "w"),
    Column("n", "n"),
    Column("k_gv", "k"),
    Column("rate_gv", "rate"),
    Column("amort_lower_bound", "amortization lower bound"),
)


@dataclass
class TableResult:
    kind: str
    rows: list[dict]
    columns: tuple[Column, ...]

    def render(self, fmt: str) -> str:
        """The table as "csv", "markdown" or "text" (every column padded
        to its widest cell, two spaces apart)."""
        head = [column.key for column in self.columns]
        cells = [[str(row[key]) for key in head] for row in self.rows]
        if fmt == "csv":
            lines = [",".join(line) for line in [head, *cells]]
        elif fmt == "markdown":
            lines = ["| " + " | ".join(column.heading for column in self.columns) + " |", "|" + "---|" * len(head)]
            for line in cells:
                lines.append("| " + " | ".join(c + column.suffix for c, column in zip(line, self.columns)) + " |")
        else:
            widths = [max(map(len, column)) for column in zip(head, *cells)]
            lines = ["  ".join(c.ljust(width) for c, width in zip(line, widths)) for line in [head, *cells]]
        return "\n".join(lines) + "\n"


def emit_table(kind: str, dt: int, servers: Sequence[int], eps: Fraction = Fraction(1, 20)) -> TableResult:
    """Comparison table for the given family over a list of server counts.

    kinds: "goppa" (baseline over GF(2) vs threshold-mode subfield family),
    "hermitian" (baseline over the cube alphabet vs curve family), and
    "gv-example" (random-code dimension guarantee at w = log_q(s)).
    """
    if kind == "gv-example":
        return _gv_example_table(dt, servers, eps)
    if kind not in ("goppa", "hermitian"):
        raise ValueError(f"unknown table kind {kind!r}")
    rows = []
    for s in servers:
        if kind == "goppa":
            base = baseline_params(s, dt, 1, 2)
            ours = goppa_params(s, dt, 1, mode="threshold")
        else:
            base = baseline_params(s, dt, 1, float(s) ** (2 / 3))
            ours = hermitian_params(s, dt, 1)
        rows.append(
            {
                "s": s,
                "baseline_rate": base.rate_printed,
                "baseline_amort": base.amort_printed,
                "ours_rate": ours.rate_printed,
                "ours_amort": ours.amort_printed,
                "pct_rate": _pct_rate(ours.rate_exact, base.rate_exact),
                "pct_amort": _pct_amort(ours.amort_printed, base.amort_printed),
            }
        )
    return TableResult(kind, rows, _RATE_COLUMNS)


def _gv_example_table(dt: int, servers: Sequence[int], eps: Fraction) -> TableResult:
    """Random-code guarantee at block width w = log_2(s): dimension from
    gv_dimension and the closed-form amortization lower bound
    (1-eps) s log2(s) - s - (dt+1) log2(s)."""
    rows = []
    for s in servers:
        w = _ceil_log(2, s)
        if 2**w != s:
            raise ParameterOutOfRange(f"gv-example needs s a power of two, got {s}")
        cfg = GvConfig(2, w, s, Fraction(dt + 1, s), eps)
        k = gv_dimension(cfg)
        n = cfg.n
        lower = (1 - float(eps)) * s * w - s - (dt + 1) * w
        rows.append(
            {
                "s": s,
                "w": w,
                "n": n,
                "k_gv": k,
                "rate_gv": round_half_away(k / n, 4),
                "amort_lower_bound": round_half_away(lower, 2),
            }
        )
    return TableResult("gv-example", rows, _GV_COLUMNS)
