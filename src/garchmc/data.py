"""Price ingestion, the percent log-return transform, and synthetic data."""
import csv
import io
import math
from pathlib import Path

import numpy as np

from . import model
from .exceptions import DataValidationError, InsufficientDataError
from .rng import named_rng

#: Pre-samples the synthetic generator discards before recording, so the
#: recorded series starts near the stationary distribution.
SYNTHETIC_BURN = 1000
#: Squared volatility the synthetic generator starts its recursion from.
SYNTHETIC_SIGMA1_SQ = 1.0


def load_prices(path):
    """Read the prices of a two-column CSV of (label, price) rows.

    A header row is auto-detected by attempting to parse the second field of
    the first row as a number. A file that is not UTF-8 is a hard error
    naming the offset of its first bad byte; a row csv cannot read (such as
    one with a field over its size limit), a row of other than two fields, an
    unparsable price and a price that is not finite and positive are hard
    errors naming their row.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path}: byte offset {exc.start} is not UTF-8: {exc.reason}") from None
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for i, row in enumerate(reader):
            if not row:
                continue
            if len(row) != 2:
                raise DataValidationError(f"{path}: row {i + 1} has {len(row)} fields, not 2")
            rows.append((i + 1, row[1].strip()))
    except csv.Error as exc:  # such as a field over csv's size limit
        raise DataValidationError(f"{path}: row {reader.line_num}: {exc}") from None
    if rows:
        try:
            float(rows[0][1])
        except ValueError:
            rows = rows[1:]  # header row

    prices = []
    for lineno, raw in rows:
        try:
            price = float(raw)
        except ValueError:
            raise DataValidationError(f"{path}: row {lineno}: unparsable price {raw!r}") from None
        if not 0.0 < price < math.inf:
            raise DataValidationError(f"{path}: row {lineno}: price {price} is not finite and positive")
        prices.append(price)
    if len(prices) < 2:
        raise InsufficientDataError(f"{path}: need at least 2 price observations, got {len(prices)}")
    return np.array(prices, dtype=np.float64)


def transform_returns(prices):
    """Demeaned percent log-returns: 100*(ln(p_i/p_{i-1}) - mean). A pair of
    prices whose ratio leaves float64, overflowing or underflowing to 0, is
    refused."""
    p = np.asarray(prices, dtype=np.float64)
    if p.size < 2:
        raise InsufficientDataError("need at least 2 prices to form a return")
    if np.any(p <= 0.0) or not np.all(np.isfinite(p)):
        raise DataValidationError("prices must be finite and strictly positive")
    with np.errstate(over="ignore", under="ignore"):
        ratio = p[1:] / p[:-1]
    bad = np.flatnonzero(~((ratio > 0.0) & (ratio < math.inf)))
    if bad.size:
        i = int(bad[0])
        raise DataValidationError(f"prices {i + 1} and {i + 2} ({float(p[i])}, "
                                  f"{float(p[i + 1])}): their ratio leaves float64")
    s = np.log(ratio)
    return 100.0 * (s - s.mean())


def generate_synthetic(theta, n, seed):
    """Simulate n returns of a GARCH(1,1) with the (alpha, beta, omega)
    triple theta; deterministic given seed. A series that overflows float64
    is refused."""
    a, b, w = (float(v) for v in theta)
    # in_support admits an infinite omega, which would simulate infinities.
    if not (all(map(math.isfinite, (a, b, w))) and model.in_support(a, b, w)):
        raise DataValidationError(f"synthetic theta violates GARCH constraints: {theta}")
    if n < 1:
        raise DataValidationError("synthetic n must be positive")
    rng = named_rng(seed, "synthetic")
    eps = rng.standard_normal(n + SYNTHETIC_BURN).tolist()
    y = []
    s = SYNTHETIC_SIGMA1_SQ
    try:
        for t, e in enumerate(eps):
            if t > 0:
                # A float square overflowing raises; one that reaches inf
                # through the sum makes every later s infinite.
                s = w + a * y[-1] ** 2 + b * s
            y.append(math.sqrt(s) * e)
        if not math.isfinite(s):
            raise OverflowError
    except OverflowError:
        raise DataValidationError(f"synthetic series overflows float64: {theta}") from None
    return np.array(y[SYNTHETIC_BURN:])
