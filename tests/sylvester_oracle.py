"""Big-int oracles of the resultant tests: the Sylvester matrix and its
Bareiss determinant (the sign oracle), and interpolation over the
integers (the eliminant oracle).  Slow and plainly correct; the package
never calls them."""

from polytorus.resultants import ComputationError, ResultantError, degree, trim


def sylvester_matrix(f, g, formal_deg_f=None, formal_deg_g=None):
    """Classical Sylvester matrix, rows of f first, coefficients high to low.

    Formal degrees may exceed the actual ones; the extra top coefficients
    are stored as zeros.  This matches homogenized behavior at nodes where
    leading coefficients vanish.
    """
    f = list(f)
    g = list(g)
    m = degree(f) if formal_deg_f is None else formal_deg_f
    n = degree(g) if formal_deg_g is None else formal_deg_g
    if m < 0 or n < 0:
        raise ResultantError("Sylvester matrix of the zero polynomial")
    if m == 0 and n == 0:
        raise ResultantError("Sylvester matrix needs a nonconstant polynomial")
    if degree(f) > m or degree(g) > n:
        raise ResultantError("formal degree below actual degree")
    size = m + n
    frow = [(f[m - j] if m - j < len(f) else 0) for j in range(m + 1)]
    grow = [(g[n - j] if n - j < len(g) else 0) for j in range(n + 1)]
    rows = []
    for i in range(n):
        rows.append([0] * i + frow + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + grow + [0] * (size - n - 1 - i))
    return rows


def det_bareiss(matrix) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q, r = divmod(num, prev)
                if r:
                    raise ComputationError("Bareiss division was not exact")
                m[i][j] = q
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _interpolate_integers(lo: int, values) -> list:
    """The unique integer polynomial through (lo+i, values[i]).

    Newton form on the consecutive nodes x_k = lo + k: the coefficient
    c_k = Δ^k p(lo) / k! is an integer for every k exactly when p has
    integer coefficients, so an inexact division means a bug upstream.
    Horner's rule acc <- acc * (y - x_k) + c_k then expands the form
    with small-integer multipliers.
    """
    row = list(values)
    newton = [row[0]]
    fact = 1
    for k in range(1, len(row)):
        row = [b - a for a, b in zip(row, row[1:])]
        fact *= k
        c, r = divmod(row[0], fact)
        if r:
            raise ComputationError("eliminant interpolation gave a non-integer")
        newton.append(c)
    acc = [newton[-1]]
    for k in range(len(newton) - 2, -1, -1):
        node = lo + k
        acc = [s - node * a for s, a in zip([newton[k]] + acc, acc)] + [acc[-1]]
    return trim(acc)
