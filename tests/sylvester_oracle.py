"""Sylvester matrix and Bareiss determinant: the sign oracle of the
resultant tests.  Slow and plainly correct; the package never calls it."""

from polytorus.resultants import ComputationError, ResultantError, degree


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
