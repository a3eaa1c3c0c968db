"""Exact linear programming over the rationals.

A small dense two-phase simplex with Bland's rule, used for convex hull
membership and related feasibility questions.  Problems have the standard
form {x >= 0, A x = b}; infeasibility comes with a Farkas certificate
y such that y.A <= 0 componentwise and y.b > 0.

The tableau is fraction free (Edmonds; Bareiss).  The start matrix M
has the integer columns [A | I | b] described below, and the tableau is
one integer matrix T over one positive denominator D = |det B| for the
current basis B of M, so that T / D = B^-1 M.  Every row, the
reduced-cost row included, shares D.  A pivot at (p, c) turns each other
row r into (T[p][c] * T[r] - T[r][c] * T[p]) // D and then sets
D = T[p][c].  The division is exact because each entry of T is, up to
sign, a minor of M (Sylvester's identity), and |T[p][c]| is |det| of the
new basis.  A simplex pivot has T[p][c] > 0; only the
drive-out of a degenerate artificial may pivot on a negative entry, and
then the whole tableau is negated to keep D positive.

`solve_int_rows` is the one entry to the simplex.  It takes integer
rows [A_i | b_i], each row i of the problem times one common positive
factor L.  `solve_eq_nonneg` parses rational entries into such rows,
with L the lcm of the row denominators, and calls it;
`convex.hull_member` builds them from a polytope's integer generator
rows.  The start negates each row whose b_i is negative and gives the
artificials identity columns, so D = 1.  That is the unscaled
problem with each artificial multiplied by L: the basic x and the
reduced costs of the artificials (and so the Farkas y) keep their values,
the structural reduced costs of phase 1 are multiplied by L > 0, and
every ratio of a ratio test by one positive factor.  Since D > 0, signs
are read off numerators, and the ratio test compares T[r][-1] / T[r][c]
with T[s][-1] / T[s][c] as T[r][-1] * T[s][c] against T[s][-1] * T[r][c],
where D cancels.  Every sign and comparison is therefore that of the
Fraction tableau of the unscaled problem, so Bland's rule picks the same
pivots; solutions, values and certificates are returned as Fractions.

Without an objective, phase 1 ends as soon as minus the artificial sum
reaches 0, its maximum, and the basic solution is returned.  From there
every Bland pivot has ratio 0, since a positive ratio would raise the
phase-1 objective past its maximum, and so would every drive-out pivot,
whose row has right-hand side 0: no pivot after that point moves a value
of x, so the answer is the one a full phase 1 would give.  An infeasible
problem ends phase 1 with a positive artificial sum, so its certificate
is untouched.  The drive-out runs only before phase 2, which needs the
artificials out of the basis; phase 1 then runs to Bland's optimum as
before, since an earlier stop would change the basis phase 2 starts from.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .kernel import DomainError, ZERO, int_row, rat

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


def _pivot(tab, basis, den, p, c):
    """Pivot on tab[p][c] over the denominator `den`; every other row, the
    reduced-cost row last included, is updated.  Returns the new
    denominator."""
    piv = tab[p]
    a = piv[c]
    for r, row in enumerate(tab):
        if r == p:
            continue
        f = row[c]
        if f:
            tab[r] = [(a * u - f * v) // den for u, v in zip(row, piv)]
        elif a != den:
            tab[r] = [a * u // den for u in row]
    basis[p] = c
    if a < 0:
        tab[:] = [[-v for v in row] for row in tab]
        return -a
    return a


def _simplex(tab, basis, den, ncols, stop_at_zero=False):
    """Maximize over the tableau by Bland's rule; the first `ncols`
    columns may enter.

    The last row of `tab` holds den times the reduced costs
    c_j - c_B . B^-1 A_j, scaled by a positive constant, and last the
    same multiple of minus the objective value.  Returns (status, den),
    status "optimal" or "unbounded".  With `stop_at_zero` the objective
    is known to be at most 0, and an objective value of 0 is returned as
    optimal at once.
    """
    red = tab[-1]
    while True:
        if stop_at_zero and not red[-1]:
            return OPTIMAL, den
        enter = -1
        for j in range(ncols):
            if red[j] > 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL, den
        leave = -1
        for r in range(len(basis)):
            row = tab[r]
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, a_best, rhs_best = r, a, row[-1]
                    continue
                lhs, rhs = row[-1] * a_best, rhs_best * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, a_best, rhs_best = r, a, row[-1]
        if leave < 0:
            return UNBOUNDED, den
        den = _pivot(tab, basis, den, leave, enter)
        red = tab[-1]


def _basic_solution(tab, basis, den, n):
    x = [ZERO] * n
    for r, k in enumerate(basis):
        if k < n:
            x[k] = Fraction(tab[r][-1], den)
    return x


def solve_eq_nonneg(A, b, objective=None):
    """Solve {x >= 0, A x = b}, optionally maximizing `objective`.x.

    Entries are ints, Fractions or "p/q" strings (read by `kernel.rat`).
    Returns a dict with keys:
      status  -- "feasible" / "optimal" / "infeasible" / "unbounded"
      x       -- a solution (feasible statuses)
      value   -- objective value (status "optimal")
      farkas  -- certificate y with y.A <= 0, y.b > 0 (status "infeasible")
    Raises DomainError unless A is m x n, b has m entries and
    `objective` n, or if an entry is not a rational.  A string is only
    ever an entry: a string A, row, b or objective is an error.
    """
    try:
        m = len(A)
        n = len(A[0]) if m else 0
        ok = (not any(isinstance(v, str) for v in (A, b, objective, *A))
              and all(len(row) == n for row in A) and len(b) == m
              and (objective is None or len(objective) == n))
    except TypeError:
        ok = False
    if not ok:
        raise DomainError("A must be an m x n matrix, with m entries in b "
                          "and n in the objective")
    rows = [int_row([rat(v) for v in A[i]] + [rat(b[i])]) for i in range(m)]
    scale = lcm(*(den for _, den in rows))
    return solve_int_rows([[v * (scale // den) for v in nums]
                           for nums, den in rows], n, objective)


def solve_int_rows(rows, n, objective=None):
    """Solve {x >= 0, A x = b} given as integer rows [A_i | b_i].

    Each row is row i of the problem times one common positive factor,
    which changes no answer: the result is that of `solve_eq_nonneg` on
    the problem, in the same form.  `objective` holds n rationals, read
    by `kernel.rat`.  Raises DomainError for a row without n + 1 entries,
    a row entry that is not an int (a bool or a Fraction included) or an
    objective without n entries.

    Without an objective, phase 1 ends as soon as the artificial sum is
    zero, and the basic solution is returned: every pivot after that
    point, Bland's and the drive-out's alike, would be degenerate and
    move no value of x.
    """
    m = len(rows)
    if (any(len(row) != n + 1 for row in rows)
            or objective is not None
            and (isinstance(objective, str) or len(objective) != n)):
        raise DomainError(f"each row must have {n + 1} entries and the "
                          f"objective {n}")
    if not {v.__class__ for row in rows for v in row} <= {int}:
        raise DomainError("each row entry must be an int")
    flipped = [row[-1] < 0 for row in rows]
    if objective is not None:
        cost, cost_den = int_row([rat(v) for v in objective])

    # tableau columns: n structural + m artificial + rhs; D = 1
    tab = []
    for i, row in enumerate(rows):
        row = [-v for v in row] if flipped[i] else list(row)
        tab.append(row[:n] + [int(j == i) for j in range(m)] + [row[n]])
    basis = [n + i for i in range(m)]

    # phase 1 maximizes minus the sum of the artificials; with the
    # artificials basic, its reduced costs are the column sums, and zero
    # on the artificials
    red = [sum(col) for col in zip(*tab)] if m else [0]
    red[n:n + m] = [0] * m
    tab.append(red)
    status, den = _simplex(tab, basis, 1, n + m,
                           stop_at_zero=objective is None)
    assert status == OPTIMAL
    red = tab[-1]
    if red[-1] > 0:
        # infeasible: recover y from the reduced costs of the artificials
        # (reduced cost of artificial i is -1 - y_i in the maximize form),
        # flipped to the y.A <= 0, y.b > 0 convention
        y = [Fraction(red[n + i] + den, den) for i in range(m)]
        y = [(-v if fl else v) for v, fl in zip(y, flipped)]
        return {"status": INFEASIBLE, "farkas": y}
    if objective is None:
        return {"status": FEASIBLE, "x": _basic_solution(tab, basis, den, n)}

    # drive any degenerate artificials out of the basis before phase 2
    for r in range(m):
        if basis[r] >= n:
            for j in range(n):
                if tab[r][j] != 0:
                    den = _pivot(tab, basis, den, r, j)
                    break
    # artificials that could not be driven out sit on all-zero redundant
    # rows and can never re-enter; they are simply left in place

    # phase 2: den * cost - sum of cost[basis[r]] * tab[r], over
    # den * cost_den; basic artificials cost nothing
    red = [den * v for v in cost] + [0] * (m + 1)
    for r, k in enumerate(basis):
        if k < n and cost[k]:
            red = [u - cost[k] * v for u, v in zip(red, tab[r])]
    tab[-1] = red
    status, den = _simplex(tab, basis, den, n)
    if status == UNBOUNDED:
        return {"status": UNBOUNDED}
    return {"status": OPTIMAL, "x": _basic_solution(tab, basis, den, n),
            "value": Fraction(-tab[-1][-1], den * cost_den)}
