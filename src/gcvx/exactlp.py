"""Exact linear programming over the rationals.

A small dense two-phase simplex with Bland's rule, used for convex hull
membership and related feasibility questions.  Problems have the standard
form {x >= 0, A x = b}; infeasibility comes with a Farkas certificate
y such that y.A <= 0 componentwise and y.b > 0.

The tableau holds Python ints only.  Each row, the reduced-cost row
included, is a list of integer numerators over one positive integer
denominator, and every elimination cancels the row by the gcd of its
denominator and all its numerators.  Signs are read off numerators, and
the ratio test compares rhs_r / a_r with rhs_s / a_s as rhs_r * a_s
against rhs_s * a_r, which is exact because both entries a are positive
and each row's denominator cancels in its own ratio.  Every comparison
agrees with rational arithmetic, so the pivot sequence is that of a
Fraction tableau; solutions, values and certificates are returned as
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .kernel import DomainError, ONE, ZERO, int_row

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


def _eliminate(u, du, v, dv, col):
    """u/du - (u[col]/du) * v/dv, for a pivot row with v[col] == dv."""
    f = u[col]
    row = [a * dv - f * b for a, b in zip(u, v)]
    den = du * dv
    g = gcd(den, *row)
    if g > 1:
        row = [a // g for a in row]
        den //= g
    return row, den


def _pivot(tab, basis, row, col):
    nums = tab[row][0]
    if nums[col] < 0:
        nums = [-v for v in nums]
    g = gcd(*nums)
    if g > 1:
        nums = [v // g for v in nums]
    piv = nums[col]
    tab[row] = (nums, piv)
    for r in range(len(tab)):
        if r != row and tab[r][0][col] != 0:
            tab[r] = _eliminate(*tab[r], nums, piv, col)
    basis[row] = col


def _simplex(tab, basis, cost, allowed):
    """Maximize cost over the tableau; Bland's rule guarantees termination.

    `cost` is the full cost vector (one entry per column); `allowed` marks
    columns permitted to enter the basis.  Returns (status, red), status
    "optimal" or "unbounded", where red = (numerators, denominator) holds
    the reduced costs c_j - c_B . B^-1 A_j and, last, minus the objective
    value.
    """
    ncols = len(allowed)
    red = int_row(list(cost) + [ZERO])
    # price out the basis; every basic column is a unit column, so row r
    # is the pivot row of column basis[r]
    for r in range(len(tab)):
        if red[0][basis[r]] != 0:
            red = _eliminate(*red, *tab[r], basis[r])
    while True:
        rnums = red[0]
        enter = -1
        for j in range(ncols):
            if allowed[j] and rnums[j] > 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL, red
        leave = -1
        for r, (nums, _den) in enumerate(tab):
            a = nums[enter]
            if a > 0:
                if leave < 0:
                    leave, a_best, rhs_best = r, a, nums[-1]
                    continue
                lhs, rhs = nums[-1] * a_best, rhs_best * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, a_best, rhs_best = r, a, nums[-1]
        if leave < 0:
            return UNBOUNDED, red
        _pivot(tab, basis, leave, enter)
        red = _eliminate(*red, *tab[leave], enter)


def _basic_solution(tab, basis, n):
    x = [ZERO] * n
    for r, (nums, den) in enumerate(tab):
        if basis[r] < n:
            x[basis[r]] = Fraction(nums[-1], den)
    return x


def solve_eq_nonneg(A, b, objective=None):
    """Solve {x >= 0, A x = b}, optionally maximizing `objective`.x.

    Returns a dict with keys:
      status  -- "feasible" / "optimal" / "infeasible" / "unbounded"
      x       -- a solution (feasible statuses)
      value   -- objective value (status "optimal")
      farkas  -- certificate y with y.A <= 0, y.b > 0 (status "infeasible")
    Raises DomainError unless A is m x n, b has m entries and
    `objective` n.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    if (any(len(row) != n for row in A) or len(b) != m
            or objective is not None and len(objective) != n):
        raise DomainError(f"A must be {m} x {n}, with {m} entries in b and "
                          f"{n} in the objective")
    # tableau columns: n structural + m artificial + rhs
    tab = []
    flipped = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]] + [Fraction(b[i])]
        flipped.append(row[-1] < 0)
        if flipped[-1]:
            row = [-v for v in row]
        nums, den = int_row(row)
        art = [den if j == i else 0 for j in range(m)]
        tab.append((nums[:n] + art + nums[n:], den))
    basis = [n + i for i in range(m)]

    phase1_cost = [ZERO] * n + [-ONE] * m
    status, (red, rden) = _simplex(tab, basis, phase1_cost, [True] * (n + m))
    assert status == OPTIMAL
    if red[-1] > 0:
        # infeasible: recover y from the reduced costs of the artificials
        # (reduced cost of artificial i is -1 - y_i in the maximize form),
        # flipped to the y.A <= 0, y.b > 0 convention
        y = [Fraction(red[n + i] + rden, rden) for i in range(m)]
        y = [(-v if fl else v) for v, fl in zip(y, flipped)]
        return {"status": INFEASIBLE, "farkas": y}

    # drive any degenerate artificials out of the basis
    for r in range(m):
        if basis[r] >= n:
            for j in range(n):
                if tab[r][0][j] != 0:
                    _pivot(tab, basis, r, j)
                    break
    # artificials that could not be driven out sit on all-zero redundant
    # rows and can never re-enter; they are simply left in place
    if objective is None:
        return {"status": FEASIBLE, "x": _basic_solution(tab, basis, n)}

    cost = [Fraction(c) for c in objective] + [ZERO] * m
    status, (red, rden) = _simplex(tab, basis, cost, [True] * n + [False] * m)
    if status == UNBOUNDED:
        return {"status": UNBOUNDED}
    return {"status": OPTIMAL, "x": _basic_solution(tab, basis, n),
            "value": Fraction(-red[-1], rden)}
