import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from gcvx import exactlp
from gcvx.kernel import DomainError, int_row, rat_str


def F(x):
    return Fraction(x)


def test_unique_solution():
    # x + y = 1, x - y = 0 has the unique nonnegative solution (1/2, 1/2)
    res = exactlp.solve_eq_nonneg([[1, 1], [1, -1]], [1, 0])
    assert res["status"] == exactlp.FEASIBLE
    assert res["x"] == [F("1/2"), F("1/2")]


def test_optimal_value():
    # maximize x subject to x + y = 1
    res = exactlp.solve_eq_nonneg([[1, 1]], [1], objective=[1, 0])
    assert res["status"] == exactlp.OPTIMAL
    assert res["value"] == F(1)
    assert res["x"][0] == F(1)


def test_unbounded():
    # maximize x - y subject to x - y - s = 0 is unbounded above
    res = exactlp.solve_eq_nonneg([[1, -1, -1]], [0], objective=[1, -1, 0])
    assert res["status"] == exactlp.UNBOUNDED


def test_infeasible_with_farkas_certificate():
    # x + y = 1 and x + y = 2 cannot both hold
    A = [[1, 1], [1, 1]]
    b = [1, 2]
    res = exactlp.solve_eq_nonneg(A, b)
    assert res["status"] == exactlp.INFEASIBLE
    y = res["farkas"]
    # y.A <= 0 componentwise while y.b > 0 certifies infeasibility
    for j in range(2):
        assert sum(y[i] * A[i][j] for i in range(2)) <= 0
    assert sum(yi * bi for yi, bi in zip(y, b)) > 0


def test_infeasible_negative_rhs_combination():
    # x = -1 is infeasible for x >= 0
    A = [[1]]
    b = [-1]
    res = exactlp.solve_eq_nonneg(A, b)
    assert res["status"] == exactlp.INFEASIBLE
    y = res["farkas"]
    assert y[0] * A[0][0] <= 0
    assert y[0] * b[0] > 0


def test_exact_rationals_survive_pivoting():
    # a system engineered to produce awkward intermediate fractions
    A = [[F("1/3"), F("1/7"), 1], [F("2/5"), F("3/11"), 0]]
    b = [F("22/21"), F("73/110")]
    res = exactlp.solve_eq_nonneg(A, b)
    assert res["status"] == exactlp.FEASIBLE
    x = res["x"]
    for row, rhs in zip(A, b):
        assert sum(c * v for c, v in zip(row, x)) == rhs


def test_empty_system_is_feasible():
    # no rows and no columns: the empty vector is the one solution
    assert exactlp.solve_eq_nonneg([], []) == {"status": exactlp.FEASIBLE,
                                               "x": []}


def test_shapes_must_agree():
    # each of the first six was answered "feasible": [[1]], [1, 2] dropped
    # 0 = 2, and the ragged A gave x = [-1, 1]; the last three, an A that
    # is not a matrix and a b that is not a list, raised TypeError
    for A, b, objective in (([[1]], [1, 2], None),
                            ([[1, 1], [1]], [1, 2], None),
                            ([[1, 1]], [], None),
                            ([], [1], None),
                            ([[1, 1]], [1], [1]),
                            ([[1, 1]], [1], [1, 1, 1]),
                            ([1, 2], [1], None),
                            ([[1, 2]], 1, None),
                            (None, [], None)):
        with pytest.raises(DomainError):
            exactlp.solve_eq_nonneg(A, b, objective)


def test_a_string_is_not_a_row_or_vector():
    # a string has a length and yields its characters, so it passed the
    # shape check: ["12"] was read as the row [1, 2] and came back
    # feasible with x = [3, 0], and the other two came back feasible too
    for A, b, objective in ((["12"], [3], None),
                            ("1", "1", None),
                            ([[1, 2]], "3", None),
                            ([[1, 2]], [3], "12")):
        with pytest.raises(DomainError):
            exactlp.solve_eq_nonneg(A, b, objective)


def test_integer_rows_must_have_n_plus_one_entries():
    # a short row would shift its right-hand side into a structural column
    for rows, n, objective in (([[1, 1, 1], [1, 2]], 2, None),
                               ([[1, 1, 1, 1]], 2, None),
                               ([[1, 1, 1]], 2, [1])):
        with pytest.raises(DomainError):
            exactlp.solve_int_rows(rows, n, objective)


@pytest.mark.parametrize("bad", (Fraction(1, 2), 0.5, True, "1", None))
def test_integer_row_entries_must_be_ints(bad):
    # a Fraction entry gave an x that fails A x = b, a float raised
    # TypeError and a bool was read as 1
    for rows in ([[bad, 1, 1]], [[1, 1, bad]], [[1, 1, 1], [1, bad, 2]]):
        with pytest.raises(DomainError):
            exactlp.solve_int_rows(rows, 2)


def test_integer_rows_read_the_objective_as_rationals():
    assert exactlp.solve_int_rows([[3, 1, 2]], 2, ["3", 0]) == \
        exactlp.solve_eq_nonneg([["1", "1/3"]], ["2/3"], ["3", 0])
    for objective in ([0.5, 0], [True, 0], "12"):
        with pytest.raises(DomainError):
            exactlp.solve_int_rows([[3, 1, 2]], 2, objective)


def test_integer_rows_may_be_tuples():
    # a tuple row with a nonnegative right-hand side raised TypeError
    # (only a negative one was copied into a list)
    for rows in ([[1, 1, 1]], [[-1, 1, -1]], [[1, 0, 2], [0, -1, -3]],
                 [[1, 1, 0], [1, -1, -1]], [[1, 1, -1]]):
        as_tuples = [tuple(row) for row in rows]
        for objective in (None, [1, 0]):
            assert exactlp.solve_int_rows(as_tuples, 2, objective) == \
                exactlp.solve_int_rows(rows, 2, objective)


@pytest.mark.parametrize("bad", (0.5, "abc", None, "1/0"))
def test_entries_must_be_rationals(bad):
    # a float was read as a binary fraction, "abc" raised ValueError and
    # None TypeError; every entry is an int, a Fraction or a "p/q" string
    for A, b, objective in (([[bad]], [1], None),
                            ([[1]], [bad], None),
                            ([[1]], [1], [bad])):
        with pytest.raises(DomainError):
            exactlp.solve_eq_nonneg(A, b, objective)


def test_bools_are_not_rationals():
    # a bool is an int to Python, so True and False read as 1 and 0 and
    # this system came back feasible with x = [1, 0]
    with pytest.raises(DomainError):
        exactlp.solve_eq_nonneg([[True, False]], [True])


def test_entries_may_be_p_over_q_strings():
    res = exactlp.solve_eq_nonneg([["1/3", 1]], ["2/3"], objective=["3", 0])
    assert res == {"status": exactlp.OPTIMAL, "x": [F(2), F(0)],
                   "value": F(6)}


# ---------------------------------------------------------------------------
# seeded corpus: a behaviour gate and a self-contained answer check

CORPUS_SIZE = 2400
CORPUS_DIGEST = "758f7fd1dde30a2f4d0cf8adbdf1c7d2cbfd4ae4d5e7596269ddcad5975a7e2c"


def _entry(rng):
    if rng.random() < 0.3:
        return F(0)
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 4, 5, 7, 8)))


def lp_corpus():
    """Seeded LPs with 1-6 rows and 1-10 columns over mixed denominators.

    Half have a right-hand side A x0 for a random x0 >= 0 with some zero
    entries (feasible, often degenerate), the rest a random one (often
    infeasible).  Some systems repeat a row as a multiple of another or
    have a zero right-hand side, and half carry an objective, some of
    them unbounded."""
    rng = random.Random("exactlp-corpus")
    corpus = []
    for k in range(CORPUS_SIZE):
        m, n = rng.randint(1, 6), rng.randint(1, 10)
        A = [[_entry(rng) for _ in range(n)] for _ in range(m)]
        shape = k % 4
        if shape in (0, 1):
            x0 = [Fraction(rng.randint(0, 3), rng.choice((1, 2, 3)))
                  if rng.random() < 0.6 else F(0) for _ in range(n)]
            b = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in A]
        else:
            b = [_entry(rng) for _ in range(m)]
        if m > 1 and rng.random() < 0.25:
            i, j = rng.sample(range(m), 2)
            s = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
            A[j] = [s * v for v in A[i]]
            b[j] = s * b[i]
        if rng.random() < 0.1:
            b = [F(0)] * m
        objective = None
        if k % 2:
            objective = [_entry(rng) for _ in range(n)]
        corpus.append((A, b, objective))
    return corpus


def _canonical(res):
    out = {"status": res["status"]}
    for key in ("x", "farkas"):
        if key in res:
            out[key] = [rat_str(Fraction(v)) for v in res[key]]
    if "value" in res:
        out["value"] = rat_str(Fraction(res["value"]))
    return out


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def test_corpus_results_are_pinned():
    results = [_canonical(exactlp.solve_eq_nonneg(A, b, objective=c))
               for A, b, c in lp_corpus()]
    counts = {}
    for r in results:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    assert min(counts.get(s, 0) for s in (
        exactlp.FEASIBLE, exactlp.OPTIMAL, exactlp.INFEASIBLE,
        exactlp.UNBOUNDED)) >= 50, counts
    blob = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == CORPUS_DIGEST


def test_corpus_answers_check_on_their_own_terms():
    degenerate = 0
    for A, b, c in lp_corpus():
        res = exactlp.solve_eq_nonneg(A, b, objective=c)
        status = res["status"]
        if status in (exactlp.FEASIBLE, exactlp.OPTIMAL):
            x = res["x"]
            assert len(x) == len(A[0]) and all(v >= 0 for v in x)
            assert [_dot(row, x) for row in A] == list(b)
            degenerate += sum(v == 0 for v in x) > len(x) - len(A)
        if status == exactlp.OPTIMAL:
            assert res["value"] == _dot(c, res["x"])
        if status == exactlp.INFEASIBLE:
            y = res["farkas"]
            assert len(y) == len(A)
            assert all(_dot(y, [row[j] for row in A]) <= 0
                       for j in range(len(A[0])))
            assert _dot(y, b) > 0
        if status == exactlp.UNBOUNDED:
            assert c is not None
            assert exactlp.solve_eq_nonneg(A, b)["status"] == exactlp.FEASIBLE
    assert degenerate >= 50


def test_integer_rows_at_any_common_scale_give_the_same_answer():
    # the integer entry fed [A_i | b_i] times the lcm L of all row
    # denominators, and times 6L, answers exactly as the rational entry
    for A, b, c in lp_corpus():
        rows = [int_row(row + [rhs]) for row, rhs in zip(A, b)]
        scale = math.lcm(*(den for _, den in rows))
        expected = exactlp.solve_eq_nonneg(A, b, objective=c)
        for k in (scale, 6 * scale):
            int_rows = [[v * (k // den) for v in nums] for nums, den in rows]
            assert exactlp.solve_int_rows(int_rows, len(A[0]), c) == expected


def counted_pivots(monkeypatch) -> list:
    """Patch `exactlp._pivot` with a counter; the list collects the
    (row, column) of each pivot."""
    pivots, real = [], exactlp._pivot

    def counting(tab, basis, den, p, c):
        pivots.append((p, c))
        return real(tab, basis, den, p, c)
    monkeypatch.setattr(exactlp, "_pivot", counting)
    return pivots


@pytest.mark.parametrize("with_objective, expected",
                         ((False, 2387), (True, 3684)))
def test_corpus_pivot_counts_are_pinned(monkeypatch, with_objective,
                                        expected):
    # without an objective phase 1 ends at a zero artificial sum: the
    # degenerate Bland pivots and the drive-out after it made 3,392
    # pivots; with one, the drive-out and phase 2 run as before
    corpus = [(A, b, c) for A, b, c in lp_corpus()
              if (c is not None) == with_objective]
    pivots = counted_pivots(monkeypatch)
    for A, b, c in corpus:
        exactlp.solve_eq_nonneg(A, b, objective=c)
    assert len(pivots) == expected
