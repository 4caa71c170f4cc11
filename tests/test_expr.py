"""Expression grammar: parsing, evaluation, differentiation, polynomial forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magspec.errors import ParseError
from magspec.expr import (as_polynomial, differentiate, evaluate,
                          parse_expression, poly_antiderivative,
                          poly_eval, to_source)


def ev(src, x, y):
    return evaluate(parse_expression(src), x, y)


class TestParsing:
    def test_numbers_and_variables(self):
        assert ev("42", 0.0, 0.0) == 42.0
        assert ev("x", 3.0, 0.0) == 3.0
        assert ev("y", 0.0, -2.5) == -2.5
        assert ev("1.5e2", 0.0, 0.0) == 150.0

    def test_precedence(self):
        assert ev("2*x + 3*y^2", 1.0, 2.0) == 14.0
        assert ev("2 + 3 * 4", 0.0, 0.0) == 14.0
        assert ev("(2 + 3) * 4", 0.0, 0.0) == 20.0
        assert ev("2 - 3 - 4", 0.0, 0.0) == -5.0
        assert ev("12 / 3 / 2", 0.0, 0.0) == 2.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert ev("-x^2", 2.0, 0.0) == -4.0

    def test_negated_parenthesized_power(self):
        assert ev("-(x*y)^2", 1.0, 2.0) == -4.0

    def test_functions(self):
        assert ev("sin(x)", 1.2, 0.0) == pytest.approx(math.sin(1.2))
        assert ev("2 - sin(x)^2", 0.7, 0.0) == pytest.approx(2 - math.sin(0.7) ** 2)
        assert ev("exp(x*y)", 0.5, 0.25) == pytest.approx(math.exp(0.125))

    def test_unclosed_paren_reports_offset_and_expectation(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("1 + (x")
        assert exc.value.offset == 6
        assert ")" in exc.value.expected

    def test_unexpected_character_reports_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("1 + &")
        assert exc.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_expression("foo(x)")

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("x^y")

    def test_vectorized_evaluation(self):
        xs = np.linspace(-1, 1, 7)
        ys = np.linspace(0, 2, 7)
        out = ev("1 + x^2 + y^2", xs, ys)
        np.testing.assert_allclose(out, 1 + xs ** 2 + ys ** 2)


class TestDifferentiate:
    @given(st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=50, deadline=None)
    def test_matches_finite_differences(self, x, y):
        e = parse_expression("x^3*y - 2*x*y^2 + sin(x)*cos(y) + exp(x/4)")
        dx = differentiate(e, "x")
        dy = differentiate(e, "y")
        eps = 1e-6
        fd_x = (evaluate(e, x + eps, y) - evaluate(e, x - eps, y)) / (2 * eps)
        fd_y = (evaluate(e, x, y + eps) - evaluate(e, x, y - eps)) / (2 * eps)
        assert evaluate(dx, x, y) == pytest.approx(fd_x, abs=1e-7, rel=1e-6)
        assert evaluate(dy, x, y) == pytest.approx(fd_y, abs=1e-7, rel=1e-6)

    def test_polynomial_derivative_exact(self):
        e = parse_expression("1 + 4*x^2 + y^2")
        dx = differentiate(e, "x")
        for x in (-1.5, 0.0, 2.0):
            assert evaluate(dx, x, 0.3) == pytest.approx(8 * x, abs=1e-14)


class TestPolynomials:
    def test_as_polynomial_quadratic(self):
        p = as_polynomial(parse_expression("1 + 4*x^2 + y^2"))
        assert p == {(0, 0): 1.0, (2, 0): 4.0, (0, 2): 1.0}

    def test_as_polynomial_rejects_transcendental(self):
        assert as_polynomial(parse_expression("sin(x)")) is None

    def test_poly_eval_matches_evaluate(self):
        e = parse_expression("2 + x*y^2 - 3*x^3 + y")
        p = as_polynomial(e)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = rng.uniform(-2, 2, 2)
            assert poly_eval(p, x, y) == pytest.approx(evaluate(e, x, y), rel=1e-13, abs=1e-13)

    def test_antiderivative_inverts_derivative(self):
        # P(b) - P(a) = int_a^b p; 4-point Gauss-Legendre is exact for the
        # cubic integrand
        p = as_polynomial(parse_expression("1 + x^2*y + y^3"))
        nodes, weights = np.polynomial.legendre.leggauss(4)
        a, b, c = -0.8, 1.3, 0.5
        t = (a + b) / 2 + (b - a) / 2 * nodes
        px = poly_antiderivative(p, "x")
        qx = (b - a) / 2 * np.sum(weights * poly_eval(p, t, c))
        assert poly_eval(px, b, c) - poly_eval(px, a, c) == pytest.approx(qx, rel=1e-13)
        py = poly_antiderivative(p, "y")
        qy = (b - a) / 2 * np.sum(weights * poly_eval(p, c, t))
        assert poly_eval(py, c, b) - poly_eval(py, c, a) == pytest.approx(qy, rel=1e-13)


def test_to_source_round_trip():
    sources = ["1 + x^2 + y^2", "-(x*y)^2 + sin(x)/2", "exp(x) - cos(y)*x^3"]
    rng = np.random.default_rng(11)
    for src in sources:
        e = parse_expression(src)
        e2 = parse_expression(to_source(e))
        for _ in range(10):
            x, y = rng.uniform(-1.5, 1.5, 2)
            assert evaluate(e2, x, y) == pytest.approx(evaluate(e, x, y), rel=1e-14, abs=1e-14)
