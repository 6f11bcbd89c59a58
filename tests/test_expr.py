from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bfpde.expr import (
    Add,
    Call,
    Const,
    Div,
    EvalDomainError,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    UnboundVariableError,
    Var,
    differentiate,
    evaluate,
    finite_difference,
    free_variables,
    interval_eval,
    parse,
    to_string,
)
from randexpr import random_binding, random_smooth_expression

PARAMS = ("beta", "gamma")


class TestParse:
    def test_worked_candidate_shape(self):
        e = parse("x1^beta * x2 + gamma", PARAMS)
        assert e == Add(Mul(Pow(Var("x1"), Var("beta")), Var("x2")), Var("gamma"))

    def test_bare_variable(self):
        assert parse("x1") == Var("x1")

    def test_mul_div_left_associative(self):
        e = parse("beta * x2 / x1", PARAMS)
        assert e == Div(Mul(Var("beta"), Var("x2")), Var("x1"))
        assert evaluate(e, {"beta": 0.5, "x1": 2.0, "x2": 3.0}) == pytest.approx(0.75)

    def test_power_right_associative(self):
        assert parse("x1^x2^2") == Pow(Var("x1"), Pow(Var("x2"), Const(2.0)))

    def test_unary_minus_binds_below_power(self):
        assert parse("-x1^2") == Neg(Pow(Var("x1"), Const(2.0)))
        assert parse("2^-x1") == Pow(Const(2.0), Neg(Var("x1")))

    def test_function_call(self):
        assert parse("ln(x1) + exp(x2)") == Add(Call("ln", Var("x1")), Call("exp", Var("x2")))

    def test_scientific_notation(self):
        assert parse("1.5e-3") == Const(1.5e-3)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1 +* x2")
        assert err.value.position == 4

    def test_stray_character_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + $")
        assert str(err.value) == "unexpected character '$' (at position 5)"
        assert err.value.position == 5

    def test_trailing_whitespace(self):
        assert parse("x1 + x2   ") == Add(Var("x1"), Var("x2"))

    def test_undeclared_identifier(self):
        with pytest.raises(ParseError, match="undeclared identifier 'qq'"):
            parse("x1 + qq")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("tan(x1)")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_trailing_tokens(self):
        with pytest.raises(ParseError):
            parse("x1 x2")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(x1 + x2")


class TestEvaluate:
    def test_power_of_one_base(self):
        e = parse("x1^beta*x2+gamma", PARAMS)
        assert evaluate(e, {"x1": 1.0, "x2": 5.0, "beta": 0.5, "gamma": 0.0}) == 5.0

    def test_division_by_zero(self):
        e = parse("x1/x2")
        with pytest.raises(EvalDomainError, match="division by zero"):
            evaluate(e, {"x1": 1.0, "x2": 0.0})

    def test_power_and_offset_hand_oracle(self):
        # 4^0.5 * 1 + 2 = 4
        e = parse("x1^beta*x2+gamma", PARAMS)
        assert evaluate(e, {"x1": 4.0, "x2": 1.0, "beta": 0.5, "gamma": 2.0}) == pytest.approx(4.0)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(parse("x1 + x2"), {"x1": 1.0})

    def test_ln_domain(self):
        with pytest.raises(EvalDomainError, match="ln"):
            evaluate(parse("ln(x1)"), {"x1": -1.0})

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError, match="sqrt"):
            evaluate(parse("sqrt(x1)"), {"x1": -4.0})

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalDomainError, match="zero base"):
            evaluate(parse("x1^(-1)"), {"x1": 0.0})

    def test_negative_base_fractional_exponent(self):
        with pytest.raises(EvalDomainError, match="non-integer exponent"):
            evaluate(parse("x1^x2"), {"x1": -2.0, "x2": 0.5})

    def test_negative_base_integer_exponent_ok(self):
        assert evaluate(parse("x1^x2"), {"x1": -2.0, "x2": 3.0}) == -8.0

    def test_array_binding_broadcasts(self):
        e = parse("x1 * x2")
        out = evaluate(e, {"x1": np.array([1.0, 2.0, 3.0]), "x2": 10.0})
        np.testing.assert_array_equal(out, [10.0, 20.0, 30.0])

    def test_array_domain_check_any_element(self):
        e = parse("ln(x1)")
        with pytest.raises(EvalDomainError):
            evaluate(e, {"x1": np.array([2.0, 0.0])})


class TestDifferentiate:
    def test_worked_candidate_x1_partial(self):
        # closed form: beta * x1^(beta-1) * x2
        e = parse("x1^beta*x2+gamma", PARAMS)
        d = differentiate(e, "x1")
        for x1, x2, beta in [(1.0, 5.0, 0.5), (2.0, 3.0, 0.25), (4.0, 0.5, 0.75)]:
            got = evaluate(d, {"x1": x1, "x2": x2, "beta": beta, "gamma": 1.0})
            assert got == pytest.approx(beta * x1 ** (beta - 1.0) * x2, rel=1e-14)

    def test_worked_candidate_x2_partial(self):
        e = parse("x1^beta*x2+gamma", PARAMS)
        d = differentiate(e, "x2")
        assert d == Pow(Var("x1"), Var("beta"))
        for x1, beta in [(1.0, 0.5), (3.0, 0.25)]:
            got = evaluate(d, {"x1": x1, "x2": 9.9, "beta": beta, "gamma": 1.0})
            assert got == pytest.approx(x1**beta, rel=1e-14)

    def test_constant_rule(self):
        assert differentiate(parse("gamma", PARAMS), "x1") == Const(0.0)

    def test_quotient_rule(self):
        d = differentiate(parse("x1/x2"), "x2")
        assert evaluate(d, {"x1": 6.0, "x2": 2.0}) == pytest.approx(-1.5)

    def test_chain_rules(self):
        cases = {
            "exp(2*x1)": lambda x: 2.0 * np.exp(2.0 * x),
            "ln(x1)": lambda x: 1.0 / x,
            "sqrt(x1)": lambda x: 0.5 / np.sqrt(x),
            "sin(x1)": np.cos,
            "cos(x1)": lambda x: -np.sin(x),
        }
        for text, want in cases.items():
            d = differentiate(parse(text), "x1")
            assert evaluate(d, {"x1": 1.3}) == pytest.approx(want(1.3), rel=1e-12)

    def test_derivative_wrt_parameter(self):
        # d/dbeta x1^beta = x1^beta * ln(x1), needed by the envelope probes
        d = differentiate(parse("x1^beta", PARAMS), "beta")
        got = evaluate(d, {"x1": 2.0, "beta": 0.5})
        assert got == pytest.approx(2.0**0.5 * np.log(2.0), rel=1e-14)


class TestFiniteDifference:
    def test_square_slope(self):
        got = finite_difference(parse("x1^2"), "x1", {"x1": 3.0}, 1e-5)
        assert got == pytest.approx(6.0, abs=1e-8)

    def test_constant_is_exactly_flat(self):
        got = finite_difference(parse("gamma", PARAMS), "x1", {"x1": 2.0, "gamma": 7.0}, 1e-5)
        assert got == 0.0

    def test_matches_symbolic_on_power(self):
        e = parse("x1^beta*x2", PARAMS)
        b = {"x1": 2.0, "x2": 3.0, "beta": 0.5}
        sym = evaluate(differentiate(e, "x1"), b)
        fd = finite_difference(e, "x1", b, 1e-5)
        assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym))

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            finite_difference(parse("x1"), "x1", {"x1": 1.0}, 0.0)


def _leaves():
    consts = st.floats(0, 10, allow_nan=False, allow_infinity=False).map(Const)
    names = st.sampled_from(["x1", "x2", "beta", "gamma"]).map(Var)
    return st.one_of(consts, names)


def _compound(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda ab: Add(*ab)),
        pair.map(lambda ab: Sub(*ab)),
        pair.map(lambda ab: Mul(*ab)),
        pair.map(lambda ab: Div(*ab)),
        pair.map(lambda ab: Pow(*ab)),
        children.map(Neg),
        st.tuples(st.sampled_from(["exp", "ln", "sqrt", "sin", "cos"]), children).map(
            lambda fa: Call(*fa)
        ),
    )


grammar_asts = st.recursive(_leaves(), _compound, max_leaves=25)


class TestProperties:
    @given(grammar_asts)
    def test_print_parse_round_trip(self, e):
        assert parse(to_string(e), PARAMS) == e

    @given(grammar_asts)
    def test_free_variables_subset_of_alphabet(self, e):
        assert free_variables(e) <= {"x1", "x2", "beta", "gamma"}

    def test_differentiation_is_linear(self):
        rng = np.random.default_rng(7)
        e1 = parse("x1^2 * x2 + sin(x1)", PARAMS)
        e2 = parse("exp(x1 / 4) + gamma * x1", PARAMS)
        d_sum = differentiate(Add(e1, e2), "x1")
        d_parts = Add(differentiate(e1, "x1"), differentiate(e2, "x1"))
        for _ in range(25):
            b = {
                "x1": float(rng.uniform(0.5, 3.0)),
                "x2": float(rng.uniform(0.5, 3.0)),
                "beta": float(rng.uniform(0.5, 1.0)),
                "gamma": float(rng.uniform(0.0, 2.0)),
            }
            assert evaluate(d_sum, b) == pytest.approx(evaluate(d_parts, b), rel=1e-12)

    def test_symbolic_vs_central_difference_random_smooth(self):
        # dedicated acceptance criterion runs 500 of these; keep a smoke batch here
        from randexpr import random_binding, random_smooth_expression

        rng = np.random.default_rng(42)
        checked = 0
        while checked < 60:
            e, var = random_smooth_expression(rng)
            b = random_binding(rng)
            try:
                sym = evaluate(differentiate(e, var), b)
                fd = finite_difference(e, var, b, 1e-5)
            except EvalDomainError:
                continue
            if not (np.isfinite(sym) and np.isfinite(fd)) or abs(sym) > 50.0:
                continue
            assert abs(sym - fd) <= 1e-6 * (1.0 + abs(sym))
            checked += 1


class TestIntervalEval:
    """``interval_eval`` encloses every value an expression takes over a box,
    shrinks with the box, and returns (-inf, inf) instead of raising where an
    operand leaves the domain."""

    @staticmethod
    def random_boxes(rng, n):
        """name -> (lo, hi) arrays of n boxes around points ``random_binding``
        draws, each side at most 0.5 wide (every ``randexpr`` operand stays in
        its domain there)."""
        centres = [random_binding(rng) for _ in range(n)]
        box = {}
        for name in centres[0]:
            c, w = np.array([b[name] for b in centres]), rng.uniform(0.0, 0.25, n)
            box[name] = (c - w, c + w)
        return box

    @staticmethod
    def enclosure(text, **box):
        e = parse(text, PARAMS)
        return interval_eval(e, {name: (np.float64(lo), np.float64(hi)) for name, (lo, hi) in box.items()})

    def test_every_point_of_the_box_lies_in_the_enclosure(self):
        rng = np.random.default_rng(3)
        for _ in range(120):
            e, _ = random_smooth_expression(rng)
            box = self.random_boxes(rng, 4)
            lo, hi = np.broadcast_arrays(*interval_eval(e, box), np.zeros(4))[:2]
            # 200 points per box: its 16 corners and 184 drawn inside it
            corners = (np.arange(16)[:, None] >> np.arange(4)) & 1
            points = {}
            for j, (name, (a, b)) in enumerate(box.items()):
                inside = a[:, None] + (b - a)[:, None] * rng.uniform(0.0, 1.0, (4, 184))
                points[name] = np.hstack([np.where(corners[:, j] == 1, b[:, None], a[:, None]), inside])
            values = np.broadcast_to(evaluate(e, points), (4, 200))
            assert np.all((lo[:, None] <= values) & (values <= hi[:, None])), to_string(e)

    def test_a_sub_box_encloses_inside_its_box(self):
        rng = np.random.default_rng(5)
        for _ in range(120):
            e, _ = random_smooth_expression(rng)
            box = self.random_boxes(rng, 4)
            sub = {}
            for name, (a, b) in box.items():
                ends = np.sort(a[:, None] + (b - a)[:, None] * rng.uniform(0.0, 1.0, (4, 2)), axis=1)
                sub[name] = (ends[:, 0], ends[:, 1])
            lo, hi = interval_eval(e, box)
            sub_lo, sub_hi = interval_eval(e, sub)
            assert np.all((lo <= sub_lo) & (sub_hi <= hi)), to_string(e)

    def test_rounded_ends_enclose_the_exact_result(self):
        # numpy rounds to nearest, so a point interval's rounded result must
        # move outward to hold the exact rational one
        rng = np.random.default_rng(9)
        for text, exact in (("x1 + x2", lambda a, b: a + b), ("x1 - x2", lambda a, b: a - b),
                            ("x1 * x2", lambda a, b: a * b), ("x1 / x2", lambda a, b: a / b)):
            for a, b in rng.uniform(0.1, 10.0, (50, 2)):
                lo, hi = self.enclosure(text, x1=(a, a), x2=(b, b))
                assert Fraction(float(lo)) <= exact(Fraction(a), Fraction(b)) <= Fraction(float(hi))
                assert hi - lo <= 2 * np.spacing(max(abs(lo), abs(hi)))

    def test_an_even_power_across_its_zero_starts_at_zero(self):
        lo, hi = self.enclosure("(beta - 0.6)^2", beta=(0.3, 0.9))
        assert lo == 0.0 and 0.09 <= hi <= 0.09 * (1 + 1e-15)
        assert self.enclosure("(beta - 0.6)^2", beta=(0.7, 0.9))[0] > 0.0

    def test_sin_and_cos_over_a_full_period_are_the_unit_interval(self):
        for fn in ("sin", "cos"):
            assert self.enclosure(f"{fn}(x1)", x1=(0.5, 0.5 + 2 * np.pi)) == (-1.0, 1.0)

    def test_sin_over_a_monotone_piece_is_tight(self):
        lo, hi = self.enclosure("sin(x1)", x1=(0.1, 1.2))
        assert lo <= np.sin(0.1) and np.sin(0.1) - lo <= np.spacing(np.sin(0.1))
        assert hi >= np.sin(1.2) and hi - np.sin(1.2) <= np.spacing(np.sin(1.2))
        # an extremum inside the interval is the bound on its side
        lo, hi = self.enclosure("cos(x1)", x1=(-0.2, 0.3))
        assert hi == 1.0 and np.cos(0.3) - lo <= np.spacing(np.cos(0.3))

    @pytest.mark.parametrize("text", ["1 / x1", "ln(x1)", "sqrt(x1)", "x1^0.5", "x1^(-2)", "(x1 - 1)^beta"])
    def test_an_operand_across_the_domain_edge_is_uncertified(self, text):
        # no EvalDomainError, and no RuntimeWarning (the test suite errors on one)
        assert self.enclosure(text, x1=(-1.0, 1.0), beta=(0.5, 0.5)) == (-np.inf, np.inf)

    def test_a_nan_end_is_uncertified(self):
        # 0 * inf
        assert self.enclosure("x1 * x2", x1=(0.0, 0.0), x2=(1.0, np.inf)) == (-np.inf, np.inf)

    def test_an_unbound_variable_raises(self):
        with pytest.raises(UnboundVariableError):
            interval_eval(parse("x1 + x2"), {"x1": (0.0, 1.0)})
