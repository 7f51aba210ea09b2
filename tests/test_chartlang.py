"""Chart language: tokenizer, parser, evaluation, printing, diagnostics."""

import warnings

import numpy as np
import pytest

from haarkit.chartlang import (BinOp, Call, ChartError, Neg, Num, Pi, Pow, Var,
                               evaluate_expr, parse_chart, print_chart, print_expr,
                               tokenize)
from haarkit.charts import Chart

MINIMAL = """
chart tiny {
  params: a in [0, 2*pi];
  group: so(2);
  matrix: [[cos(a), -sin(a)], [sin(a), cos(a)]];
}
"""


def test_parse_minimal_chart():
    ast = parse_chart(MINIMAL)
    assert ast.name == "tiny"
    assert [p.name for p in ast.params] == ["a"]
    assert ast.group == "so(2)"
    assert len(ast.matrix) == 2 and len(ast.matrix[0]) == 2
    assert ast.matrix[0][0] == Call("cos", Var("a"))
    assert ast.matrix[0][1] == Neg(Call("sin", Var("a")))


def test_group_none_is_absent_group():
    src = "chart q { params: t in [0, 1]; group: none; matrix: [[t]]; }"
    assert parse_chart(src).group is None
    src = "chart q { params: t in [0, 1]; matrix: [[t]]; }"
    assert parse_chart(src).group is None


def test_precedence_and_associativity():
    ast = parse_chart("chart p { params: x in [0, 1]; matrix: [[1 + 2*x^2 - x/2]]; }")
    expr = ast.matrix[0][0]
    # ((1 + 2*(x^2)) - (x/2))
    assert expr == BinOp("-",
                         BinOp("+", Num(1.0), BinOp("*", Num(2.0), Pow(Var("x"), 2))),
                         BinOp("/", Var("x"), Num(2.0)))


def test_unary_minus_binds_tighter_than_mul():
    ast = parse_chart("chart p { params: x in [0, 1]; matrix: [[-x*x]]; }")
    assert ast.matrix[0][0] == BinOp("*", Neg(Var("x")), Var("x"))


def test_power_requires_integer_exponent():
    with pytest.raises(ChartError):
        parse_chart("chart p { params: x in [0, 1]; matrix: [[x^x]]; }")
    with pytest.raises(ChartError):
        parse_chart("chart p { params: x in [0, 1]; matrix: [[x^1.5]]; }")
    ast = parse_chart("chart p { params: x in [0.5, 1]; matrix: [[x^-2]]; }")
    assert ast.matrix[0][0] == Pow(Var("x"), -2)


def test_pi_literal():
    ast = parse_chart("chart p { params: x in [-pi, pi]; matrix: [[pi]]; }")
    assert ast.matrix[0][0] == Pi()
    assert evaluate_expr(ast.params[0].lower, {}) == -np.pi


def test_evaluate_vectorized():
    ast = parse_chart("chart p { params: x in [0, 1]; matrix: [[sin(x)^2 + x/4]]; }")
    xs = np.linspace(0.1, 0.9, 7)
    got = evaluate_expr(ast.matrix[0][0], {"x": xs})
    assert np.allclose(got, np.sin(xs) ** 2 + xs / 4)


def test_all_functions_evaluate():
    src = ("chart p { params: x in [0.1, 0.9]; "
           "matrix: [[sin(x) + cos(x) + tan(x) + sqrt(x) + arccos(x) + arcsin(x)]]; }")
    ast = parse_chart(src)
    x = 0.4
    expected = (np.sin(x) + np.cos(x) + np.tan(x) + np.sqrt(x)
                + np.arccos(x) + np.arcsin(x))
    assert np.isclose(evaluate_expr(ast.matrix[0][0], {"x": x}), expected)


def test_unknown_function_rejected():
    with pytest.raises(ChartError, match="exp"):
        parse_chart("chart p { params: x in [0, 1]; matrix: [[exp(x)]]; }")


def test_unknown_variable_rejected():
    with pytest.raises(ChartError, match="y"):
        parse_chart("chart p { params: x in [0, 1]; matrix: [[y]]; }")


def test_ragged_matrix_rejected():
    with pytest.raises(ChartError):
        parse_chart("chart p { params: x in [0, 1]; matrix: [[x, x], [x]]; }")


def test_duplicate_param_rejected():
    with pytest.raises(ChartError):
        parse_chart("chart p { params: x in [0, 1], x in [0, 2]; matrix: [[x]]; }")


def test_empty_bounds_rejected():
    # lower bound must be strictly below upper
    with pytest.raises(ChartError):
        parse_chart("chart p { params: x in [1, 0]; matrix: [[x]]; }")


@pytest.mark.parametrize("bound", ["1/0", "0^-1", "10^400"])
def test_undefined_constant_bound_is_a_chart_error(bound):
    with pytest.raises(ChartError) as info:
        parse_chart(f"chart p {{ params: x in [-1, {bound}]; matrix: [[x]]; }}")
    assert (info.value.line, info.value.column) == (1, 19)
    assert "bounds of 'x' cannot be evaluated" in str(info.value)


@pytest.mark.parametrize("entry", ["1/0", "x * (2 + 0^-1)"])
def test_undefined_constant_entry_is_a_chart_error(entry):
    # variable-free subtrees are folded when the chart compiles its plan
    with pytest.raises(ChartError, match="cannot be evaluated"):
        Chart.from_source(f"chart p {{ params: x in [0, 1]; matrix: [[{entry}]]; }}")


@pytest.mark.parametrize("bound", ["arccos(2)", "sqrt(0-1)", "sin(0)/0"])
def test_not_a_number_bound_is_a_chart_error(bound):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartError, match="bounds of 'x' cannot be evaluated") as info:
            parse_chart(f"chart p {{ params: x in [-1, {bound}]; matrix: [[x]]; }}")
    assert (info.value.line, info.value.column) == (1, 19)


@pytest.mark.parametrize("entry", ["arccos(2)*0", "sqrt(0-1)", "x + sin(0)/0", "x * tan(pi/2)^30"])
def test_not_a_number_constant_entry_is_a_chart_error(entry):
    # numpy gives NaN or inf where Python floats raise; folding raises for both
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartError, match="cannot be evaluated") as info:
            Chart.from_source(f"chart p {{ params: x in [0, 1]; matrix: [[{entry}]]; }}")
    assert (info.value.line, info.value.column) == (1, 1)


def test_error_positions():
    try:
        parse_chart("chart p {\n  params: x in [0, 1];\n  matrix: [[x +]];\n}")
    except ChartError as err:
        assert err.line == 3
        assert err.column == 16
        assert "line 3" in str(err)
    else:
        pytest.fail("expected a ChartError")


def test_tokenizer_rejects_stray_character():
    with pytest.raises(ChartError) as info:
        tokenize("chart p @ {}")
    assert info.value.line == 1
    assert info.value.column == 9


def test_numbers_lex_ascii_digits_only():
    # str.isdigit() accepts "²", which float() then rejects without a position
    with pytest.raises(ChartError, match="unexpected character '²'") as info:
        parse_chart("chart p { params: t in [0, 1]; matrix: [[cos(t)*1²]]; }")
    assert (info.value.line, info.value.column) == (1, 50)


def test_print_expr_minimal_parens():
    ast = parse_chart("chart p { params: x in [0, 1]; matrix: [[(x + 1)*x, x - (x - 1)]]; }")
    assert print_expr(ast.matrix[0][0]) == "(x + 1) * x"
    assert print_expr(ast.matrix[0][1]) == "x - (x - 1)"


def test_print_parse_round_trip():
    src = """chart roundtrip {
  params: a in [0, pi/2], b in [-pi, pi];
  group: so(3);
  matrix: [[cos(a)^2, -sin(b), 0], [sin(b), cos(a), 0], [0, 0, 1]];
}
"""
    ast = parse_chart(src)
    printed = print_chart(ast)
    assert parse_chart(printed) == ast
    # printing is a fixed point after one pass
    assert print_chart(parse_chart(printed)) == printed


def test_missing_sections_rejected():
    with pytest.raises(ChartError):
        parse_chart("chart p { matrix: [[1]]; }")
    with pytest.raises(ChartError):
        parse_chart("chart p { params: x in [0, 1]; }")


def test_trailing_garbage_rejected():
    with pytest.raises(ChartError):
        parse_chart(MINIMAL + "chart extra { params: t in [0, 1]; matrix: [[t]]; }")


@pytest.mark.parametrize("entry,constant,position", [
    ("-sin(x) * (1e308*10)", r"1e\+308 \* 10", (1, 1)),
    ("x + 1e999", "inf", (1, 46)),  # the parser points at the literal
    ("x * (1e308*10 - 1e308*10)", r"1e\+308 \* 10", (1, 1)),
], ids=["overflow", "literal", "overflow-then-nan"])
def test_non_finite_constant_entry_is_a_chart_error(entry, constant, position):
    # Python floats overflow to inf without raising; folding checks every value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartError, match=f"constant {constant} is not finite") as info:
            Chart.from_source(f"chart p {{ params: x in [0, 1]; matrix: [[{entry}]]; }}")
    assert (info.value.line, info.value.column) == position


def test_non_finite_constant_in_a_partial_is_a_chart_error():
    # x * 1e308 * 10 folds nothing, but its partial 1e308 * 10 does; loading compiles both
    with pytest.raises(ChartError, match=r"constant 1e\+308 \* 10 is not finite"):
        Chart.from_source("chart p { params: x in [0, 1e-309]; matrix: [[x * 1e308 * 10]]; }")
