"""Chart language: tokenizer, parser, evaluation, printing, diagnostics."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarkit.chartlang import (MAX_DEPTH, BinOp, Call, ChartError, Neg, Num, Pi, Pow, Var,
                               evaluate_expr, parse_chart, print_chart, print_expr,
                               tokenize)
from haarkit.charts import Chart
from haarkit.haar import normalize

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


# (source, tokens as (kind, text, line, column) without eof, eof (line, column))
# or (source, None, (message, line, column)) for a lexical error
LEXER_EDGES = [
    ("1..2", [("number", "1.", 1, 1), ("number", ".2", 1, 3)], (1, 5)),
    ("1e", [("number", "1", 1, 1), ("ident", "e", 1, 2)], (1, 3)),
    ("1e+", [("number", "1", 1, 1), ("ident", "e", 1, 2), ("+", "+", 1, 3)], (1, 4)),
    (".5e3", [("number", ".5e3", 1, 1)], (1, 5)),
    ("1E-3x", [("number", "1E-3", 1, 1), ("ident", "x", 1, 5)], (1, 6)),
    ("1e5e5", [("number", "1e5", 1, 1), ("ident", "e5", 1, 4)], (1, 6)),
    ("x²", [("ident", "x²", 1, 1)], (1, 3)),  # "²" may continue an identifier
    ("_a", [("ident", "_a", 1, 1)], (1, 3)),
    ("é", [("ident", "é", 1, 1)], (1, 2)),
    ("a\r\nb c", [("ident", "a", 1, 1), ("ident", "b", 2, 1), ("ident", "c", 2, 3)], (2, 4)),
    ("x\n\n  y", [("ident", "x", 1, 1), ("ident", "y", 3, 3)], (3, 4)),
    ("x  \t ", [("ident", "x", 1, 1)], (1, 6)),  # end of input after trailing blanks
    ("", [], (1, 1)),
    ("a\xa0b", None, ("unexpected character '\\xa0'", 1, 2)),
    ("a\vb", None, ("unexpected character '\\x0b'", 1, 2)),
    ("Ⅻ", None, ("unexpected character 'Ⅻ'", 1, 1)),  # numeric, not a letter
    ("²", None, ("unexpected character '²'", 1, 1)),
    ("x\n .", None, ("unexpected character '.'", 2, 2)),
]


@pytest.mark.parametrize("source,tokens,end", LEXER_EDGES)
def test_lexer_edge_cases(source, tokens, end):
    if tokens is None:
        with pytest.raises(ChartError) as info:
            tokenize(source)
        assert (str(info.value), info.value.line, info.value.column) == (
            f"line {end[1]}, column {end[2]}: {end[0]}", end[1], end[2])
        return
    got = [(t.kind, t.text, t.line, t.column) for t in tokenize(source)]
    assert got == tokens + [("eof", "", *end)]


LEXABLE = st.text(st.sampled_from(list("0123456789.eE+-_axyz²é{}[](),;:*/^ \t\r\n")), max_size=40)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(source=LEXABLE)
def test_relexing_spaced_token_texts_gives_the_same_tokens(source):
    try:
        tokens = tokenize(source)[:-1]
    except ChartError:
        return
    again = tokenize(" ".join(t.text for t in tokens))[:-1]
    assert [(t.kind, t.text) for t in again] == [(t.kind, t.text) for t in tokens]


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


@pytest.mark.parametrize("params, entry, message, column", [
    ("pi in [0, 1]", "pi", "parameter name 'pi' is reserved", 19),
    ("t in [0, 1e308*10]", "t", "bounds of 't' are not finite", 19),
    ("t in [0, 1]", "sin + t", "function 'sin' needs an argument list", 42),
    ("t in [0, x]", "t", "identifier 'x' is not allowed in a constant bound", 28),
], ids=["reserved", "overflowing-bound", "bare-function", "bound-identifier"])
def test_misused_names_and_overflowing_bounds_are_chart_errors(params, entry, message, column):
    with pytest.raises(ChartError) as info:
        parse_chart(f"chart p {{ params: {params}; matrix: [[{entry}]]; }}")
    assert str(info.value) == f"line 1, column {column}: {message}"


# Each parenthesis, call, unary minus, binary operator and power nests one level.
DEEP_PREFIX = "chart d { params: t in [0, 1]; matrix: [["


@pytest.mark.parametrize("entry,crossing", [
    ("(" * 300 + "t" + ")" * 300, MAX_DEPTH - 1),  # the parser's own recursion
    ("-" * 1000 + "t", MAX_DEPTH - 1),
    (" + ".join(["t"] * 500), 2 + 4 * (MAX_DEPTH - 1)),  # left-deep: hashing the tree recursed
], ids=["parentheses", "unary minuses", "flat sum"])
def test_too_deep_an_expression_is_a_chart_error_at_the_crossing_token(entry, crossing):
    with pytest.raises(ChartError, match=f"expression nested deeper than {MAX_DEPTH} levels") as info:
        parse_chart(DEEP_PREFIX + entry + "]]; }")
    assert (info.value.line, info.value.column) == (1, len(DEEP_PREFIX) + crossing + 1)


assert MAX_DEPTH % 2 == 0  # so that an even run of minuses reaches it
AT_LIMIT = {  # entries exactly MAX_DEPTH deep, each equal to cos(t)
    "parentheses": "(" * (MAX_DEPTH - 2) + "cos(t)" + ")" * (MAX_DEPTH - 2),
    "unary minuses": "-" * (MAX_DEPTH - 2) + "cos(t)",
    "flat sum": "cos(t)" + " + 0" * (MAX_DEPTH - 2),
    "quotient chain": "cos(t) + 0*(" + "/".join(["t"] * (MAX_DEPTH - 3)) + ")",
    "calls": "cos(t) + 0*" + "sin(" * (MAX_DEPTH - 3) + "t" + ")" * (MAX_DEPTH - 3),
    "powers": "(" * (MAX_DEPTH // 2 - 1) + "cos(t)" + ")^1" * (MAX_DEPTH // 2 - 1),
}


@pytest.mark.parametrize("entry", AT_LIMIT.values(), ids=AT_LIMIT.keys())
def test_chart_at_the_depth_limit_loads_normalizes_and_prints(entry):
    source = ("chart deep { params: t in [0, 2*pi]; group: so(2); "
              f"matrix: [[{entry}, -sin(t)], [sin(t), cos(t)]]; }}")
    chart = Chart.from_source(source)  # its derivative plan compiles with it
    assert abs(normalize(chart, 8).C - 2 * np.pi) <= 1e-12
    assert parse_chart(chart.source()) == chart.ast
    with pytest.raises(ChartError, match="nested deeper"):
        parse_chart(source.replace(entry, f"({entry})"))  # one level more
