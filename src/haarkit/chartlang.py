"""Parser and evaluator for the chart-definition language.

A chart file names a parametrisation p: U -> M(R), a box domain U, and an
optional group tag.  Grammar (EBNF):

    chart      = "chart" ident "{" "params" ":" paramlist ";"
                 ["group" ":" grouptag ";"] "matrix" ":" matrix ";" "}"
    paramlist  = param { "," param }
    param      = ident "in" "[" expr "," expr "]"
    grouptag   = "so(2)" | "o(2)" | "so(3)" | "o(3)" | "none"   (groups.GROUPS spellings)
    matrix     = "[" row { "," row } "]"
    row        = "[" expr { "," expr } "]"
    expr       = term { ("+" | "-") term }
    term       = factor { ("*" | "/") factor }
    factor     = "-" factor | power
    power      = atom [ "^" integer ]
    atom       = number | "pi" | ident | ident "(" expr ")" | "(" expr ")"

Functions: sin cos tan sqrt arccos arcsin.  Bounds must be constant
expressions with lower < upper; matrix entries may use declared parameters
and pi; every expression nests at most MAX_DEPTH levels, one per parenthesis,
call, operator and power.  ``tokenize`` scans with one compiled token pattern.
The parser reads expr and term as one precedence-climbing loop over ``_PREC``,
the table ``print_expr`` parenthesizes by, so the two agree on binding.
``evaluate_expr`` walks the tree over numpy scalars or arrays;
``charts.Chart`` compiles its entries and their ``differentiate`` partials
into straight-line plans of the same numpy calls.  Nothing uses eval().
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from .groups import GROUPS

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sqrt": np.sqrt,
    "arccos": np.arccos,
    "arcsin": np.arcsin,
}
# Python's operators, not ufuncs: the walk and the chart plans call these, and
# in constant folding a Python float overflows to inf without raising, so
# 1e308*10 is reported "not finite" (np.multiply under errstate(over="raise")
# would raise).
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

GROUP_TAGS = (*(g.spelling for g in GROUPS.values()), "none")
MAX_DEPTH = 100  # derivatives nest up to twice as deep; the parser takes 5 frames a level


class ChartError(ValueError):
    """Lexical, syntactic, or semantic error in a chart source, with position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Tokens


# One alternative per token class, tried in order.  Numbers take ASCII digits
# only (float() rejects "²" without a position).  \w is str.isalnum() or "_",
# so an ident run that starts with neither a letter nor "_" ("²", "Ⅻ") is an
# unexpected character, as is anything no other alternative takes.
_TOKEN = re.compile(r"""
    (?P<number> (?:[0-9]+(?:\.[0-9]*)? | \.[0-9]+) (?:[eE][+-]?[0-9]+)? )
  | (?P<ident>  \w+ )
  | (?P<punct>  [{}\[\](),;:+\-*/^] )
  | (?P<blank>  [ \t\r]+ )
  | (?P<newline> \n )
  | (?P<other>  . )
""", re.VERBOSE | re.DOTALL)


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "ident" | the punctuation character | "eof"
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # columns count characters from the last newline
    for m in _TOKEN.finditer(source):
        kind, text, column = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "other" or kind == "ident" and not (text[0].isalpha() or text[0] == "_"):
            raise ChartError(f"unexpected character {text[0]!r}", line, column)
        elif kind != "blank":
            tokens.append(Token(text if kind == "punct" else kind, text, line, column))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Num | Pi | Var | Neg | BinOp | Pow | Call


@dataclass(frozen=True)
class Param:
    name: str
    lower: Expr
    upper: Expr


@dataclass(frozen=True)
class ChartAst:
    name: str
    params: tuple[Param, ...]
    group: str | None  # a spelling of groups.GROUPS ("so(3)"), or None
    matrix: tuple[tuple[Expr, ...], ...]


# ---------------------------------------------------------------------------
# Parser


# Binding strength, shared by the parser and the printer.  Binary operators
# are left-associative: a right operand binds strictly tighter.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        # None: no identifiers allowed (bound expressions); otherwise the set
        # of declared parameter names usable in matrix entries.
        self.allowed_vars: set[str] | None = None
        self.open = 0  # levels open above the expression being parsed

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ChartError(message, tok.line, tok.column)

    def expect(self, kind: str, what: str | None = None, text: str | None = None) -> Token:
        """The next token, which must be of ``kind`` and, given ``text``, spell it."""
        tok = self.peek()
        if tok.kind != kind or text is not None and tok.text != text:
            found = tok.text if tok.kind != "eof" else "end of input"
            self.error(f"expected {what or text or kind!r}, found {found!r}", tok)
        return self.advance()

    def deeper(self, depth: int, tok: Token) -> int:
        """depth + 1, refused at tok where that and the levels open above pass MAX_DEPTH."""
        if self.open + depth >= MAX_DEPTH:
            self.error(f"expression nested deeper than {MAX_DEPTH} levels", tok)
        return depth + 1

    def below(self, tok: Token, parse, beside: int = 0) -> tuple[Expr, int]:
        """parse() one level below a node made at tok, and that node's depth (over ``beside`` too)."""
        self.deeper(1, tok)  # refused before recursing: that node is at least two deep
        self.open += 1
        node, depth = parse()
        self.open -= 1
        return node, self.deeper(max(depth, beside), tok)

    def parse_list(self, parse_item):
        """item { "," item }, yielding each item as it is parsed."""
        yield parse_item()
        while self.peek().kind == ",":
            self.advance()
            yield parse_item()

    # chart = "chart" ident "{" sections "}"
    def parse_chart(self) -> ChartAst:
        self.expect("ident", text="chart")
        name = self.expect("ident", "chart name").text
        self.expect("{")
        self.expect("ident", text="params")
        self.expect(":")
        params = list(self.parse_list(self.parse_param))
        seen = set()
        for p in params:
            if p.name in seen:
                self.error(f"duplicate parameter {p.name!r}")
            seen.add(p.name)
        self.expect(";")
        group = None
        if self.peek().kind == "ident" and self.peek().text == "group":
            self.advance()
            self.expect(":")
            group = self.parse_group_tag()
            self.expect(";")
        self.expect("ident", text="matrix")
        self.expect(":")
        self.allowed_vars = {p.name for p in params}
        matrix = self.parse_matrix()
        self.allowed_vars = None
        self.expect(";")
        self.expect("}")
        self.expect("eof", "end of input")
        return ChartAst(name=name, params=tuple(params), group=group, matrix=matrix)

    def parse_param(self) -> Param:
        name_tok = self.expect("ident", "parameter name")
        name = name_tok.text
        if name == "pi" or name in FUNCTIONS:
            self.error(f"parameter name {name!r} is reserved", name_tok)
        self.expect("ident", text="in")
        self.expect("[")
        lower = self.parse_expr()[0]
        self.expect(",")
        upper = self.parse_expr()[0]
        close = self.expect("]")
        try:
            with np.errstate(invalid="raise", divide="raise", over="raise"):
                lo, hi = evaluate_expr(lower, {}), evaluate_expr(upper, {})
        except ArithmeticError as exc:  # 1/0, 0^-1, 10^400, arccos(2)
            self.error(f"bounds of {name!r} cannot be evaluated ({exc})", name_tok)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            self.error(f"bounds of {name!r} are not finite", name_tok)
        if not lo < hi:
            self.error(f"lower bound of {name!r} must be less than upper bound", close)
        return Param(name=name, lower=lower, upper=upper)

    def parse_group_tag(self) -> str | None:
        tok = self.expect("ident", "group tag")
        spelling = tok.text
        if self.peek().kind == "(":  # so(3): the dimension is part of the tag
            self.advance()
            spelling += f"({self.expect('number', 'group dimension').text})"
            self.expect(")")
        if spelling not in GROUP_TAGS:
            self.error(f"unknown group tag {spelling!r}; expected one of {', '.join(GROUP_TAGS)}", tok)
        return None if spelling == "none" else spelling

    def parse_matrix(self) -> tuple[tuple[Expr, ...], ...]:
        self.expect("[")
        rows = []
        for row_tok, row in self.parse_list(self.parse_row):
            if rows and len(row) != len(rows[0]):
                self.error(f"ragged matrix: row {len(rows) + 1} has {len(row)} entries, "
                           f"expected {len(rows[0])}", row_tok)
            rows.append(row)
        self.expect("]")
        return tuple(rows)

    def parse_row(self) -> tuple[Token, tuple[Expr, ...]]:
        open_tok = self.expect("[")
        entries = tuple(node for node, _ in self.parse_list(self.parse_expr))
        self.expect("]")
        return open_tok, entries

    # expr = factor { op factor }, climbing _PREC.  Each parse_* returns (node, depth).
    def parse_expr(self, min_prec: int = 1) -> tuple[Expr, int]:
        node, depth = self.parse_factor()
        while (op := self.peek().kind) in OPERATORS and _PREC[op] >= min_prec:
            right, depth = self.below(self.advance(), lambda: self.parse_expr(_PREC[op] + 1), depth)
            node = BinOp(op, node, right)
        return node, depth

    def parse_factor(self) -> tuple[Expr, int]:
        if self.peek().kind == "-":
            arg, depth = self.below(self.advance(), self.parse_factor)
            return Neg(arg), depth
        return self.parse_power()

    def parse_power(self) -> tuple[Expr, int]:
        base, depth = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.advance()
            negative = self.peek().kind == "-"
            if negative:
                self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "number" or not exp_tok.text.isdigit():
                self.error("exponent must be an integer literal", exp_tok if exp_tok.kind != "eof" else caret)
            exponent = int(self.advance().text)
            return Pow(base, -exponent if negative else exponent), self.deeper(depth, caret)
        return base, depth

    def parse_atom(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            if not np.isfinite(value):  # 1e999 overflows to inf without raising
                self.error(f"constant {value!r} is not finite (literal {tok.text})", tok)
            return Num(value), 1
        if tok.kind == "(":
            self.advance()
            node, depth = self.below(tok, self.parse_expr)
            self.expect(")")
            return node, depth
        if tok.kind == "ident":
            self.advance()
            if tok.text == "pi":
                return Pi(), 1
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    self.error(f"unknown function {tok.text!r}", tok)
                self.advance()
                arg, depth = self.below(tok, self.parse_expr)
                self.expect(")")
                return Call(tok.text, arg), depth
            if tok.text in FUNCTIONS:
                self.error(f"function {tok.text!r} needs an argument list", tok)
            if self.allowed_vars is None:
                self.error(f"identifier {tok.text!r} is not allowed in a constant bound", tok)
            if tok.text not in self.allowed_vars:
                self.error(f"unknown identifier {tok.text!r}; not a declared parameter", tok)
            return Var(tok.text), 1
        found = tok.text if tok.kind != "eof" else "end of input"
        self.error(f"expected an expression, found {found!r}", tok)


def parse_chart(source: str) -> ChartAst:
    """Parse chart source text into an AST, enforcing all semantic checks."""
    return _Parser(tokenize(source)).parse_chart()


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_expr(node: Expr, env: dict[str, float | np.ndarray]):
    """Evaluate an expression tree over an environment of scalars or arrays."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Pi):
        return np.pi
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -evaluate_expr(node.arg, env)
    if isinstance(node, BinOp):
        return OPERATORS[node.op](evaluate_expr(node.left, env), evaluate_expr(node.right, env))
    if isinstance(node, Pow):
        return evaluate_expr(node.base, env) ** node.exponent
    if isinstance(node, Call):
        return FUNCTIONS[node.func](evaluate_expr(node.arg, env))
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Differentiation.  The language is closed under d/du: None stands for an
# identically zero derivative, and each slope is an expression of the argument.

_ONE = Num(1.0)

SLOPES = {
    "sin": lambda a: Call("cos", a),
    "cos": lambda a: Neg(Call("sin", a)),
    "tan": lambda a: Pow(Call("cos", a), -2),
    "sqrt": lambda a: BinOp("/", Num(0.5), Call("sqrt", a)),
    "arccos": lambda a: Neg(Pow(Call("sqrt", BinOp("-", _ONE, Pow(a, 2))), -1)),
    "arcsin": lambda a: Pow(Call("sqrt", BinOp("-", _ONE, Pow(a, 2))), -1),
}


def _sum(a, b, op: str):
    if a is None or b is None:
        return a if b is None else b if op == "+" else Neg(b)
    return BinOp(op, a, b)


def _mul(a, b):
    if a is None or b is None:
        return None
    return b if a == _ONE else a if b == _ONE else BinOp("*", a, b)


def differentiate(node: Expr, name: str) -> Expr | None:
    """d node / d name: sum, product and quotient rules, then the chain rule
    with n a^(n-1) for powers and SLOPES for calls.  Zero terms are dropped
    and factors of 1 left out; the quotient rule reuses the quotient node.
    """
    if isinstance(node, Var):
        return _ONE if node.name == name else None
    if isinstance(node, BinOp):
        da, db = differentiate(node.left, name), differentiate(node.right, name)
        if node.op == "*":
            return _sum(_mul(da, node.right), _mul(node.left, db), "+")
        if node.op == "/":  # d(a/b) = (da - (a/b) db) / b
            top = _sum(da, _mul(node, db), "-")
            return None if top is None else BinOp("/", top, node.right)
        return _sum(da, db, node.op)
    if isinstance(node, Neg):
        return _sum(None, differentiate(node.arg, name), "-")
    if isinstance(node, Pow):
        n, arg = node.exponent, node.base
        slope = None if n == 0 else _ONE if n == 1 else BinOp("*", Num(float(n)), Pow(arg, n - 1))
    elif isinstance(node, Call):
        slope, arg = SLOPES[node.func](node.arg), node.arg
    else:  # Num, Pi
        return None
    return _mul(slope, differentiate(arg, name))


# ---------------------------------------------------------------------------
# Printing.  print_chart(parse_chart(s)) reparses to an equal AST.


def _format_number(value: float) -> str:
    if abs(value) < 1e16 and value == int(value):
        return str(int(value))
    return repr(value)


def print_expr(node: Expr, parent_prec: int = 0) -> str:
    if isinstance(node, Num):
        text, prec = _format_number(node.value), _PREC["atom"]
    elif isinstance(node, Pi):
        text, prec = "pi", _PREC["atom"]
    elif isinstance(node, Var):
        text, prec = node.name, _PREC["atom"]
    elif isinstance(node, Call):
        text, prec = f"{node.func}({print_expr(node.arg)})", _PREC["atom"]
    elif isinstance(node, Neg):
        prec = _PREC["neg"]
        text = "-" + print_expr(node.arg, prec)
    elif isinstance(node, Pow):
        prec = _PREC["^"]
        # exponent grammar takes a literal; negative exponents print as ^-k
        text = print_expr(node.base, prec + 1) + "^" + str(node.exponent)
    elif isinstance(node, BinOp):
        prec = _PREC[node.op]
        # left-associative: right operand needs strictly higher precedence
        left = print_expr(node.left, prec)
        right = print_expr(node.right, prec + 1)
        text = f"{left} {node.op} {right}"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    return f"({text})" if prec < parent_prec else text


def print_chart(ast: ChartAst) -> str:
    """Render an AST back to canonical chart source."""
    lines = [f"chart {ast.name} {{"]
    params = ", ".join(
        f"{p.name} in [{print_expr(p.lower)}, {print_expr(p.upper)}]" for p in ast.params)
    lines.append(f"  params: {params};")
    if ast.group is not None:
        lines.append(f"  group: {ast.group};")
    lines.append("  matrix: [")
    for i, row in enumerate(ast.matrix):
        comma = "," if i + 1 < len(ast.matrix) else ""
        lines.append("    [" + ", ".join(print_expr(e) for e in row) + "]" + comma)
    lines.append("  ];")
    lines.append("}")
    return "\n".join(lines) + "\n"
