"""Recursive-descent parser for condition strings.

Grammar (standard SQL-ish precedence, lowest first)::

    condition   := or_expr
    or_expr     := and_expr ( OR and_expr )*
    and_expr    := not_expr ( AND not_expr )*
    not_expr    := NOT not_expr | primary
    primary     := '(' condition ')'
                 | TRUE | FALSE
                 | ident IS [NOT] NULL
                 | ident BETWEEN literal AND literal
                 | ident [NOT] IN '(' literal (',' literal)* ')'
                 | ident [NOT] LIKE string
                 | ident compare_op literal
    literal     := string | number | TRUE | FALSE | NULL

Identifiers may be qualified (``u1.V``); the qualifier is stripped since
fusion-query conditions range over a single tuple variable.

Parentheses and ``NOT`` may nest at most :data:`MAX_NESTING` levels;
deeper input raises :class:`~repro.errors.ParseError` rather than
exhausting the interpreter's stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ParseError
from repro.relational.conditions import (
    Between,
    Comparison,
    Condition,
    FalseCondition,
    InSet,
    IsNull,
    Like,
    Not,
    Or,
    And,
    TrueCondition,
)

_KEYWORDS = {
    "AND", "OR", "NOT", "IN", "LIKE", "BETWEEN", "IS", "NULL", "TRUE", "FALSE",
}

_PUNCTUATION = {"(", ")", ",", "*"}

_OPERATORS = ("<=", ">=", "!=", "<>", "=", "<", ">")

#: Deepest parenthesis/``NOT`` nesting a condition may use.  Each level
#: costs the recursive descent about four stack frames, so this keeps a
#: parse well inside Python's default recursion limit.
MAX_NESTING = 200


@dataclass(frozen=True)
class Token:
    """A lexical token with its source offset (for error messages)."""

    kind: str  # 'ident' | 'number' | 'string' | 'op' | 'punct' | 'keyword' | 'eof'
    text: str
    position: int
    value: Any = None


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens, raising :class:`ParseError` on garbage."""
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCTUATION:
            tokens.append(Token("punct", ch, i))
            i += 1
            continue
        matched_op = next(
            (op for op in _OPERATORS if text.startswith(op, i)), None
        )
        if matched_op:
            canonical = "!=" if matched_op == "<>" else matched_op
            tokens.append(Token("op", canonical, i))
            i += len(matched_op)
            continue
        if ch == "'":
            j = i + 1
            chunks: list[str] = []
            while True:
                if j >= n:
                    raise ParseError("unterminated string literal", text, i)
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":  # escaped quote
                        chunks.append("'")
                        j += 2
                        continue
                    break
                chunks.append(text[j])
                j += 1
            tokens.append(Token("string", text[i : j + 1], i, "".join(chunks)))
            i = j + 1
            continue
        if ch.isdigit() or (ch in "+-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            literal = text[i:j]
            value: Any = float(literal) if seen_dot else int(literal)
            tokens.append(Token("number", literal, i, value))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in _KEYWORDS:
                tokens.append(Token("keyword", upper, i))
            else:
                tokens.append(Token("ident", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", text, i)
    tokens.append(Token("eof", "", n))
    return tokens


class _Parser:
    """Stateful cursor over a token list."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        self.depth = 0

    # -- cursor helpers --------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        self.index += 1
        return token

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        token = self.current
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.accept(kind, text)
        if token is None:
            want = text or kind
            raise ParseError(
                f"expected {want!r}, found {self.current.text!r}",
                self.text,
                self.current.position,
            )
        return token

    def descend(self) -> None:
        """Enter one nesting level (just after its ``(`` or ``NOT``)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"condition nests deeper than {MAX_NESTING} levels",
                self.text,
                self.tokens[self.index - 1].position,
            )

    # -- grammar ----------------------------------------------------------

    def parse(self) -> Condition:
        condition = self.or_expr()
        if self.current.kind != "eof":
            raise ParseError(
                f"trailing input starting at {self.current.text!r}",
                self.text,
                self.current.position,
            )
        return condition

    def or_expr(self) -> Condition:
        operands = [self.and_expr()]
        while self.accept("keyword", "OR"):
            operands.append(self.and_expr())
        return operands[0] if len(operands) == 1 else Or.of(*operands)

    def and_expr(self) -> Condition:
        operands = [self.not_expr()]
        while self.accept("keyword", "AND"):
            operands.append(self.not_expr())
        return operands[0] if len(operands) == 1 else And.of(*operands)

    def not_expr(self) -> Condition:
        if self.accept("keyword", "NOT"):
            self.descend()
            inner = self.not_expr()
            self.depth -= 1
            return Not(inner)
        return self.primary()

    def primary(self) -> Condition:
        if self.accept("punct", "("):
            self.descend()
            inner = self.or_expr()
            self.expect("punct", ")")
            self.depth -= 1
            return inner
        if self.accept("keyword", "TRUE"):
            return TrueCondition()
        if self.accept("keyword", "FALSE"):
            return FalseCondition()
        ident = self.expect("ident")
        attribute = ident.text.split(".")[-1]  # strip tuple-variable qualifier
        return self.predicate_tail(attribute)

    def predicate_tail(self, attribute: str) -> Condition:
        if self.accept("keyword", "IS"):
            negated = self.accept("keyword", "NOT") is not None
            self.expect("keyword", "NULL")
            return IsNull(attribute, negated=negated)
        if self.accept("keyword", "BETWEEN"):
            low = self.literal()
            self.expect("keyword", "AND")
            high = self.literal()
            return Between(attribute, low, high)
        negated = self.accept("keyword", "NOT") is not None
        if self.accept("keyword", "IN"):
            self.expect("punct", "(")
            values = [self.literal()]
            while self.accept("punct", ","):
                values.append(self.literal())
            self.expect("punct", ")")
            in_set = InSet(attribute, values)
            return Not(in_set) if negated else in_set
        if self.accept("keyword", "LIKE"):
            pattern = self.expect("string")
            like = Like(attribute, pattern.value)
            return Not(like) if negated else like
        if negated:
            raise ParseError(
                "NOT must be followed by IN or LIKE here",
                self.text,
                self.current.position,
            )
        op = self.expect("op")
        value = self.literal()
        return Comparison(attribute, op.text, value)

    def literal(self) -> Any:
        token = self.current
        if token.kind in ("string", "number"):
            self.advance()
            return token.value
        if token.kind == "keyword" and token.text in ("TRUE", "FALSE"):
            self.advance()
            return token.text == "TRUE"
        if token.kind == "keyword" and token.text == "NULL":
            self.advance()
            return None
        raise ParseError(
            f"expected a literal, found {token.text!r}", self.text, token.position
        )


def parse_aggregate_list(text: str):
    """Parse a SELECT-list of aggregates into :class:`AggregateSpec`\\ s.

    Grammar::

        agg_list := agg ( ',' agg )*
        agg      := FUNC '(' ( '*' | ident ) ')'

    where ``FUNC`` is one of COUNT/SUM/AVG/MIN/MAX (case-insensitive)
    and the ident may be tuple-variable qualified (``u1.D``).

    Example:
        >>> [str(s) for s in parse_aggregate_list("COUNT(*), avg(u1.D)")]
        ['COUNT(*)', 'AVG(D)']
    """
    from repro.relational.aggregates import AGGREGATE_FUNCS, AggregateSpec

    if not text or not text.strip():
        raise ParseError("empty aggregate list", text, 0)
    parser = _Parser(text)

    def one() -> AggregateSpec:
        ident = parser.expect("ident")
        func = ident.text.lower()
        if func not in AGGREGATE_FUNCS:
            raise ParseError(
                f"unknown aggregate function {ident.text!r}; "
                f"expected one of {tuple(f.upper() for f in AGGREGATE_FUNCS)}",
                text,
                ident.position,
            )
        parser.expect("punct", "(")
        if parser.accept("punct", "*"):
            attribute = None
            if func != "count":
                raise ParseError(
                    f"{func.upper()}(*) is not defined; only COUNT(*)",
                    text,
                    ident.position,
                )
        else:
            attr_token = parser.expect("ident")
            attribute = attr_token.text.split(".")[-1]
        parser.expect("punct", ")")
        return AggregateSpec(func, attribute)

    specs = [one()]
    while parser.accept("punct", ","):
        specs.append(one())
    if parser.current.kind != "eof":
        raise ParseError(
            f"trailing input starting at {parser.current.text!r}",
            text,
            parser.current.position,
        )
    return tuple(specs)


def parse_condition(text: str) -> Condition:
    """Parse a condition string into a :class:`Condition` AST.

    Example:
        >>> parse_condition("V = 'dui' AND D >= 1994").to_sql()
        "V = 'dui' AND D >= 1994"
    """
    if not text or not text.strip():
        raise ParseError("empty condition", text, 0)
    return _Parser(text).parse()
