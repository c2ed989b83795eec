"""Tiny arithmetic expression parser shared by the ring layer and the CLI.

Grammar::

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := primary ('^' ('-')? INT)?
    primary := INT | NAME | '(' expr ')' | '-' factor

Evaluation is generic: the caller supplies how names resolve, how integer
literals embed, and how powers are taken, so the same parser serves ring
elements and algebra elements.
"""
from __future__ import annotations

from .errors import ParseError


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError("unexpected character %r" % (ch,), line, col)
    tokens.append(("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, atom, constant, power):
        self.tokens = tokens
        self.pos = 0
        self.atom = atom
        self.constant = constant
        self.power = power

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(
                "expected %s, found %r" % (kind, tok[1]), tok[2], tok[3]
            )
        self.pos += 1
        return tok

    def parse_expr(self):
        value = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek()[0] == "*":
            self.take()
            value = value * self.parse_factor()
        return value

    def parse_factor(self):
        value = self.parse_primary()
        if self.peek()[0] == "^":
            self.take()
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            tok = self.take("int")
            value = self.power(value, sign * tok[1])
        return value

    def parse_primary(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            return self.constant(tok[1])
        if tok[0] == "name":
            self.take()
            return self.atom(tok[1])
        if tok[0] == "(":
            self.take()
            value = self.parse_expr()
            self.take(")")
            return value
        if tok[0] == "-":
            self.take()
            return -self.parse_factor()
        raise ParseError("unexpected token %r" % (tok[1],), tok[2], tok[3])


def evaluate(text: str, atom, constant, power):
    """Parse and evaluate ``text`` with the supplied semantics."""
    parser = _Parser(tokenize(text), atom, constant, power)
    try:
        value = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nests too deeply") from None
    end = parser.take("end")
    del end
    return value
