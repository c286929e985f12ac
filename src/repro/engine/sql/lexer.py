"""Tokenizer for the SQL dialect.

Regex-driven, case-insensitive keywords, with positions preserved for error
messages.  Strings use single quotes with ``''`` escaping, comments run
from ``--`` to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from ...errors import SqlLexError

__all__ = ["Token", "tokenize", "KEYWORDS"]

KEYWORDS = {
    "CREATE", "TABLE", "DROP", "INDEX", "PROB", "ON",
    "INSERT", "INTO", "VALUES", "DELETE", "FROM",
    "UPDATE", "SET", "GROUP", "DISTINCT", "BETWEEN", "IN",
    "BEGIN", "COMMIT", "ROLLBACK", "TRANSACTION",
    "SELECT", "WHERE", "AND", "OR", "NOT", "AS",
    "ORDER", "BY", "ASC", "DESC", "LIMIT", "OFFSET", "EXPLAIN", "ANALYZE", "IS",
    "INT", "INTEGER", "REAL", "FLOAT", "DOUBLE", "BOOL", "BOOLEAN", "TEXT", "VARCHAR",
    "UNCERTAIN", "DEPENDENCY",
    "NULL", "TRUE", "FALSE",
    "COUNT", "SUM", "EXPECTED", "MIN", "MAX",
    "MEAN", "VARIANCE", "MASS",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|!=|<>|=|<|>)
  | (?P<punct>[(),;:.*\[\]+-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # KEYWORD | NAME | NUMBER | STRING | OP | PUNCT | EOF
    value: str
    position: int

    def matches(self, kind: str, value: str = "") -> bool:
        if self.kind != kind:
            return False
        return not value or self.value.upper() == value.upper()


def tokenize(sql: str) -> List[Token]:
    """Tokenize a statement; raises :class:`SqlLexError` on junk."""
    tokens: List[Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise SqlLexError(
                f"unexpected character {sql[pos]!r} at position {pos}", pos
            )
        kind = match.lastgroup
        text = match.group()
        if kind == "ws" or kind == "comment":
            pos = match.end()
            continue
        if kind == "name":
            upper = text.upper()
            token_kind = "KEYWORD" if upper in KEYWORDS else "NAME"
            tokens.append(Token(token_kind, text, pos))
        elif kind == "number":
            tokens.append(Token("NUMBER", text, pos))
        elif kind == "string":
            tokens.append(Token("STRING", text[1:-1].replace("''", "'"), pos))
        elif kind == "op":
            value = "!=" if text == "<>" else text
            tokens.append(Token("OP", value, pos))
        else:  # punct
            tokens.append(Token("PUNCT", text, pos))
        pos = match.end()
    tokens.append(Token("EOF", "", len(sql)))
    return tokens
