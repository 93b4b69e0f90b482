"""SQL lexer.

Produces a flat token stream; keywords are recognized case-insensitively at
parse time (any identifier token also carries its upper-cased form).  The
operator set includes the spatiotemporal operators MobilityDB/MobilityDuck
define (``&&``, ``@>``, ``<@``, ``<<``, ``>>``, ``-|-``) — in DuckDB these
are just scalar functions named by their symbol (paper §3.4).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from ..errors import ParserError

# Longest first so that e.g. '<=' wins over '<'.
_OPERATORS = [
    "-|-",
    "::",
    "<=",
    ">=",
    "<>",
    "!=",
    "||",
    "&&",
    "@>",
    "<@",
    "<<",
    ">>",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "(",
    ")",
    ",",
    ".",
    ";",
    "{",
    "}",
    "[",
    "]",
    ":",
    "@",
]


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident', 'qident', 'number', 'string', 'op', 'eof'
    text: str
    pos: int

    @cached_property
    def upper(self) -> str:
        return self.text.upper()


#: One token (or one run of blanks and comments) per match, tried in the
#: order the alternatives are written: a comment before the ``-`` or ``/``
#: operator, ``.5`` before the ``.`` operator; ``open`` is a quote or
#: comment opener that its own alternative could not close.
_TOKEN = re.compile(
    r"""(?P<skip>(?:\s+|--[^\n]*\n?|/\*.*?\*/)+)
      | (?P<string>'(?:[^']|'')*')
      | "(?P<qident>[^"]*)"
      | (?P<open>/\*|'|")
      | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[^\W\d]\w*)
      | (?P<op>%s)
    """ % "|".join(re.escape(op) for op in _OPERATORS),
    re.VERBOSE | re.DOTALL,
)

_UNTERMINATED = {
    "'": "unterminated string literal",
    '"': "unterminated quoted identifier",
    "/": "unterminated block comment",
}


def tokenize(sql: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    match = _TOKEN.match
    while i < n:
        found = match(sql, i)
        if found is None:
            raise ParserError(
                f"unexpected character {sql[i]!r} at position {i}"
            )
        kind = found.lastgroup
        if kind == "open":
            raise ParserError(_UNTERMINATED[sql[i]])
        end = found.end()
        if kind == "string":
            # a string carries the position it ends at
            tokens.append(Token(
                "string", sql[i + 1:end - 1].replace("''", "'"), end
            ))
        elif kind != "skip":
            tokens.append(Token(kind, found.group(kind), i))
        i = end
    tokens.append(Token("eof", "", n))
    return tokens
