"""Lexer for the C subset DEFACTO accepts.

Tokenizes identifiers, integer literals (decimal and hex), the operator
and punctuation set the grammar needs, and strips both ``//`` and
``/* */`` comments.  Every token carries a line/column for error
messages.  An integer literal ``int(text, 0)`` cannot read (C octal
``012``, a non-ASCII digit such as ``²``) is a :class:`LexError` at the
literal, not a later ``ValueError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, List

from repro.errors import LexError

KEYWORDS = frozenset({
    "for", "if", "else", "int", "char", "short", "unsigned",
    "int8", "int16", "int32", "uint8", "uint16", "uint32",
})

# Longest first.  Maximal munch takes the longest operator at the
# position: the lexer looks up the 3-, 2- then 1-character slice.
OPERATORS = (
    "<<=", ">>=",
    "++", "--", "+=", "-=", "*=", "/=", "%=",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "~", "&", "|", "^",
    "(", ")", "[", "]", "{", "}", ";", ",",
)
_OPERATOR_SET = frozenset(OPERATORS)
_OPERATOR_LENGTHS = tuple(sorted({len(op) for op in OPERATORS}, reverse=True))

#: A run of blanks, and a run of ``str.isalnum()`` or ``_`` characters
#: (exactly what ``\w`` matches in a ``str`` pattern).
_BLANKS = re.compile(r"[ \t\r]+")
_WORD = re.compile(r"\w+")


@dataclass(frozen=True)
class Token:
    """One lexical token.

    ``kind`` is ``"ident"``, ``"int"``, ``"keyword"``, ``"op"``, or
    ``"eof"``; ``text`` is the matched source text.
    """

    kind: str
    text: str
    line: int
    column: int

    @property
    def int_value(self) -> int:
        if self.kind != "int":
            raise LexError(f"token {self.text!r} is not an integer", self.line, self.column)
        return int(self.text, 0)

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


class Lexer:
    """Converts source text to a token list ending in an ``eof`` token."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    def tokenize(self) -> List[Token]:
        tokens = list(self._tokens())
        tokens.append(Token("eof", "", self.line, self.column))
        return tokens

    def _tokens(self) -> Iterator[Token]:
        source = self.source
        while self.pos < len(source):
            ch = source[self.pos]
            if ch in " \t\r":
                self._advance(_BLANKS.match(source, self.pos).end() - self.pos)
            elif ch == "\n":
                self._advance_line()
            elif source.startswith("//", self.pos):
                self._skip_line_comment()
            elif source.startswith("/*", self.pos):
                self._skip_block_comment()
            elif ch.isdigit():
                yield self._lex_number()
            elif ch.isalpha() or ch == "_":
                yield self._lex_word()
            else:
                yield self._lex_operator()

    def _advance(self, count: int) -> None:
        self.pos += count
        self.column += count

    def _advance_line(self) -> None:
        self.pos += 1
        self.line += 1
        self.column = 1

    def _skip_line_comment(self) -> None:
        end = self.source.find("\n", self.pos)
        self._advance((len(self.source) if end < 0 else end) - self.pos)

    def _skip_block_comment(self) -> None:
        start_line, start_column = self.line, self.column
        self._advance(2)
        while self.pos < len(self.source):
            if self.source.startswith("*/", self.pos):
                self._advance(2)
                return
            if self.source[self.pos] == "\n":
                self._advance_line()
            else:
                self._advance(1)
        raise LexError("unterminated block comment", start_line, start_column)

    def _lex_number(self) -> Token:
        source, line, column = self.source, self.line, self.column
        start = end = self.pos
        if source.startswith(("0x", "0X"), start):
            end += 2
            while end < len(source) and source[end] in "0123456789abcdefABCDEF":
                end += 1
            if end == start + 2:
                raise LexError("hex literal needs at least one digit", line, column)
        else:
            while end < len(source) and source[end].isdigit():
                end += 1
        self._advance(end - start)
        text = source[start:end]
        # A digit run immediately followed by a letter is a malformed token
        # like 12ab — reject it here rather than confusing the parser.
        if end < len(source) and (source[end].isalpha() or source[end] == "_"):
            raise LexError(f"malformed number {text + source[end]!r}...", line, column)
        try:
            int(text, 0)
        except ValueError:
            raise LexError(f"invalid integer literal {text!r}", line, column) from None
        return Token("int", text, line, column)

    def _lex_word(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        text = _WORD.match(self.source, start).group()
        self._advance(len(text))
        kind = "keyword" if text in KEYWORDS else "ident"
        return Token(kind, text, line, column)

    def _lex_operator(self) -> Token:
        line, column = self.line, self.column
        for length in _OPERATOR_LENGTHS:
            op = self.source[self.pos:self.pos + length]
            if op in _OPERATOR_SET:
                self._advance(len(op))
                return Token("op", op, line, column)
        raise LexError(f"unexpected character {self.source[self.pos]!r}", line, column)


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: lex ``source`` into a token list."""
    return Lexer(source).tokenize()
