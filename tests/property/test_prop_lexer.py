"""Differential test: the lexer against a first-match reference lexer.

:class:`repro.frontend.lexer.Lexer` munches operators by set lookup of
the 3-, 2- then 1-character slice and scans blank, word and comment
spans in one step.  The reference below tries every operator in
:data:`~repro.frontend.lexer.OPERATORS` order with ``startswith`` and
advances one character at a time.  On any input both must yield the
same ``(kind, text, line, column)`` stream, or the same
:class:`~repro.errors.LexError` message and position — except that a
literal ``int(text, 0)`` cannot read (``012``, ``²``) is now a
``LexError`` at the literal, where the reference yields a token.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import LexError
from repro.frontend.lexer import KEYWORDS, OPERATORS, tokenize


def reference_tokens(source):
    """Yield ``(kind, text, line, column)`` up to ``eof``; raise
    ``LexError``."""
    pos, line, column = 0, 1, 1
    while pos < len(source):
        ch = source[pos]
        if ch in " \t\r":
            pos, column = pos + 1, column + 1
        elif ch == "\n":
            pos, line, column = pos + 1, line + 1, 1
        elif source.startswith("//", pos):
            while pos < len(source) and source[pos] != "\n":
                pos, column = pos + 1, column + 1
        elif source.startswith("/*", pos):
            start = (line, column)
            pos, column = pos + 2, column + 2
            while True:
                if pos >= len(source):
                    raise LexError("unterminated block comment", *start)
                if source.startswith("*/", pos):
                    pos, column = pos + 2, column + 2
                    break
                if source[pos] == "\n":
                    pos, line, column = pos + 1, line + 1, 1
                else:
                    pos, column = pos + 1, column + 1
        elif ch.isdigit():
            start = pos
            if source.startswith(("0x", "0X"), pos):
                pos += 2
                while pos < len(source) and \
                        source[pos] in "0123456789abcdefABCDEF":
                    pos += 1
                if pos == start + 2:
                    raise LexError("hex literal needs at least one digit",
                                   line, column)
            else:
                while pos < len(source) and source[pos].isdigit():
                    pos += 1
            text = source[start:pos]
            if pos < len(source) and (source[pos].isalpha()
                                      or source[pos] == "_"):
                raise LexError(f"malformed number {text + source[pos]!r}...",
                               line, column)
            yield "int", text, line, column
            column += pos - start
        elif ch.isalpha() or ch == "_":
            start = pos
            while pos < len(source) and (source[pos].isalnum()
                                         or source[pos] == "_"):
                pos += 1
            text = source[start:pos]
            yield ("keyword" if text in KEYWORDS else "ident"), text, \
                line, column
            column += pos - start
        else:
            for op in OPERATORS:
                if source.startswith(op, pos):
                    yield "op", op, line, column
                    pos, column = pos + len(op), column + len(op)
                    break
            else:
                raise LexError(f"unexpected character {ch!r}", line, column)
    yield "eof", "", line, column


def readable(text):
    try:
        int(text, 0)
    except ValueError:
        return False
    return True


def expected_outcome(source):
    tokens = []
    try:
        for kind, text, line, column in reference_tokens(source):
            if kind == "int" and not readable(text):
                return ("error", f"{line}:{column}: invalid integer "
                        f"literal {text!r}", line, column)
            tokens.append((kind, text, line, column))
    except LexError as error:
        return "error", str(error), error.line, error.column
    return tokens


def outcome(source):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenize(source)]
    except LexError as error:
        return "error", str(error), error.line, error.column


PIECES = sorted(set(OPERATORS)) + [
    "for", "if", "int", "uint8", "x", "_a1", "A", "0", "7", "012", "0x",
    "0X1f", "9", " ", "\t", "\r", "\n", "//", "/*", "*/", "e", "F",
    "@", "$", "`", '"', "\x0b", "²", "٣", "é", "\xa0", "½",
]


class TestAgainstReference:
    @settings(max_examples=600, deadline=None)
    @given(st.lists(st.sampled_from(PIECES), max_size=30).map("".join))
    def test_pieces(self, source):
        assert outcome(source) == expected_outcome(source)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=40))
    def test_any_text(self, source):
        assert outcome(source) == expected_outcome(source)
