"""Unit tests for the C-subset lexer."""

import pytest

from repro.errors import LexError
from repro.frontend.lexer import tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source) if t.kind != "eof"]


class TestTokens:
    def test_identifiers_and_keywords(self):
        assert kinds("for foo int bar_2") == [
            ("keyword", "for"), ("ident", "foo"), ("keyword", "int"),
            ("ident", "bar_2"),
        ]

    def test_numbers(self):
        tokens = tokenize("42 0x1F 0")
        assert tokens[0].int_value == 42
        assert tokens[1].int_value == 31
        assert tokens[2].int_value == 0

    def test_maximal_munch_operators(self):
        assert [t for _k, t in kinds("a<<=b")] == ["a", "<<=", "b"]
        assert [t for _k, t in kinds("i++ <= >= == != && ||")] == [
            "i", "++", "<=", ">=", "==", "!=", "&&", "||",
        ]

    def test_positions(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_eof_sentinel(self):
        assert tokenize("")[-1].kind == "eof"


class TestComments:
    def test_line_comment(self):
        assert kinds("a // the rest vanishes\nb") == [("ident", "a"), ("ident", "b")]

    def test_block_comment(self):
        assert kinds("a /* x\n y */ b") == [("ident", "a"), ("ident", "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError, match="unterminated"):
            tokenize("a /* never closed")


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("a @ b")

    def test_malformed_number(self):
        with pytest.raises(LexError, match="malformed number"):
            tokenize("12ab")

    def test_bad_hex(self):
        with pytest.raises(LexError):
            tokenize("0x")

    def test_error_carries_position(self):
        with pytest.raises(LexError) as info:
            tokenize("ok\n   $")
        assert info.value.line == 2
        assert info.value.column == 4

    def test_int_value_on_non_number(self):
        token = tokenize("abc")[0]
        with pytest.raises(LexError):
            token.int_value

    @pytest.mark.parametrize("source, column", [
        ("A[i] = 012;", 8),   # C octal
        ("i < ²", 5),    # isdigit() accepts it, int() does not
        ("x = 1²;", 5),
    ])
    def test_unreadable_literal_is_a_lex_error(self, source, column):
        with pytest.raises(LexError, match="invalid integer literal") as info:
            tokenize(source)
        assert (info.value.line, info.value.column) == (1, column)

    def test_unreadable_literal_through_compile_source(self):
        from repro.frontend import compile_source
        source = ("int A[4];\nvoid k() {\n  int i;\n"
                  "  for (i = 0; i < 4; i++) { A[i] = 012; }\n}\n")
        with pytest.raises(LexError) as info:
            compile_source(source)
        assert (info.value.line, info.value.column) == (4, 36)

    def test_readable_literals_still_lex(self):
        # 00 and a non-ASCII decimal digit are literals int() reads.
        assert [t.int_value for t in tokenize("00 0x0 ٣")[:-1]] == [0, 0, 3]
