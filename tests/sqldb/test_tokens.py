"""Lexer tests."""

import pytest

from repro.errors import SQLSyntaxError
from repro.sqldb.tokens import TokenType, tokenize


def kinds(sql):
    return [t.type for t in tokenize(sql)]


def texts(sql):
    return [t.text for t in tokenize(sql) if t.type is not TokenType.EOF]


class TestBasicTokens:
    def test_keywords_are_case_insensitive(self):
        for variant in ("select", "SELECT", "SeLeCt"):
            token = tokenize(variant)[0]
            assert token.type is TokenType.KEYWORD
            assert token.text == "SELECT"

    def test_identifier(self):
        token = tokenize("my_table")[0]
        assert token.type is TokenType.IDENT
        assert token.value == "my_table"

    def test_identifier_keeps_case(self):
        assert tokenize("MyTable")[0].value == "MyTable"

    def test_integer_literal(self):
        token = tokenize("42")[0]
        assert token.type is TokenType.NUMBER
        assert token.value == 42
        assert isinstance(token.value, int)

    def test_float_literal(self):
        token = tokenize("3.25")[0]
        assert token.value == 3.25
        assert isinstance(token.value, float)

    def test_scientific_notation(self):
        assert tokenize("1e3")[0].value == 1000.0
        assert tokenize("2.5E-2")[0].value == 0.025

    def test_leading_dot_number(self):
        assert tokenize(".5")[0].value == 0.5

    def test_string_literal(self):
        token = tokenize("'hello'")[0]
        assert token.type is TokenType.STRING
        assert token.value == "hello"

    def test_string_with_escaped_quote(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_empty_string(self):
        assert tokenize("''")[0].value == ""

    def test_quoted_identifier(self):
        token = tokenize('"Weird Name"')[0]
        assert token.type is TokenType.IDENT
        assert token.value == "Weird Name"

    def test_eof_is_last(self):
        assert tokenize("SELECT 1")[-1].type is TokenType.EOF


class TestOperators:
    @pytest.mark.parametrize("op", ["=", "<>", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "||"])
    def test_operator(self, op):
        token = tokenize(op)[0]
        assert token.type is TokenType.OPERATOR
        assert token.value == op

    def test_multichar_operator_not_split(self):
        tokens = tokenize("a <= b")
        assert tokens[1].value == "<="

    def test_punctuation(self):
        assert [t.value for t in tokenize("(,);.")[:-1]] == ["(", ",", ")", ";", "."]


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        tokens = tokenize("SELECT 1 -- comment text\n+ 2")
        values = [t.value for t in tokens if t.type is not TokenType.EOF]
        assert values == ["SELECT", 1, "+", 2]

    def test_comment_at_end_of_input(self):
        tokens = tokenize("SELECT 1 -- trailing")
        assert tokens[-1].type is TokenType.EOF

    def test_newlines_and_tabs(self):
        assert texts("SELECT\n\t1") == ["SELECT", "1"]


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'oops")

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(SQLSyntaxError):
            tokenize('"oops')

    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT #")


class TestTokenHelpers:
    def test_is_keyword(self):
        token = tokenize("SELECT")[0]
        assert token.is_keyword("SELECT")
        assert token.is_keyword("SELECT", "FROM")
        assert not token.is_keyword("FROM")

    def test_positions_point_into_source(self):
        sql = "SELECT name FROM t"
        for token in tokenize(sql)[:-1]:
            assert sql[token.pos:].startswith(token.text[0] if token.type is not TokenType.STRING else "'")
