"""Matrix and pair text formats."""

import sys

import pytest

from matcanon import GF, QQ, FieldMismatch, Matrix, ParseError
from matcanon.fields import PrimeField, Rationals
from matcanon.fileio import (
    field_label,
    format_matrix,
    format_pair,
    matrix_strings,
    parse_field_words,
    parse_matrix_text,
    parse_pair_text,
)


class TestFieldHeader:
    def test_labels(self):
        assert field_label(QQ) == "Q"
        assert field_label(GF(13)) == "GF 13"

    def test_parse_words(self):
        assert parse_field_words(["Q"]) == QQ
        assert parse_field_words(["GF", "7"]) == GF(7)

    def test_bad_field(self):
        with pytest.raises(ParseError):
            parse_field_words(["R"])
        with pytest.raises(ParseError):
            parse_field_words(["GF", "six"])
        with pytest.raises(ParseError):
            parse_field_words(["GF", "6"])


class TestMatrixFormat:
    def test_round_trip_q(self):
        m = Matrix(QQ, [["1/2", -3], [0, "7/5"]])
        assert parse_matrix_text(format_matrix(m)) == m

    def test_round_trip_gf(self):
        m = Matrix(GF(7), [[0, 1, 2], [3, 4, 5]])
        assert parse_matrix_text(format_matrix(m)) == m

    def test_entries_span_lines(self):
        text = "field Q\n2 2\n1 2\n3 4\n"
        flat = "field Q 2 2 1 2 3 4"
        assert parse_matrix_text(text) == parse_matrix_text(flat)

    def test_missing_entries(self):
        with pytest.raises(ParseError):
            parse_matrix_text("field Q\n2 2\n1 2 3\n")

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_matrix_text("field Q\n1 1\n5\nextra")

    def test_bad_shape(self):
        with pytest.raises(ParseError):
            parse_matrix_text("field Q\n0 2\n")

    def test_no_header_needs_override(self):
        with pytest.raises(ParseError):
            parse_matrix_text("2 2\n1 0\n0 1\n")
        m = parse_matrix_text("2 2\n1 0\n0 1\n", override=GF(3))
        assert m == Matrix.identity(GF(3), 2)

    def test_override_must_match_header(self):
        text = "field Q\n1 1\n4\n"
        assert parse_matrix_text(text, override=QQ) == Matrix(QQ, [[4]])
        with pytest.raises(FieldMismatch):
            parse_matrix_text(text, override=GF(5))

    def test_negative_entries_mod_p(self):
        m = parse_matrix_text("field GF 5\n1 2\n-1 7\n")
        assert m == Matrix(GF(5), [[4, 2]])

    def test_strings_payload(self):
        m = Matrix(QQ, [["1/2", 3]])
        assert matrix_strings(m) == [["1/2", "3"]]


class TestPairFormat:
    def test_round_trip(self):
        a = Matrix(GF(7), [[1, 1], [0, 6]])
        b = Matrix(GF(7), [[2, 0], [4, 5]])
        got_a, got_b = parse_pair_text(format_pair(a, b))
        assert got_a == a and got_b == b

    def test_field_mismatch_between_blocks(self):
        text = "field Q\n1 1\n1\nfield GF 5\n1 1\n1\n"
        with pytest.raises(FieldMismatch):
            parse_pair_text(text)

    def test_second_block_inherits_field(self):
        text = "field GF 5\n1 1\n1\n1 1\n2\n"
        a, b = parse_pair_text(text)
        assert a.field == b.field == GF(5)


class TestIntegerLiterals:
    """Integers are ASCII [+-]?[0-9]+: no underscores, no non-ASCII digits."""

    @pytest.mark.parametrize("text", [
        "field GF 1_0007\n1 1\n1\n",
        "field Q\n1 1\n\u0663\n",
        "field GF 7\n1 1\n\u0663\n",
        "field Q\n1_0 1\n" + "1 " * 10,
        "field Q\n1 \uff11\n1\n",
        "field Q\n1 1\n1_0/3\n",
        "field Q\n1 1\n3/\u0663\n",
        "field Q\n1 1\n+-3\n",
        "field GF 7\n1 1\n0x1\n",
        "field GF 7\n1 1\n\u00b2\n",
    ])
    def test_refused(self, text):
        with pytest.raises(ParseError):
            parse_matrix_text(text)

    def test_signs_accepted(self):
        assert parse_matrix_text("field Q 1 2 -3/+4 +5") == Matrix(QQ, [["-3/4", 5]])
        assert parse_matrix_text("field GF +7 1 1 +9") == Matrix(GF(7), [[2]])

    @pytest.mark.parametrize("field, text", [
        (QQ, "1_0"), (QQ, "\u0663"), (QQ, "1/2_0"), (GF(7), "1_0"), (GF(7), "\u0663"),
    ])
    def test_field_literals_refused(self, field, text):
        with pytest.raises(ParseError):
            field(text)

    def test_field_words_refused(self):
        with pytest.raises(ParseError):
            parse_field_words(["GF", "1_3"])
        with pytest.raises(ParseError):
            parse_field_words(["GF", "\u0661\u0663"])

    @pytest.mark.parametrize("word", ["x" * 5000, "1" * 5000 + "x", "3/" + "y" * 5000])
    def test_long_bad_word_is_cut(self, word):
        for text in (f"field Q 1 1 {word}", f"field GF 7 1 1 {word}", f"field Q {word} 1 1",
                     f"field GF {word} 1 1 1"):
            with pytest.raises(ParseError) as exc:
                parse_matrix_text(text)
            assert len(str(exc.value)) < 100 and repr(word[:40]) + "..." in str(exc.value)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no int <-> str digit limit")
    def test_literal_over_the_digit_limit(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the default of CPython
        try:
            big = "9" * 5000
            for text in (f"field Q 1 1 {big}", f"field Q 1 1 -1/{big}", f"field GF 7 1 1 +{big}",
                         f"field Q 1 {big} 1"):
                with pytest.raises(ParseError, match="5000 digits is over CPython's int digit limit of 4300"):
                    parse_matrix_text(text)
            assert parse_matrix_text("field Q 1 1 " + "9" * 4300) == Matrix(QQ, [[10 ** 4300 - 1]])
        finally:
            sys.set_int_max_str_digits(saved)


def outcome(text):
    try:
        return parse_matrix_text(text)
    except (ParseError, FieldMismatch) as exc:
        return type(exc), str(exc)


def canon_each(field, words):
    """The reference of Field.canon_words: canon on each word in order."""
    return [field.canon(w) for w in words]


class TestBulkEntries:
    """GF(p) reads a block's entries in one pass (Field.canon_words);
    every matrix and every message is that of canon on each entry in
    reading order, so a bad entry is reported before a missing one."""

    @pytest.mark.parametrize("text", [
        "field GF 7\n2 2\n1 2 -3 +40\n",
        "field GF 7\n2 2\n1 x 3 4\n",
        "field GF 7\n2 2\n1 2 3\n",
        "field GF 7\n2 2\n1 x\n",
        "field GF 7\n2 2\n1 2 3 4_0\n",
        "field GF 7\n1 2\n\u0663 y\n",
        "field GF 7\n1 2\n1 " + "9" * 5000 + "\n",
        "field GF 10007\n3 3\n" + " ".join(str(k * 997) for k in range(9)) + "\n",
        "field GF 2\n1 1\n-1\n",
    ])
    def test_same_as_canon_per_entry(self, text, monkeypatch):
        got = outcome(text)
        monkeypatch.setattr(PrimeField, "canon_words", canon_each)
        assert got == outcome(text)

    @pytest.mark.parametrize("text", [
        "field Q\n2 2\n1 -2 +30 -0\n",
        "field Q\n1 2\n-" + "9" * 60 + " " + "1" + "0" * 80 + "\n",
        "field Q\n2 2\n1 2/3 -4 -5/-6\n",
        "field Q\n1 3\n7 -1/2 1/0\n",
        "field Q\n1 3\n1 1.5 x\n",
        "field Q\n1 3\n1 1_000 1.5\n",
        "field Q\n1 3\n1 0x10 1_000\n",
        "field Q\n1 3\n1 + 2\n",
        "field Q\n1 3\n1 2 \u0663\n",
        "field Q\n1 2\n1 " + "9" * 5000 + "\n",
        "field Q\n2 2\n1 2 3\n",
    ])
    def test_q_same_as_canon_per_entry(self, text, monkeypatch):
        """Q reads integer words in one pass (Field.canon_words); a
        fraction or a bad word sends the block through canon."""
        got = outcome(text)
        monkeypatch.setattr(Rationals, "canon_words", canon_each)
        assert got == outcome(text)
