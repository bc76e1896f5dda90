"""Text formats shared by the library and the CLI.

Matrix files: a `field Q` or `field GF <p>` header line, a `rows cols`
line, then the row-major entries separated by whitespace (line breaks are
not significant).  Rational entries are written `num/den` or `num`.
A pair file is two such matrix blocks concatenated.  When a caller
supplies a field override it must agree with the header; a block may omit
the header entirely, in which case the override is the sole source of the
field.  Without an override, the second block of a pair must agree with
the first.
"""

from __future__ import annotations

from .errors import FieldMismatch, NotPrime, ParseError
from .fields import GF, QQ, Field, parse_int
from .matrix import Matrix


class _Tokens:
    def __init__(self, text: str):
        self.words = text.split()
        self.pos = 0

    def peek(self) -> str | None:
        return self.words[self.pos] if self.pos < len(self.words) else None

    def next(self, what: str) -> str:
        if self.pos >= len(self.words):
            raise ParseError(f"unexpected end of input while reading {what}")
        word = self.words[self.pos]
        self.pos += 1
        return word

    def take(self, count: int) -> list[str]:
        """The next count words, or as many as are left."""
        words = self.words[self.pos:self.pos + count]
        self.pos += len(words)
        return words

    def next_int(self, what: str) -> int:
        word = self.next(what)
        try:
            return parse_int(word)
        except ValueError as exc:
            raise ParseError(f"expected an integer for {what}, got {word!r}") from exc

    def exhausted(self) -> bool:
        return self.pos >= len(self.words)


def parse_field_words(words: list[str]) -> Field:
    """Interpret ['Q'] or ['GF', '<p>'] as a field."""
    if len(words) == 1 and words[0] == "Q":
        return QQ
    if len(words) == 2 and words[0] == "GF":
        try:
            p = parse_int(words[1])
        except ValueError as exc:
            raise ParseError(f"bad prime {words[1]!r}") from exc
        try:
            return GF(p)
        except NotPrime as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"expected 'Q' or 'GF <p>', got {' '.join(words)!r}")


def field_label(field: Field) -> str:
    return "Q" if field.characteristic == 0 else f"GF {field.characteristic}"


def _parse_block(tokens: _Tokens, override: Field | None) -> Matrix:
    field = None
    if tokens.peek() == "field":
        tokens.next("field keyword")
        name = tokens.next("field name")
        field = parse_field_words([name, tokens.next("field modulus")] if name == "GF" else [name])
        if override is not None and override != field:
            raise FieldMismatch(f"block declares {field} but {override} is required")
    elif override is not None:
        field = override
    else:
        raise ParseError("no field header in file and no field override given")
    nrows = tokens.next_int("row count")
    ncols = tokens.next_int("column count")
    if nrows < 1 or ncols < 1:
        raise ParseError(f"matrix shape {nrows}x{ncols} is not positive")
    # A bad entry is reported before a missing one, as in reading order.
    entries = field.canon_words(tokens.take(nrows * ncols))
    if len(entries) < nrows * ncols:
        tokens.next("matrix entry")
    return Matrix._raw(field, [entries[i:i + ncols] for i in range(0, len(entries), ncols)])


def parse_matrix_text(text: str, override: Field | None = None) -> Matrix:
    tokens = _Tokens(text)
    m = _parse_block(tokens, override)
    if not tokens.exhausted():
        raise ParseError(f"trailing input after matrix: {tokens.peek()!r}")
    return m


def parse_pair_text(text: str, override: Field | None = None) -> tuple[Matrix, Matrix]:
    tokens = _Tokens(text)
    first = _parse_block(tokens, override)
    second = _parse_block(tokens, override if override is not None else first.field)
    if not tokens.exhausted():
        raise ParseError(f"trailing input after pair: {tokens.peek()!r}")
    return first, second


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def parse_matrix_file(path: str, override: Field | None = None) -> Matrix:
    return parse_matrix_text(_read_text(path), override)


def parse_pair_file(path: str, override: Field | None = None) -> tuple[Matrix, Matrix]:
    return parse_pair_text(_read_text(path), override)


def format_matrix(m: Matrix) -> str:
    lines = [f"field {field_label(m.field)}", f"{m.nrows} {m.ncols}"]
    for row in m._rows:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def format_pair(a: Matrix, b: Matrix) -> str:
    return format_matrix(a) + format_matrix(b)


def matrix_strings(m: Matrix) -> list[list[str]]:
    """Entries as exact strings, for JSON payloads."""
    return [[str(x) for x in row] for row in m._rows]
