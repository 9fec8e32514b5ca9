"""The one reader behind every instance-file parser.

Every format is a header line of fixed arity followed by blocks of rows.
Blank lines and whole-line '#' comments are skipped everywhere.  A malformed
file raises `ParseError` naming the path and, when one line is at fault, its
1-based number; rows beyond the last block are an error at the first surplus
line.
"""

import contextlib

from ..core import ParseError


class InstanceText:
    """The content lines of one instance file, consumed front to back."""

    def __init__(self, path):
        self.path = path
        with open(path) as fh:
            stripped = (ln.strip() for ln in fh)
            try:
                self._lines = [
                    (lineno, ln) for lineno, ln in enumerate(stripped, start=1)
                    if ln and not ln.startswith("#")
                ]
            except UnicodeDecodeError:
                raise self.error("not a text file") from None
        self._next = 0
        self.header_line = None

    def error(self, message: str, line: int | None = None) -> ParseError:
        return ParseError(f"{self.path}: {message}", line)

    def header(self, layout: str, *casts) -> list:
        """The first content line as exactly one value per cast; `layout`
        names the fields for messages, e.g. "n m p"."""
        if not self._lines:
            raise self.error("empty file")
        self.header_line, ln = self._lines[0]
        self._next = 1
        fields = ln.split()
        if len(fields) != len(casts):
            raise self.error(f"expected '{layout}' header, got {ln!r}", self.header_line)
        try:
            return [cast(tok) for cast, tok in zip(casts, fields)]
        except ValueError:
            raise self.error(f"bad '{layout}' header {ln!r}", self.header_line) from None

    def header_error(self, message: str) -> ParseError:
        """An error about the header's values, named by its line."""
        return self.error(message, self.header_line)

    def rows(self, count: int, width: int, cast, what: str, check=None) -> list:
        """The next `count` content lines, each exactly `width` values.
        `cast` converts every value, or is a tuple with one cast per column;
        `check(row)`, when given, returns what is wrong with a row or None."""
        block = self._lines[self._next : self._next + count]
        if len(block) < count:
            raise self.error(f"expected {count} {what} rows, found {len(block)}")
        self._next += count
        out = []
        for lineno, ln in block:
            fields = ln.split()
            if len(fields) != width:
                raise self.error(f"expected {width} values per {what} row, got {len(fields)}",
                                 lineno)
            try:
                if isinstance(cast, tuple):
                    out.append([c(tok) for c, tok in zip(cast, fields)])
                else:
                    out.append(list(map(cast, fields)))
            except ValueError:
                raise self.error(f"bad {what} row {ln!r}", lineno) from None
            if check is not None:
                fault = check(out[-1])
                if fault is not None:
                    raise self.error(f"{fault} in {ln!r}", lineno)
        return out

    def end(self) -> None:
        """Reject any content line after the declared rows."""
        if self._next < len(self._lines):
            lineno, ln = self._lines[self._next]
            raise self.error(f"unexpected line after the declared rows: {ln!r}", lineno)


@contextlib.contextmanager
def open_instance(path):
    """`with open_instance(path) as text:` reads the file through `text`.

    On leaving the block the file must hold nothing beyond what was read,
    and a `ValueError` raised inside it, such as an instance class's own
    validation, becomes a `ParseError` naming the file."""
    text = InstanceText(path)
    try:
        yield text
    except ParseError:
        raise
    except ValueError as exc:
        raise text.error(str(exc)) from exc
    text.end()
