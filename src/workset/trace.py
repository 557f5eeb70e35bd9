"""Memory access trace format: record types, parsing, serialization.

A trace is a line-oriented text stream. Each line is one of:

    I  <hexaddr>,<size>[ t<tid>]     instruction fetch
     L <hexaddr>,<size>[ t<tid>]     data load
     S <hexaddr>,<size>[ t<tid>]     data store
     M <hexaddr>,<size>[ t<tid>]     data modify (read+write, counted once)
    C <id>: <frame>|<frame>|...      call stack declaration
    U <tid> <id>                     thread <tid> now executes under stack <id>
    # ...                            comment (ignored), as are blank lines

Addresses are hex (optional ``0x`` prefix, leading zeros allowed)
below ADDRESS_LIMIT (2**64), sizes are decimal bytes from 1 to
MAX_ACCESS_SIZE, ``t<tid>`` is optional and defaults to thread 0.
Event records are ASCII, and every number is plain ASCII digits: no
signs, no ``_`` separators, no other scripts' digits. Frames may be
any text. Leading whitespace in front of the record tag is not
significant. The event layout is a superset of the memory trace text
produced by common binary instrumentation front ends, so their output
can be piped in directly.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from typing import Iterable, Iterator, TextIO

MAX_ACCESS_SIZE = 65536
"""Largest access size in bytes that an event record may carry. The
engine touches every page an access covers, so without a cap one line
could cost time and memory in proportion to its size field. The cap is
far above what instrumentation front ends emit (a few hundred bytes at
most) and bounds what one line can touch: 17 pages of 4 KiB."""

ADDRESS_LIMIT = 1 << 64
"""Bound every event address must stay below: the address space of a
64-bit front end. Without it, one line of a few thousand hex digits
yields a page number too long for int-to-text conversion."""


class Stream(Enum):
    """The two access streams tracked separately by the analyzer."""

    INSN = "insn"
    DATA = "data"


class AccessKind(Enum):
    """Event kinds; the enum value doubles as the record tag character."""

    INSN_FETCH = "I"
    DATA_LOAD = "L"
    DATA_STORE = "S"
    DATA_MODIFY = "M"


class Struct:
    """Base of the package's record, result and config classes. Each
    lists its fields, in the order its constructor takes them, in
    ``__match_args__`` (so ``match`` takes them by position too), and
    sets them in ``__init__``, through _set_fields where it is not hot.
    Two instances are equal when they are of one class and their fields
    are equal, the repr shows every field, and instances are
    unhashable, as they are mutable."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__match_args__
        return (tuple(getattr(self, name) for name in names)
                == tuple(getattr(other, name) for name in names))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({shown})"

    def _set_fields(self, *values: object) -> None:
        for name, value in zip(self.__match_args__, values, strict=True):
            setattr(self, name, value)


class TraceEvent(Struct):
    """One memory access, as one event line states it: building one
    raises ValueError unless it holds an AccessKind, and int address,
    size and thread within decode_event's bounds. Its call stack is the
    one the last StackActivation before it set for its thread.
    Instances are treated as immutable once handed out."""

    __slots__ = __match_args__ = ("kind", "address", "size", "thread")

    def __init__(self, kind: AccessKind, address: int, size: int, thread: int = 0) -> None:
        if kind.__class__ is not AccessKind:
            field, rule, value = "kind", "an AccessKind", kind
        elif address.__class__ is not int or not 0 <= address < ADDRESS_LIMIT:
            field, rule, value = "address", "an int in 0..2**64-1", address
        elif size.__class__ is not int or not 1 <= size <= MAX_ACCESS_SIZE:
            field, rule, value = "size", f"an int in 1..{MAX_ACCESS_SIZE}", size
        elif thread.__class__ is not int or thread < 0:
            field, rule, value = "thread", "an int >= 0", thread
        elif thread >= ADDRESS_LIMIT and 0 < (digits := _digit_limit()) and thread >= 10**digits:
            field, rule, value = "thread", f"an int of at most {digits} digits", thread
        else:
            self.kind = kind
            self.address = address
            self.size = size
            self.thread = thread
            return
        raise ValueError(f"event {field} must be {rule}, got {_show_field(value)}")


def _digit_limit() -> int:
    """The most decimal digits int() converts from text, as many as a
    ``t<tid>`` field may hold; 0 if there is no limit."""
    # the limit came with Python 3.11 and the 3.10 security releases
    limit = getattr(sys, "get_int_max_str_digits", None)
    return limit() if limit else 0


class CallStackDecl(Struct):
    """Declares call stack ``id`` as a chain of frames, innermost first."""

    __slots__ = __match_args__ = ("id", "frames")

    def __init__(self, id: int, frames: tuple[str, ...]) -> None:
        self.id = id
        self.frames = frames


class StackActivation(Struct):
    """Marks that ``thread`` executes under stack ``stack`` from here on."""

    __slots__ = __match_args__ = ("thread", "stack")

    def __init__(self, thread: int, stack: int) -> None:
        self.thread = thread
        self.stack = stack


class TraceParseError(ValueError):
    """A malformed trace line; carries the 1-based line number if known."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


_KIND_BY_TAG = {k.value: k for k in AccessKind}

LINE_MEMO_SIZE = 65536
"""Entries a LineMemo (read_trace's, and the engine's for trace text)
holds before it is cleared and refilled."""

# the admission rule's constants; see LineMemo
_MEMO_WINDOW = 512
_MEMO_RATIO = 64
_MEMO_FREE = LINE_MEMO_SIZE // 8
_SEEN_BITS = 18
_SEEN_MASK = (1 << _SEEN_BITS) - 1


class LineMemo:
    """A bounded map from trace lines to their decoded value, which
    admits a line on its first miss while the memo is small or earns
    its keep, and on its second miss otherwise.

    A lookup is ``get``, the entries' own bound ``dict.get``, so a hit
    costs one dict lookup and is not counted. A miss is reported to
    ``add`` with the event's number among the event lines so far, and
    only there is the admission rule applied:

    - A window is _MEMO_WINDOW (512) misses. It is bad when it had
      fewer than one hit per _MEMO_RATIO (64) misses, the hits being
      the event lines it spanned minus its misses, and the memo then
      held at least _MEMO_FREE (8192) entries.
    - Until the first bad window and after a window that is not bad,
      every miss is admitted.
    - After a bad window a miss is admitted only if its line missed
      before. A table of 2**18 16-bit fingerprints (512 KB, indexed by
      the low bits of the line's hash) remembers recent misses, and a
      first miss only writes its line's fingerprint. The table is made
      at the first bad window and kept from then on, so a memo that
      never closes costs no more than one that admits every miss.
    - At LINE_MEMO_SIZE entries the memo is cleared before an insert.

    So the memo of a trace whose event lines never repeat holds about
    its first 8700 lines (a window ends every 512 misses) and the
    few lines whose fingerprint matched by chance, about one in 65536
    misses, however long the trace is. While every miss is admitted,
    a line is decoded once, as it is in a loop of up to 8192 lines
    that starts the trace. A loop whose lines miss after a bad window
    is decoded twice: its lines are admitted on their second pass,
    except for those whose fingerprint another line of the loop
    overwrote in between (about one in 9 for a loop of 30000 lines),
    which are admitted on a later pass or after a window that is not
    bad. Whether a repeated line hits the memo thus depends on the lines
    around it, so a caller must get the same result on a hit as on a
    miss. The fingerprint slots come from the str hash, which Python
    salts per process (PYTHONHASHSEED): once the memo has closed, which
    lines share a slot, and so how many lines are decoded and how long
    a run takes, changes from one process to the next. Results do not.

    With ``share`` (the engine's memo), values must be hashable, and
    ``add`` stores a value equal to one the memo already holds as that
    one, found through a second dict cleared with the entries: lines
    that decode alike hold one value. Whatever the trace, the memo holds at most LINE_MEMO_SIZE
    entries, and the table 512 KB more. Full of the engine's entries
    for 20-character lines, the lines included, it takes about 6.5 MB
    when they decode to a few values, as a loop's lines do, and about
    16 MB when no two decode alike (13 MB unshared).
    """

    __slots__ = ("get", "_entries", "_values", "_seen", "_open", "_misses", "_start")

    def __init__(self, share: bool = False) -> None:
        self._entries: dict[str, object] = {}
        self.get = self._entries.get
        # value -> the equal value the entries hold; None unless ``share``
        self._values: dict[object, object] | None = {} if share else None
        self._seen: memoryview | None = None  # made at the first bad window
        self._open = True  # whether every miss is admitted
        self._misses = 0  # misses in the current window
        self._start = 0  # the event number before the window's first event

    def add(self, line: str, value: object, count: int) -> None:
        """Memoize ``value`` for ``line``, a miss at event number
        ``count``, if the admission rule admits it. Event numbers must
        increase from call to call."""
        misses = self._misses + 1
        if misses < _MEMO_WINDOW:
            self._misses = misses
        else:
            self._misses = 0
            self._open = ((count - self._start - misses) * _MEMO_RATIO >= misses
                          or len(self._entries) < _MEMO_FREE)
            self._start = count
            if not self._open and self._seen is None:
                # pages of an anonymous map count only once written;
                # imported here, so traces that never need one pay
                # nothing for the module
                from mmap import mmap

                self._seen = memoryview(mmap(-1, 2 << _SEEN_BITS)).cast("H")
        if not self._open:
            h = hash(line)
            slot = h & _SEEN_MASK
            mark = (h >> _SEEN_BITS) & 0xFFFF
            seen = self._seen
            if seen[slot] != mark:
                seen[slot] = mark
                return
        entries = self._entries
        values = self._values
        if len(entries) >= LINE_MEMO_SIZE:
            entries.clear()
            if values is not None:
                values.clear()
        entries[line] = value if values is None else values.setdefault(value, value)


# the ASCII characters str.split() splits on; an event record is ASCII
_WS = "[ \t\n\x0b\x0c\r\x1c-\x1f]"
_match_event = re.compile(
    rf"{_WS}*([ILSM]){_WS}+(?:0[xX])?([0-9a-fA-F]+),([0-9]+)(?:{_WS}+t([0-9]+))?{_WS}*"
).fullmatch


def decode_event(line: str) -> tuple[str, int, int, int] | None:
    """The fields ``(tag, address, size, thread)`` of an event record
    line, or None when ``line`` is not a well-formed event record. This
    is the event grammar's one definition: parse_line and the engine's
    text path both decode events through it."""
    m = _match_event(line)
    if m is None:
        return None
    tag, address, size, thread = m.groups()
    try:
        size = int(size)
        thread = int(thread) if thread else 0
    except ValueError:  # more digits than int() converts
        return None
    address = int(address, 16)
    if not 1 <= size <= MAX_ACCESS_SIZE or address >= ADDRESS_LIMIT:
        return None
    return tag, address, size, thread


# most characters of malformed input that an error message quotes, so
# a long junk line or flag value costs a bounded amount of error text
_EXCERPT_LIMIT = 80
# an integer this large or larger is shown by its bit length
_SHOW_INT_LIMIT = 10**20
_find_nonspace = re.compile(r"\S").search


def excerpt(text: str) -> str:
    """``text`` stripped and quoted, cut to _EXCERPT_LIMIT characters
    plus ``...``; only that prefix of ``text`` is copied."""
    m = _find_nonspace(text)
    start = m.start() if m else len(text)
    head = text[start:start + _EXCERPT_LIMIT]
    if _find_nonspace(text, start + _EXCERPT_LIMIT):
        return repr(head) + "..."
    return repr(head.rstrip())


def show_int(value: int | float) -> str:
    """``value`` for an error message: an int in decimal up to 20
    digits, else as its bit length, so the message stays short and
    never meets the digit limit of int-to-text conversion; any other
    number as str gives it."""
    if not isinstance(value, int) or -_SHOW_INT_LIMIT < value < _SHOW_INT_LIMIT:
        return str(value)
    sign = "negative " if value < 0 else ""
    return f"a {sign}{value.bit_length()}-bit integer"


def _show_field(value: object) -> str:
    """A record field for an error message: an int through show_int,
    anything else by its type."""
    return show_int(value) if value.__class__ is int else f"a {value.__class__.__name__}"


def check_type(name: str, value: object, types: tuple[type, ...], what: str) -> None:
    """Raise a ValueError that names ``name`` unless the class of
    ``value`` is one of ``types`` (so a bool is no int)."""
    if value.__class__ not in types:
        raise ValueError(f"{name} must be {what}, got {_show_field(value)}")


def check_int(name: str, value: object, minimum: int | None = 1) -> None:
    """Raise a ValueError that names ``name`` unless ``value`` is an int
    (a bool is not one) and, when ``minimum`` is given, at least that."""
    check_type(name, value, (int,), "an int")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {show_int(value)}")


def check_page_size(value: object, largest_bits: int, smallest: int = 1) -> None:
    """Raise a ValueError unless ``value`` is an int power of two from
    ``smallest`` up to ``2**largest_bits``."""
    check_int("page_size", value, minimum=None)
    if value < smallest or value & (value - 1) or value > 1 << largest_bits:
        low = f"from {smallest} " if smallest > 1 else ""
        raise ValueError(f"page_size must be a power of two {low}up to 2**{largest_bits}, "
                         f"got {show_int(value)}")


def _decimal(text: str) -> int | None:
    """The value of a field of ASCII digits 0-9, else None."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


def parse_line(
    line: str, lineno: int | None = None
) -> TraceEvent | CallStackDecl | StackActivation | None:
    """Decode a single trace line.

    Returns None for blank lines and comments. Raises TraceParseError
    on anything that is not part of the grammar.
    """
    fields = decode_event(line)
    if fields is not None:
        tag, address, size, thread = fields
        return TraceEvent(_KIND_BY_TAG[tag], address, size, thread)
    # split() also swallows the newline and leading indentation; three
    # splits find the tag and a U line's fields, and keep the token list
    # short however many words the line holds
    parts = line.split(None, 3)
    if not parts:
        return None
    tag = parts[0]
    if tag[0] == "#":
        return None
    if tag in _KIND_BY_TAG:
        raise TraceParseError(
            f"malformed event record {excerpt(line)}: expected "
            f"'<hexaddr>,<size>[ t<tid>]' in ASCII, address below 2**64, "
            f"size 1..{MAX_ACCESS_SIZE}",
            lineno,
        )
    if tag == "C":
        head, sep, rest = line.strip().partition(":")
        ident = _decimal(head[1:].strip())
        if not sep or ident is None:
            raise TraceParseError(
                f"malformed call stack declaration {excerpt(line)}", lineno
            )
        if not rest.isascii():
            # frames may be any text, but not undecodable input bytes,
            # which a reader opened with errors="surrogateescape" passes
            # through as lone surrogates
            try:
                rest.encode("utf-8")
            except UnicodeEncodeError:
                raise TraceParseError(
                    "call stack declaration is not valid UTF-8", lineno
                ) from None
        frames = tuple(f.strip() for f in rest.split("|"))
        if not all(frames):
            raise TraceParseError("call stack declaration with empty frame", lineno)
        return CallStackDecl(ident, frames)
    if tag == "U":
        if len(parts) == 3:
            thread, stack = _decimal(parts[1]), _decimal(parts[2])
            if thread is not None and stack is not None:
                return StackActivation(thread, stack)
        raise TraceParseError(f"malformed stack activation {excerpt(line)}", lineno)
    raise TraceParseError(f"unknown record tag {excerpt(tag)}", lineno)


def parse_record(
    line: str,
    lineno: int,
    stacks: dict[int, tuple[str, ...]],
    strict: bool,
) -> TraceEvent | CallStackDecl | StackActivation | None:
    """parse_line plus the checks that need the stacks declared so far:
    a declaration's frames go into ``stacks`` (id -> frames), and an
    activation must name a declared stack.

    Returns the record the line holds, or None when it holds none. A
    malformed line, a duplicate stack id or the activation of an
    undeclared stack raises TraceParseError in strict mode; in lenient
    mode the line is skipped with a logged warning.
    """
    try:
        rec = parse_line(line, lineno)
        cls = rec.__class__
        if cls is CallStackDecl:
            if rec.id in stacks:
                raise TraceParseError(f"duplicate call stack id {show_int(rec.id)}", lineno)
            stacks[rec.id] = rec.frames
        elif cls is StackActivation and rec.stack not in stacks:
            raise TraceParseError(f"activation of undeclared stack id {show_int(rec.stack)}",
                                  lineno)
        return rec
    except TraceParseError as exc:
        if strict:
            raise
        # imported here, like LineMemo's mmap: a run that skips no line
        # does not load logging and the modules it pulls in
        import logging

        logging.getLogger(__name__).warning("skipping malformed trace line: %s", exc)
        return None


def read_trace(
    lines: Iterable[str], strict: bool = True
) -> Iterator[TraceEvent | CallStackDecl | StackActivation]:
    """Stream records out of a line iterable (an open file works).

    Yields one record per event, ``C`` or ``U`` line, in order: a
    TraceEvent, a CallStackDecl or a StackActivation. Which stack an
    event ran under is left to the consumer, which follows the
    activations per thread (run_analysis does). Memory use is bounded
    by the number of distinct declared stacks, not trace length, so
    arbitrarily long traces can be piped through.

    In strict mode (default) malformed lines raise TraceParseError; in
    lenient mode they are skipped with a logged warning.

    Traces of looping programs repeat event lines heavily, so event
    lines go through a LineMemo: a repeat of an admitted line yields
    the event its earlier occurrence was parsed into, without building
    a new object. Events are context-free, which makes the
    memo invisible apart from the speedup and the sharing of equal
    events; which repeats share an event object depends on the memo's
    admission rule.

    This is the record API for library users. To analyze trace text,
    run_analysis takes the lines themselves and skips building the
    records.
    """
    stacks: dict[int, tuple[str, ...]] = {}
    memo = LineMemo()
    memo_get = memo.get
    others = 0  # lines that are not events, which never hit the memo
    for lineno, raw in enumerate(lines, 1):
        rec = memo_get(raw)
        if rec is None:
            rec = parse_record(raw, lineno, stacks, strict)
            if rec.__class__ is TraceEvent:
                memo.add(raw, rec, lineno - others)
            else:
                others += 1
                if rec is None:
                    continue
        yield rec


def stack_line(rec: CallStackDecl | StackActivation, stacks: dict[int, tuple[str, ...]]) -> str:
    """The line, without its newline, that states ``rec``, read back
    through parse_record against ``stacks`` (id -> frames), which a
    declaration joins. Raises ValueError when no line states ``rec``,
    TypeError when it is not a stack record."""
    try:
        if rec.__class__ is CallStackDecl:
            line = f"C {rec.id}: {'|'.join(rec.frames)}"
            # frames compare as a tuple, whatever sequence holds them
            rec = CallStackDecl(rec.id, tuple(rec.frames))
        elif rec.__class__ is StackActivation:
            line = f"U {rec.thread} {rec.stack}"
        else:
            raise TypeError(f"{rec.__class__.__name__} is not a trace record")
    except ValueError:
        # an int past the digit limit of int-to-text conversion
        shown = ", ".join(f"{name}={_show_field(getattr(rec, name))}"
                          for name in rec.__match_args__)
        raise ValueError(
            f"invalid stack record {rec.__class__.__name__}({shown}): "
            "a number too long to write as text"
        ) from None
    try:
        # a text-mode reader splits a line at "\r" too
        if "\n" in line or "\r" in line or parse_record(line, None, stacks, strict=True) != rec:
            raise ValueError("it reads back as a different record")
    except ValueError as exc:
        raise ValueError(f"invalid stack record {excerpt(line)}: {exc}") from None
    return line


def write_trace(
    records: Iterable[TraceEvent | CallStackDecl | StackActivation], out: TextIO
) -> None:
    """Serialize records to ``out`` in the trace text format, one line
    per record: the line-for-line inverse of read_trace, so a
    read/write round trip reproduces the record sequence exactly, and
    a write/read round trip the canonical text. An event holds only
    what a line can; a ``C`` or ``U`` line comes from stack_line, which
    raises ValueError for a record the format cannot hold.
    """
    stacks: dict[int, tuple[str, ...]] = {}
    write = out.write
    insn_fetch = AccessKind.INSN_FETCH
    for rec in records:
        if rec.__class__ is TraceEvent:
            head = "I  " if rec.kind is insn_fetch else f" {rec.kind.value} "
            tail = f" t{rec.thread:d}\n" if rec.thread else "\n"
            write(f"{head}{rec.address:08x},{rec.size:d}{tail}")
        else:
            write(stack_line(rec, stacks) + "\n")
