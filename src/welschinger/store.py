"""The persistent store of exact values: a text file, one record per line,
sorted by key (README, cache file format).

A run reads only the records of the surfaces it evaluates, found as one
range of the file, from the first line that starts with a surface's id
and "|" to the last; a file whose lines are out of order is read too, by
picking the surfaces' lines out of that range.  The file, its header and
its record count are checked whole.  A save reads the file again and
writes the other surfaces' lines back byte for byte, so a concurrent
writer of another surface loses its records only if it saves between
that read and this save's rename."""

import contextlib
import os
import re
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import CacheError

Store = Dict[str, int]

CACHE_HEADER = "WELSCHINGER-CACHE v1"

# Records as Evaluator.dump writes them, one per line:
# <surface id>|<class>|<alpha>|<beta>\t<value>, the class in either lattice's
# syntax (d;m1,...,m6 or d1,d2,d3), a vector 0 or k:c,k:c,...  Every field
# ends at a character its class excludes, so a match never backtracks far.
# The patterns are compiled on first use (the re module caches them).
_INT = r"-?[0-9]+"
_VECTOR = r"(?:0|[0-9]+:[0-9]+(?:,[0-9]+:[0-9]+)*)"
_CLASS = rf"{_INT}(?:;{_INT}(?:,{_INT}){{5}}|,{_INT},{_INT})"
_RECORD = rf"{_CLASS}\|{_VECTOR}\|{_VECTOR}\t{_INT}(?:\n|\Z)"
_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # splitlines' other line ends


def _records(path: str, *, missing_ok: bool) -> str:
    """The record lines of a store file, each after a newline, once the file
    reads as UTF-8 and its header and record count check out.  Line ends
    are those of str.splitlines, as the line numbers of errors count them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        if missing_ok and isinstance(exc, FileNotFoundError):
            return ""
        raise CacheError(f"cannot read cache file {path!r}: {exc}") from None
    if any(c in text for c in _BREAKS):
        text = "\n".join(text.splitlines())
    elif text.endswith("\n"):
        text = text[:-1]
    if text[: len(CACHE_HEADER) + 1].rstrip("\n") != CACHE_HEADER:
        raise CacheError(f"unsupported cache header in {path!r}")
    last = text.rfind("\n")
    if not text.startswith("#count=", last + 1):
        raise CacheError(f"cache file {path!r} is truncated (missing record count)")
    try:
        count = int(text[last + 8:])
    except ValueError:
        raise CacheError(f"cache file {path!r} has a malformed record count") from None
    records = text[len(CACHE_HEADER):last]
    n = records.count("\n")
    if n != count:
        raise CacheError(f"cache file {path!r} is truncated: "
                         f"{n} records, trailer says {count}")
    return records


def _section(records: str, ids: List[str]) -> Tuple[int, int, str, str]:
    """The range of records from the first to the last line of the given
    surfaces, and its lines of those surfaces and of others, each after a
    newline.  In a sorted file the range holds no other line: then its
    newlines are as many as its surfaces' line starts."""
    heads = [f"\n{sid}|" for sid in ids]
    start = min((i for i in map(records.find, heads) if i >= 0), default=0)
    end = records.find("\n", max(map(records.rfind, heads), default=-1) + 1)
    end = len(records) if end < 0 else end
    body = records[start:end]
    if body.count("\n") == sum(map(body.count, heads)):
        return start, end, body, ""
    own = re.compile(rf"\n(?:{'|'.join(map(re.escape, ids))})\|[^\n]*")
    return start, end, "".join(own.findall(body)), own.sub("", body)


def cache_save(
    store: Store, path: str, *, surface_ids: Optional[Iterable[str]] = None
) -> None:
    """Write the store through a temporary file in the same directory, so a
    failed or interrupted save leaves the old file as it was.

    With surface_ids the store holds only those surfaces' records: the
    file is read again, with cache_load's whole-file checks (a missing file
    holds no record), and its lines of every other surface are written
    back byte for byte.  The lines are sorted, which for valid keys is the
    order of the keys (a tab sorts below every key character), so the
    bytes are those of a whole-store save."""
    if surface_ids is None:
        lines = [f"{key}\t{store[key]}" for key in sorted(store)]
    else:
        records = _records(path, missing_ok=True)
        start, end, _, other = _section(records, sorted(surface_ids))
        rest = records[:start] + other + records[end:]
        lines = sorted(rest.split("\n")[1:] + [f"{k}\t{v}" for k, v in store.items()])
    text = "\n".join([CACHE_HEADER, *lines, f"#count={len(lines)}"]) + "\n"
    target = os.path.realpath(path)  # a symlinked store stays a link
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise CacheError(f"cannot write cache file {path!r}: {exc}") from None
        raise


def cache_load(path: str, *, surface_ids: Optional[Iterable[str]] = None) -> Store:
    """Read the records of the given surfaces (none from a missing file), or
    of all without surface_ids.  A malformed record among them is refused,
    named by its line in the file; other surfaces' lines are not checked."""
    records = _records(path, missing_ok=surface_ids is not None)
    if surface_ids is None:
        start, end, own = 0, len(records), records
        bad = rf"\n(?![^|\t\n]+\|{_RECORD})"  # a newline before a bad line
    else:
        ids = sorted(surface_ids)
        start, end, own, _ = _section(records, ids)
        bad = rf"\n(?:{'|'.join(map(re.escape, ids))})\|(?!{_RECORD})"
    found = re.compile(bad).search(records, start, end)
    if found:
        lineno = records.count("\n", 0, found.start()) + 2
        raise CacheError(f"malformed cache record at line {lineno}")
    fields = own.replace("\t", "\n").split("\n")  # "", key, value, key, ...
    try:
        return dict(zip(fields[1::2], map(int, fields[2::2])))
    except ValueError as exc:  # more digits than int() converts
        raise CacheError(f"malformed cache value in {path!r}: {exc}") from None
