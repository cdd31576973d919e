"""The on-disk cache and HTTP adapter shared by completion backends and embedders.

A cache directory holds one append-only log, ``entries.jsonl`` (Bitcask:
Sheehy and Smith, 2010), one entry per line: ``{"key": "<64 hex>", ...}``
then the entry's fields. The key comes first, so that opening the log reads
it at a fixed offset without decoding the line: a scan in bounded blocks
builds an index from key to offset and length, and a hit is one
``os.pread`` and one decode. Line numbers are counted only for an error.

- First wins: of two lines with one key the first counts, and a miss
  appends only if no other writer, thread or process, did meanwhile.
- A last line without a newline can only be left by a crashed writer:
  readers ignore it, and the next writer truncates it.
- A bad line is an :class:`IoFailure` naming ``<log>:<line>``, neither
  refilled nor retried as a miss; a line that does not start with its key
  fails the opening of the log.
- The log is the only file read. With ``inner=None`` the store creates
  nothing, and a directory without a log is an :class:`IoFailure`, whatever
  else it holds; a filling store starts a new log there.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import threading
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator

from .errors import ProcTagError
from .ingest import IoFailure, _raw_decode, unencodable

if TYPE_CHECKING:
    import requests

LOG = "entries.jsonl"
# bytes of the log read at a time while it is scanned
BLOCK = 1 << 20
_KEYED = re.compile(rb'\{"key": "[0-9a-f]{64}", ').match


class Store:
    """The entries of ``cache_dir``'s log, filled from ``inner``; with
    ``inner=None`` it only replays and a miss raises ``error``. An entry is a
    JSON object holding a ``value_type`` under ``value_key``."""

    error: type[ProcTagError] = ProcTagError
    what: str  # names the cache in error messages
    value_key: str
    value_type: type

    def __init__(self, cache_dir: Path | str, inner: Any = None):
        self.cache_dir = Path(cache_dir)
        self.inner = inner
        self.log = self.cache_dir / LOG
        # key -> (offset, length) of its first whole line
        self._index: dict[str, tuple[int, int]] = {}
        self._end = 0  # the indexed prefix of the log
        try:
            if inner is not None:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
            elif not self.log.exists():
                raise IoFailure(f"no {self.what} cache at {self.cache_dir}")
            self._open()
        except OSError as exc:
            raise IoFailure(f"cannot open the {self.what} cache at {self.cache_dir}: "
                            f"{exc}") from exc
        with self._locked(fcntl.LOCK_SH):
            self._catch_up()

    def _open(self) -> None:
        self._file = open(self.log, "rb" if self.inner is None else "a+b", buffering=0)
        self._fd = self._file.fileno()
        self._pid = os.getpid()
        self._mutex = threading.Lock()

    def __del__(self) -> None:
        # dropping the store closes the log; the file object would too, but it warns
        if hasattr(self, "_file"):
            self._file.close()

    @contextmanager
    def _locked(self, op: int) -> Iterator[None]:
        """Hold the log's ``flock`` in mode ``op``, one thread at a time: the
        threads of a process share one lock, which each ``flock`` converts."""
        if self._pid != os.getpid():
            # a forked child shares its parent's open file, and so its lock
            self._file.close()
            self._open()
        with self._mutex:
            fcntl.flock(self._fd, op)
            try:
                yield
            finally:
                fcntl.flock(self._fd, fcntl.LOCK_UN)

    def _catch_up(self) -> int:
        """Index the whole lines past the indexed prefix; returns the log's
        size. Hold the lock: a writer may truncate a torn tail."""
        index, fd = self._index, self._fd
        end, tail = self._end, b""
        try:
            while block := os.pread(fd, BLOCK, end + len(tail)):
                *lines, tail = (tail + block).split(b"\n")
                for line in lines:
                    if not _KEYED(line):
                        raise self._bad(end, line)
                    index.setdefault(line[9:73].decode(), (end, len(line)))
                    end += len(line) + 1
        finally:
            self._end = end
        return end + len(tail)

    def _checked(self, data: bytes) -> dict[str, Any]:
        """The entry of a log line, or a ValueError saying what is wrong with it."""
        # a line this package wrote is one value, which the decoder reads
        # without json.loads' whitespace scans, as ingest.read_jsonl does; any
        # other line goes through json.loads, with its errors. Each decodes
        # strictly: json.loads would pass the bytes of a surrogate
        try:
            text = data.decode("utf-8")
            entry, end = _raw_decode(text)
            written = end == len(text)
        except (ValueError, RecursionError):
            written = False
        if not written:
            try:
                entry = json.loads(data.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
                raise ValueError(f"is not valid JSON: {exc}") from None
        if b"\\u" in data and (reason := unencodable(entry)):
            raise ValueError(reason)
        if not (isinstance(entry, dict) and isinstance(entry.get(self.value_key),
                                                       self.value_type)):
            raise ValueError(f"is not an object with a {self.value_type.__name__} "
                             f"{self.value_key!r}")
        return entry

    def _bad(self, offset: int, data: bytes) -> IoFailure:
        """The error for the log line at ``offset``, which holds ``data``,
        named by its line number: one more than the newlines before it."""
        try:
            self._checked(data)
            reason = "does not start with its 64-hex key"
        except ValueError as exc:
            reason = str(exc)
        line_no = 1 + sum(os.pread(self._fd, min(BLOCK, offset - start), start).count(b"\n")
                          for start in range(0, offset, BLOCK))
        return IoFailure(f"cache entry {self.log}:{line_no} {reason}")

    def _entry(self, key: str) -> Any:
        """The value of the entry named ``key``, or None if the log holds none."""
        hit = self._index.get(key)
        if hit is None:
            # another writer may have appended it since the log was scanned
            with self._locked(fcntl.LOCK_SH):
                self._catch_up()
            hit = self._index.get(key)
            if hit is None:
                return None
        return self._value(*hit)

    def _fill(self, key: str, miss: str, fill: Callable[[Any], dict[str, Any]]) -> Any:
        """The value of the entry named ``key``, which the log lacked:
        ``fill(inner)``, stamped with ``created_at`` and appended, unless
        another writer appended one first. ``miss`` names the key in the
        error of a store that only replays."""
        if self.inner is None:
            raise self.error(f"{miss} in replay-only mode")
        entry = {"key": key, **fill(self.inner),
                 "created_at": datetime.now(timezone.utc).isoformat()}
        hit = self._append(key, (json.dumps(entry, ensure_ascii=False) + "\n").encode())
        return entry[self.value_key] if hit is None else self._value(*hit)

    def _value(self, offset: int, length: int) -> Any:
        """The value of the entry in the log line at ``offset``."""
        data = os.pread(self._fd, length, offset)
        try:
            return self._checked(data)[self.value_key]
        except ValueError:
            raise self._bad(offset, data) from None

    def _append(self, key: str, line: bytes) -> tuple[int, int] | None:
        """Append ``line`` as the entry of ``key``; returns None, or the
        index of the line another writer appended for it first."""
        with self._locked(fcntl.LOCK_EX):
            size = self._catch_up()
            hit = self._index.get(key)
            if hit is not None:
                return hit
            if size > self._end:  # a torn last line
                os.ftruncate(self._fd, self._end)
            try:
                if os.write(self._fd, line) != len(line):
                    raise OSError("short write")
            except OSError as exc:
                os.ftruncate(self._fd, self._end)
                raise IoFailure(f"cannot append to {self.log}: {exc}") from exc
            self._index[key] = (self._end, len(line) - 1)
            self._end += len(line)
        return None


class JsonPost:
    """POSTs JSON to ``url`` or ``$<env>_URL`` with bearer ``api_key`` or
    ``$<env>_KEY``; any failure raises ``error``. ``requests`` is imported only
    when an adapter is built, so offline commands never load it."""

    env: str
    what: str  # names the endpoint in error messages
    error: type[ProcTagError] = ProcTagError

    def __init__(self, url: str | None = None, api_key: str | None = None,
                 timeout: float = 60.0, session: requests.Session | None = None):
        import requests

        self.url = url or os.environ.get(f"{self.env}_URL", "")
        self.api_key = api_key if api_key is not None else os.environ.get(f"{self.env}_KEY")
        self.timeout = timeout
        self._session = session or requests.Session()
        if not self.url:
            raise self.error(f"no {self.what} URL (set {self.env}_URL)")

    def _post(self, payload: dict[str, Any], reply: Callable[[Any], Any]) -> Any:
        import requests

        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        try:
            resp = self._session.post(self.url, json=payload, headers=headers,
                                      timeout=self.timeout)
        except requests.RequestException as exc:
            raise self.error(f"{self.what} transport failure: {exc}") from exc
        if resp.status_code != 200:
            raise self.error(f"{self.what} endpoint returned HTTP {resp.status_code}")
        try:
            return reply(resp.json())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise self.error(f"unexpected {self.what} response: {exc}") from exc
