"""The on-disk cache and HTTP adapter shared by completion backends and embedders."""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from .errors import ProcTagError
from .ingest import IoFailure, atomic_write_text

if TYPE_CHECKING:
    import requests


class Store:
    """``<key>.json`` entries in ``cache_dir`` filled from ``inner``; with
    ``inner=None`` it only replays and a miss raises ``error``. An entry is a
    JSON object holding a ``value_type`` under ``value_key``; any other entry
    is an :class:`IoFailure` naming its file, neither refilled nor retried."""

    error: type[ProcTagError] = ProcTagError
    value_key: str
    value_type: type

    def __init__(self, cache_dir: Path | str, inner: Any = None):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.inner = inner
        # a replay looks up one entry per record: its path is put together as
        # a string, without a pathlib join
        self._prefix = os.path.join(self.cache_dir, "")

    def _entry(self, key: str, miss: str, fill: Callable[[Any], dict[str, Any]]) -> Any:
        """The value of the entry named ``key``; on a miss, ``fill(inner)`` is
        stamped with ``created_at`` and written. ``miss`` names the key in the
        error."""
        path = f"{self._prefix}{key}.json"
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            if self.inner is None:
                raise self.error(f"{miss} in replay-only mode") from None
            entry = {**fill(self.inner), "created_at": datetime.now(timezone.utc).isoformat()}
            atomic_write_text(Path(path), json.dumps(entry, ensure_ascii=False))
            return entry[self.value_key]
        try:
            entry = json.loads(data)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise IoFailure(f"cache entry {path} is not valid JSON: {exc}") from None
        value = entry.get(self.value_key) if isinstance(entry, dict) else None
        if not isinstance(value, self.value_type):
            raise IoFailure(f"cache entry {path} is not an object with a "
                            f"{self.value_type.__name__} {self.value_key!r}")
        return value


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
