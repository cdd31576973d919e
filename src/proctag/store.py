"""The on-disk cache and HTTP adapter shared by completion backends and embedders."""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from .errors import ProcTagError
from .ingest import atomic_write_text

if TYPE_CHECKING:
    import requests


class Store:
    """``<key>.json`` entries in ``cache_dir`` filled from ``inner``; with
    ``inner=None`` it only replays and a miss raises ``error``."""

    error: type[ProcTagError] = ProcTagError

    def __init__(self, cache_dir: Path | str, inner: Any = None):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.inner = inner

    def _entry(self, key: str, miss: str,
               fill: Callable[[Any], dict[str, Any]]) -> dict[str, Any]:
        """The entry named ``key``; on a miss, ``fill(inner)`` is stamped with
        ``created_at`` and written. ``miss`` names the key in the error."""
        path = self.cache_dir / f"{key}.json"
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            if self.inner is None:
                raise self.error(f"{miss} in replay-only mode") from None
        entry = {**fill(self.inner), "created_at": datetime.now(timezone.utc).isoformat()}
        atomic_write_text(path, json.dumps(entry, ensure_ascii=False))
        return entry


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
