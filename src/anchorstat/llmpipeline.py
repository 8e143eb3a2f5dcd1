"""Text embedding against an OpenAI-style ``/embeddings`` endpoint.

Every (model, text) embedding is cached on disk by content hash, so a
rerun with a warm cache performs zero network calls and an interrupted
run resumes with only the texts it had not finished. The HTTP transport
is injectable, which keeps the module testable without a live endpoint.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import EmbeddingMatrix, normalize_rows
from .errors import ParameterError, TransportError

Transport = Callable[[str, dict, dict, float], dict]

# attempts per request, the first backoff (doubled after each failure) and
# the per-request timeout; read at call time, so tests can patch them
MAX_RETRIES = 3
BACKOFF_S = 0.5
TIMEOUT_S = 60.0


def _urllib_transport(url: str, headers: dict, payload: dict, timeout_s: float) -> dict:
    """POST ``payload`` as JSON and return the parsed JSON body; a non-2xx
    status raises ``urllib.error.HTTPError``."""
    import urllib.request  # kept out of module import: it costs ~3 MB of RSS

    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers=headers, method="POST"
    )
    with urllib.request.urlopen(request, timeout=timeout_s) as resp:
        return json.loads(resp.read())


@dataclass
class ClientConfig:
    """Endpoint, credential and cache settings for ``embed_batch``."""

    base_url: str = "http://localhost:8000/v1"
    embed_model: str = "embedding-model"
    api_key_env: str = "LLM_API_KEY"
    cache_dir: Path | str = ".anchorstat-cache"
    embed_batch_size: int = 128
    transport: Transport = field(default=_urllib_transport, repr=False)

    def headers(self) -> dict:
        key = os.environ.get(self.api_key_env, "")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers


def _cache_key(kind: str, **fields) -> str:
    blob = json.dumps({"kind": kind, **fields}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / key[:2] / f"{key}.json"


def _cache_read(cache_dir: Path, key: str):
    """The cached output, or None on a miss. An entry that does not parse,
    or whose output is not a non-empty list of finite floats (such as an
    empty or NaN row an earlier version cached), is a miss: its text is
    fetched again and the entry overwritten."""
    try:
        output = json.loads(_cache_path(cache_dir, key).read_text())["output"]
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        return None
    # every row this module caches is a list of floats
    if type(output) is list and output and all(
        type(v) is float and math.isfinite(v) for v in output
    ):
        return output
    return None


def _cache_write(cache_dir: Path, key: str, output) -> None:
    path = _cache_path(cache_dir, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    # one temporary file per process: runs sharing a cache may write equal keys at once
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({"output": output}, sort_keys=True))
    os.replace(tmp, path)  # atomic on POSIX


def _call_with_retries(config: ClientConfig, url: str, payload: dict) -> list[list[float]]:
    """POST ``payload`` with bounded retries and return the body's embedding
    rows; a body that ``_embedding_rows`` refuses counts as a failed attempt."""
    last_exc: Exception | None = None
    for attempt in range(MAX_RETRIES):
        try:
            doc = config.transport(url, config.headers(), dict(payload), TIMEOUT_S)
            return _embedding_rows(doc)
        except Exception as exc:  # transport failures are provider-specific
            last_exc = exc
            if attempt + 1 < MAX_RETRIES:
                time.sleep(BACKOFF_S * (2**attempt))
    raise TransportError(f"request to {url} failed after {MAX_RETRIES} attempts: {last_exc!r}")


def _embedding_rows(doc: dict) -> list[list[float]]:
    """The rows of a response in index order; indices other than 0..len-1,
    rows of unequal widths, empty rows or a NaN or infinite entry make a
    bad body, retried and never cached."""
    items = sorted(doc["data"], key=lambda d: d["index"])
    if [item["index"] for item in items] != list(range(len(items))):
        raise TransportError(f"embedding indices are not 0..{len(items) - 1}")
    rows = [[float(v) for v in item["embedding"]] for item in items]
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise TransportError(f"embedding rows differ in width: {sorted(widths)}")
    if widths == {0}:
        raise TransportError("embedding rows are empty")
    if not np.isfinite(rows).all():
        raise TransportError("embedding rows hold a NaN or infinite value")
    return rows


def embed_batch(texts: Sequence[str], config: ClientConfig) -> EmbeddingMatrix:
    """Embed every text; row i embeds text i, rows unit-normalized.

    Cached per text hash; only uncached texts touch the endpoint.
    """
    if config.embed_batch_size < 1:
        raise ParameterError(f"embed batch size must be >= 1, got {config.embed_batch_size}")
    texts = list(texts)
    if len(texts) < 2:
        # a matrix needs two rows: refused before the cache or the endpoint is used
        raise ParameterError(f"need at least 2 texts to embed, got {len(texts)}")
    cache_dir = Path(config.cache_dir)
    keys = [_cache_key("embed", model=config.embed_model, text=t) for t in texts]
    vectors: list[list[float] | None] = [_cache_read(cache_dir, k) for k in keys]
    pending = [i for i, v in enumerate(vectors) if v is None]

    url = config.base_url.rstrip("/") + "/embeddings"
    widths = {len(v) for v in vectors if v is not None}
    for start in range(0, len(pending), config.embed_batch_size):
        chunk = pending[start : start + config.embed_batch_size]
        payload = {"model": config.embed_model, "input": [texts[i] for i in chunk]}
        rows = _call_with_retries(config, url, payload)
        if len(rows) != len(chunk):
            raise TransportError(
                f"endpoint returned {len(rows)} embeddings for {len(chunk)} inputs"
            )
        widths.add(len(rows[0]))
        if len(widths) > 1:
            break  # cache nothing of this batch
        for local, vec in zip(chunk, rows):
            vectors[local] = vec
            _cache_write(cache_dir, keys[local], vec)
    if len(widths) > 1:
        raise TransportError(f"cached and fresh embeddings differ in width: {sorted(widths)}")
    matrix = EmbeddingMatrix(values=np.asarray(vectors, dtype=float), label="embedded")
    return normalize_rows(matrix)
