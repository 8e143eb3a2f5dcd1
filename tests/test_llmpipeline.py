import json
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from anchorstat import llmpipeline
from anchorstat.cli import main
from anchorstat.errors import ParameterError, TransportError
from anchorstat.llmpipeline import ClientConfig, _cache_key, _urllib_transport, embed_batch


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    # retries sleep BACKOFF_S, 2*BACKOFF_S, ... between attempts
    monkeypatch.setattr(llmpipeline, "BACKOFF_S", 0.0)


class FakeEmbed:
    """Transport double: returns a fixed unit vector per input."""

    def __init__(self, dim=4):
        self.calls = 0
        self.seen = []
        self.dim = dim

    def __call__(self, url, headers, payload, timeout_s):
        self.calls += 1
        assert url.endswith("/embeddings")
        self.seen.extend(payload["input"])
        vec = [1.0] + [0.0] * (self.dim - 1)
        return {
            "data": [
                {"index": i, "embedding": vec} for i in range(len(payload["input"]))
            ]
        }


def _config(tmp_path, transport, **kw):
    return ClientConfig(
        base_url="http://fake/v1", cache_dir=tmp_path / "cache", transport=transport, **kw
    )


def test_cache_key_sensitivity():
    base = dict(model="m", text="hello")
    k = _cache_key("embed", **base)
    assert _cache_key("embed", **base) == k
    assert _cache_key("embed", **{**base, "model": "n"}) != k
    assert _cache_key("embed", **{**base, "text": "hello "}) != k


def test_cache_key_is_pinned():
    # the key names the cache file: a change would orphan every existing cache
    key = _cache_key("embed", model="embedding-model", text="hello")
    assert key == "3023952dc2d8d5bab09484fb59b3a851a6a61ab2e8546269d26a7b26d5a9f8d9"


def test_embed_fixed_vector_rows(tmp_path):
    fake = FakeEmbed()
    m = embed_batch(["a", "b", "c"], _config(tmp_path, fake))
    assert (m.n, m.p) == (3, 4)
    np.testing.assert_allclose(np.linalg.norm(m.values, axis=1), 1.0, atol=1e-9)
    np.testing.assert_array_equal(m.values[0], m.values[1])


def test_embed_mixed_cache_only_uncached_hit_endpoint(tmp_path):
    cfg = _config(tmp_path, FakeEmbed())
    embed_batch(["a", "b"], cfg)
    fake2 = FakeEmbed()
    cfg2 = _config(tmp_path, fake2)
    m = embed_batch(["a", "b", "c", "d"], cfg2)
    assert fake2.seen == ["c", "d"]  # cached texts never sent
    assert m.n == 4


def test_embed_warm_cache_deterministic(tmp_path):
    cfg = _config(tmp_path, FakeEmbed())
    m1 = embed_batch(["x", "y"], cfg)
    fake2 = FakeEmbed()
    m2 = embed_batch(["x", "y"], _config(tmp_path, fake2))
    assert fake2.calls == 0
    np.testing.assert_array_equal(m1.values, m2.values)


def test_embed_batching_respects_chunk_size(tmp_path):
    fake = FakeEmbed()
    cfg = _config(tmp_path, fake, embed_batch_size=2)
    embed_batch(["a", "b", "c", "d", "e"], cfg)
    assert fake.calls == 3  # ceil(5 / 2)


@pytest.mark.parametrize("size, need", [
    pytest.param(0, ">= 1", id="0"),
    pytest.param(-1, ">= 1", id="-1"),
    pytest.param(True, "an integer", id="True"),  # would be a batch size of 1
    pytest.param(2.5, "an integer", id="2.5"),
])
def test_embed_batch_size_must_be_positive(tmp_path, size, need):
    fake = FakeEmbed()
    with pytest.raises(ParameterError, match=f"embed batch size must be {need}, got {size}"):
        embed_batch(["a", "b"], _config(tmp_path, fake, embed_batch_size=size))
    assert fake.calls == 0


def test_embed_without_texts_is_refused_before_any_call(tmp_path):
    fake = FakeEmbed()
    for texts in ([], ["one"]):
        message = f"need at least 2 texts to embed, got {len(texts)}"
        with pytest.raises(ParameterError, match=message):
            embed_batch(texts, _config(tmp_path, fake))
    assert fake.calls == 0
    assert not (tmp_path / "cache").exists()


def test_transport_retries_then_fails(tmp_path):
    attempts = {"n": 0}

    def flaky(url, headers, payload, timeout_s):
        attempts["n"] += 1
        raise ConnectionError("down")

    with pytest.raises(TransportError):
        embed_batch(["a", "b"], _config(tmp_path, flaky))
    assert attempts["n"] == llmpipeline.MAX_RETRIES


def test_embed_malformed_response_is_transport_error(tmp_path):
    def malformed(url, headers, payload, timeout_s):
        return {"nope": 1}

    with pytest.raises(TransportError, match="KeyError"):
        embed_batch(["a", "b"], _config(tmp_path, malformed))


def test_embed_duplicate_indices_are_retried_and_never_cached(tmp_path):
    # every item claims index 0, so arrival order would decide which text gets which row
    calls = []

    def aliased(url, headers, payload, timeout_s):
        calls.append(payload["input"])
        return {"data": [{"index": 0, "embedding": [float(i), 1.0]}
                         for i in range(len(payload["input"]))]}

    with pytest.raises(TransportError, match="indices are not 0..1"):
        embed_batch(["a", "b"], _config(tmp_path, aliased))
    assert len(calls) == llmpipeline.MAX_RETRIES
    assert not list((tmp_path / "cache").rglob("*.json"))


def test_embed_rows_of_unequal_widths_are_a_transport_error(tmp_path):
    def ragged(url, headers, payload, timeout_s):
        return {"data": [{"index": i, "embedding": [1.0] * (2 + i)}
                         for i in range(len(payload["input"]))]}

    with pytest.raises(TransportError, match=r"rows differ in width: \[2, 3\]"):
        embed_batch(["a", "b"], _config(tmp_path, ragged))
    assert not list((tmp_path / "cache").rglob("*.json"))
    # a batch that is fine on its own but differs from the cached rows
    embed_batch(["a", "b"], _config(tmp_path, FakeEmbed(dim=4)))
    with pytest.raises(TransportError, match=r"cached and fresh embeddings differ in width"):
        embed_batch(["a", "b", "c"], _config(tmp_path, FakeEmbed(dim=3)))
    assert len(list((tmp_path / "cache").rglob("*.json"))) == 2


@pytest.mark.parametrize("embedding, message", [
    pytest.param([], "embedding rows are empty", id="empty"),
    pytest.param([1.0, float("nan")], "embedding rows hold a NaN or infinite value", id="nan"),
    pytest.param([float("inf"), 0.0], "embedding rows hold a NaN or infinite value", id="inf"),
])
def test_embed_bad_rows_are_retried_and_never_cached(tmp_path, embedding, message):
    calls = []

    def bad(url, headers, payload, timeout_s):
        calls.append(payload["input"])
        return {"data": [{"index": i, "embedding": embedding}
                         for i in range(len(payload["input"]))]}

    with pytest.raises(TransportError, match=message):
        embed_batch(["a", "b"], _config(tmp_path, bad))
    assert len(calls) == llmpipeline.MAX_RETRIES
    assert not list((tmp_path / "cache").rglob("*.json"))
    # nothing of the bad body is read back: a good endpoint gets both texts
    fake = FakeEmbed()
    m = embed_batch(["a", "b"], _config(tmp_path, fake))
    assert fake.seen == ["a", "b"]
    np.testing.assert_array_equal(m.values, [[1.0, 0.0, 0.0, 0.0]] * 2)


def test_truncated_cache_entry_is_a_miss(tmp_path):
    embed_batch(["one", "two"], _config(tmp_path, FakeEmbed()))
    key = _cache_key("embed", model=ClientConfig().embed_model, text="one")
    (entry,) = (tmp_path / "cache").rglob(f"{key}.json")
    entry.write_text(entry.read_text()[:5])
    fake2 = FakeEmbed()
    m = embed_batch(["one", "two", "three"], _config(tmp_path, fake2))
    assert fake2.seen == ["one", "three"]
    assert m.n == 3


@pytest.mark.parametrize("output", [
    pytest.param("[NaN, 1.0]", id="nan"),
    pytest.param("[]", id="empty"),
])
def test_bad_cached_row_is_fetched_again_and_overwritten(tmp_path, output):
    # a row an earlier version cached, as non-strict JSON
    key = _cache_key("embed", model=ClientConfig().embed_model, text="a")
    entry = tmp_path / "cache" / key[:2] / f"{key}.json"
    entry.parent.mkdir(parents=True)
    entry.write_text(f'{{"output": {output}}}')
    fake = FakeEmbed()
    m = embed_batch(["a", "b"], _config(tmp_path, fake))
    assert fake.seen == ["a", "b"]
    np.testing.assert_array_equal(m.values, [[1.0, 0.0, 0.0, 0.0]] * 2)
    assert json.loads(entry.read_text()) == {"output": [1.0, 0.0, 0.0, 0.0]}
    rerun = FakeEmbed()
    embed_batch(["a", "b"], _config(tmp_path, rerun))
    assert rerun.calls == 0


def test_embed_resumes_with_only_the_failed_batch(tmp_path):
    # batches of 2: the second fails every attempt, the first is cached
    texts = ["a", "b", "c", "d"]
    fake = FakeEmbed()

    def second_batch_down(url, headers, payload, timeout_s):
        if payload["input"] == ["c", "d"]:
            raise ConnectionError("down")
        return fake(url, headers, payload, timeout_s)

    with pytest.raises(TransportError, match="failed after"):
        embed_batch(texts, _config(tmp_path, second_batch_down, embed_batch_size=2))
    assert fake.seen == ["a", "b"]
    fake2 = FakeEmbed()
    m = embed_batch(texts, _config(tmp_path, fake2, embed_batch_size=2))
    assert fake2.seen == ["c", "d"]
    assert m.n == 4


@pytest.fixture
def http_server():
    """A JSON endpoint on 127.0.0.1 that answers every POST with
    ``server.answer`` = (status, body) and records the request bodies."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            self.server.received.append(json.loads(self.rfile.read(length)))
            status, body = self.server.answer
            data = json.dumps(body).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    server.received = []
    # a short poll interval keeps shutdown() from waiting out the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _url(server, path="/v1/embeddings"):
    return f"http://127.0.0.1:{server.server_port}{path}"


def test_urllib_transport_posts_json(http_server):
    http_server.answer = (200, {"data": [1, 2]})
    headers = {"Content-Type": "application/json"}
    assert _urllib_transport(_url(http_server), headers, {"input": ["a"]}, 10.0) == {"data": [1, 2]}
    assert http_server.received == [{"input": ["a"]}]


def test_urllib_transport_raises_on_error_status(http_server):
    http_server.answer = (500, {"error": "down"})
    with pytest.raises(urllib.error.HTTPError):
        _urllib_transport(_url(http_server), {}, {"input": ["a"]}, 10.0)


def test_cli_embed_transport_failure_is_clean_error(http_server, tmp_path, capsys):
    http_server.answer = (500, {"error": "down"})
    texts = tmp_path / "texts.txt"
    texts.write_text("alpha\nbeta\n")
    rc = main([
        "embed", "--input", str(texts), "--out", str(tmp_path / "emb.csv"),
        "--base-url", _url(http_server, "/v1"), "--cache-dir", str(tmp_path / "cache"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: request to ")
    assert len(http_server.received) == llmpipeline.MAX_RETRIES


def test_cli_embed_of_one_text_is_refused_before_any_request(http_server, tmp_path, capsys):
    http_server.answer = (200, {"data": [{"index": 0, "embedding": [1.0, 0.0]}]})
    texts = tmp_path / "texts.txt"
    texts.write_text("\n  only one\n\n")
    rc = main([
        "embed", "--input", str(texts), "--out", str(tmp_path / "emb.csv"),
        "--base-url", _url(http_server, "/v1"), "--cache-dir", str(tmp_path / "cache"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == "error: need at least 2 texts to embed, got 1\n"
    assert http_server.received == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["texts.txt"]


def test_cli_embed_cuts_texts_at_newlines_only(http_server, tmp_path):
    # str.splitlines() would also cut at U+2028 and at a form feed, giving
    # 5 texts and shifting the last against the line it is paired with
    rows = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]
    http_server.answer = (200, {"data": [{"index": i, "embedding": r} for i, r in enumerate(rows)]})
    texts = tmp_path / "texts.txt"
    texts.write_bytes("first\u2028half\nsecond\x0cpage\n\nthird\n".encode())
    rc = main([
        "embed", "--input", str(texts), "--out", str(tmp_path / "emb.csv"),
        "--base-url", _url(http_server, "/v1"), "--cache-dir", str(tmp_path / "cache"),
    ])
    assert rc == 0
    assert http_server.received == [
        {"model": ClientConfig.embed_model, "input": ["first\u2028half", "second\x0cpage", "third"]}
    ]
    np.testing.assert_array_equal(np.loadtxt(tmp_path / "emb.csv", delimiter=","), rows)
