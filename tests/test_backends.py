from __future__ import annotations

import json
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from charter.agents import PromptBundle
from charter.backends import (
    JITTER,
    MAX_DISPATCH_THREADS,
    BackendError,
    CompletionRequest,
    MissingTranscriptEntry,
    RecordingBackend,
    RemoteBackend,
    RequestRejected,
    ScriptedBackend,
)


def _request(layer=1, role="worker", task="a.py", text="hello"):
    bundle = PromptBundle(text=text, token_count=1, view={})
    return CompletionRequest(layer=layer, role=role, task_id=task, bundle=bundle)


def test_scripted_backend_returns_exact_text():
    backend = ScriptedBackend([{"layer": 1, "role": "worker", "task": "a.py", "response": "stored"}])
    assert backend.complete(_request()) == "stored"


def test_scripted_backend_missing_key():
    backend = ScriptedBackend([])
    with pytest.raises(MissingTranscriptEntry):
        backend.complete(_request())


class _FakeResponse:
    def __init__(self, status_code, content="ok", headers=None):
        self.status_code = status_code
        self.text = "error body"
        self.headers = headers or {}
        self._content = content

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


class _FakeSession:
    def __init__(self, statuses, content="ok", headers=()):
        self.statuses = list(statuses)
        self.content = content
        self.headers = list(headers)  # response headers, one dict per response
        self.calls = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        return _FakeResponse(self.statuses.pop(0), self.content, self.headers.pop(0) if self.headers else None)


def test_remote_backend_retries_then_succeeds(monkeypatch):
    monkeypatch.setenv("CHARTER_API_KEY", "k")
    session = _FakeSession([500, 500, 200])
    backend = RemoteBackend(retries=2, backoff=0, session=session)
    assert backend.complete(_request()) == "ok"
    assert session.calls == 3


def test_remote_backend_exhausts_retries(monkeypatch):
    monkeypatch.setenv("CHARTER_API_KEY", "k")
    session = _FakeSession([500, 500, 500])
    backend = RemoteBackend(retries=2, backoff=0, session=session)
    with pytest.raises(BackendError, match="after 2 retries"):
        backend.complete(_request())


def test_remote_backend_client_error_fails_fast(monkeypatch):
    monkeypatch.setenv("CHARTER_API_KEY", "k")
    session = _FakeSession([401])
    backend = RemoteBackend(retries=2, backoff=0, session=session)
    with pytest.raises(RequestRejected, match="401"):
        backend.complete(_request())
    assert session.calls == 1


def test_remote_backend_retries_rate_limit(monkeypatch):
    monkeypatch.setenv("CHARTER_API_KEY", "k")
    session = _FakeSession([429, 200])
    backend = RemoteBackend(retries=2, backoff=0, session=session)
    assert backend.complete(_request()) == "ok"
    assert session.calls == 2


def test_remote_backend_retries_null_content_then_fails(monkeypatch):
    # Refusals and tool calls answer with "content": null; that is no completion.
    monkeypatch.setenv("CHARTER_API_KEY", "k")
    session = _FakeSession([200, 200, 200], content=None)
    backend = RemoteBackend(retries=2, backoff=0, session=session)
    with pytest.raises(BackendError, match="not text"):
        backend.complete(_request())
    assert session.calls == 3


def _recorded_sleeps(monkeypatch):
    sleeps = []
    monkeypatch.setattr("charter.backends.time.sleep", sleeps.append)
    return sleeps


class _Fixed(random.Random):
    """Draws ``value`` every time: 0.0 stretches no wait, nearly 1.0 the most."""

    def __init__(self, value: float):
        super().__init__()
        self.value = value

    def random(self) -> float:
        return self.value


def test_remote_backend_backs_off_exponentially(monkeypatch):
    monkeypatch.setenv("CHARTER_API_KEY", "k")
    sleeps = _recorded_sleeps(monkeypatch)
    backend = RemoteBackend(retries=3, backoff=0.5, session=_FakeSession([500, 502, 429, 200]), rng=_Fixed(0.0))
    assert backend.complete(_request()) == "ok"
    assert sleeps == [0.5, 1.0, 2.0]


def test_remote_backend_honours_a_numeric_retry_after(monkeypatch):
    monkeypatch.setenv("CHARTER_API_KEY", "k")
    sleeps = _recorded_sleeps(monkeypatch)
    headers = [
        {"Retry-After": "7"},  # 429: replaces 0.5
        {"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"},  # 503, a date: not read, 1.0
        {"Retry-After": "0.25"},  # 503: replaces 2.0
        {"Retry-After": "9"},  # 500: only 429 and 503 are read, 4.0
    ]
    session = _FakeSession([429, 503, 503, 500, 200], headers=headers)
    backend = RemoteBackend(retries=4, backoff=0.5, session=session, rng=_Fixed(0.0))
    assert backend.complete(_request()) == "ok"
    assert sleeps == [7.0, 1.0, 0.25, 4.0]


def test_remote_backend_jitters_each_wait_without_shortening_a_retry_after(monkeypatch):
    monkeypatch.setenv("CHARTER_API_KEY", "k")
    sleeps = _recorded_sleeps(monkeypatch)
    for seed in range(2):  # two dispatches turned away by one burst of 429s
        session = _FakeSession([429, 429, 200], headers=[{"Retry-After": "2"}, {}])
        backend = RemoteBackend(retries=2, backoff=0.5, session=session, rng=random.Random(seed))
        assert backend.complete(_request()) == "ok"
    first, second = sleeps[:2], sleeps[2:]
    assert first != second  # they do not wake in lockstep
    for retry_after, backoff in (first, second):
        assert 2.0 <= retry_after < 2.0 * (1 + JITTER)
        assert 1.0 <= backoff < 1.0 * (1 + JITTER)
    sleeps.clear()
    session = _FakeSession([429, 500, 200], headers=[{"Retry-After": "4"}, {}])
    backend = RemoteBackend(retries=2, backoff=0.5, timeout=5, session=session, rng=_Fixed(0.999))
    assert backend.complete(_request()) == "ok"
    assert sleeps == [5, 1.0 * (1 + JITTER * 0.999)]  # the cap at the timeout stays


def test_remote_backend_caps_a_long_retry_after_at_its_timeout(monkeypatch):
    monkeypatch.setenv("CHARTER_API_KEY", "k")
    sleeps = _recorded_sleeps(monkeypatch)
    session = _FakeSession([429, 200], headers=[{"Retry-After": "3600"}])
    backend = RemoteBackend(retries=1, timeout=5, session=session)
    assert backend.complete(_request()) == "ok"
    assert sleeps == [5]


def test_remote_backend_requires_env_key(monkeypatch):
    monkeypatch.delenv("CHARTER_API_KEY", raising=False)
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    backend = RemoteBackend(session=_FakeSession([200]))
    with pytest.raises(BackendError, match="API key"):
        backend.complete(_request())


def test_recording_backend_appends_transcript(tmp_path):
    class Inner:
        def complete(self, request):
            return "answer"

    path = tmp_path / "t.jsonl"
    backend = RecordingBackend(Inner(), path)
    request = _request()
    assert backend.complete(request) == "answer"
    record = json.loads(path.read_text().strip())
    assert record["layer"] == 1
    assert record["role"] == "worker"
    assert record["task"] == "a.py"
    assert record["response"] == "answer"
    assert record["request_sha256"] == request.sha256()
    # the recorded transcript replays
    replay = ScriptedBackend.from_file(path)
    assert replay.complete(request) == "answer"


def test_remote_backend_rejects_a_negative_temperature():
    with pytest.raises(ValueError, match="temperature"):
        RemoteBackend(temperature=-1)


def test_remote_backend_sends_configured_model_and_temperature(monkeypatch):
    monkeypatch.setenv("CHARTER_API_KEY", "k")
    payloads = []

    class Session:
        def post(self, url, json=None, headers=None, timeout=None):
            payloads.append((url, json, headers))
            return _FakeResponse(200)

    backend = RemoteBackend(
        base_url="https://example.test/v1", model="gpt-4o-2024-11-20", temperature=0.0, session=Session()
    )
    backend.complete(_request(text="prompt text"))
    url, payload, headers = payloads[0]
    assert url == "https://example.test/v1/chat/completions"
    assert payload["model"] == "gpt-4o-2024-11-20"
    assert payload["temperature"] == 0.0
    assert payload["messages"][0]["content"] == "prompt text"
    assert headers["Authorization"] == "Bearer k"


def test_remote_backend_reuses_its_connections_across_wide_layers(monkeypatch):
    # The loopback endpoint holds each request until all of a layer's are in
    # flight, so a layer needs one connection per dispatch at once. Layers
    # after the first reuse them: no connection is opened twice.
    monkeypatch.setenv("CHARTER_API_KEY", "k")
    width, layers = 48, 3
    assert width <= MAX_DISPATCH_THREADS
    gate = threading.Barrier(width, timeout=30)
    opened = []
    body = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep the connection open between requests

        def setup(self):
            super().setup()
            opened.append(self.client_address)

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            gate.wait()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    class Server(ThreadingHTTPServer):
        request_queue_size = 4 * width  # the default backlog of 5 resets a burst of connects

    server = Server(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    backend = RemoteBackend(base_url=f"http://127.0.0.1:{server.server_address[1]}/v1", retries=0)
    backend.session.trust_env = False  # no proxy from the environment between client and loopback
    try:
        with ThreadPoolExecutor(max_workers=width) as pool:
            for layer in range(1, layers + 1):
                sent = [_request(layer=layer, task=f"m{i}.py") for i in range(width)]
                assert list(pool.map(backend.complete, sent)) == ["ok"] * width
    finally:
        backend.session.close()
        server.shutdown()
        server.server_close()
    assert len(opened) == width
