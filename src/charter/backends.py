"""Completion backends: remote chat endpoint, scripted replay, and recording.

The scripted backend is a pure lookup keyed by (layer, role, task); it is what
makes whole runs bit-reproducible offline. The recording backend wraps the
remote one and appends every exchange to a transcript file so a live run can
later be replayed as a fixture.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .agents import PromptBundle

logger = logging.getLogger(__name__)

API_KEY_ENV_VARS = ("CHARTER_API_KEY", "OPENAI_API_KEY")
# The largest share by which a retry's wait is stretched.
JITTER = 0.5
# The most dispatches in flight at once: the worker bound of a run's one
# dispatch pool, wider than any bundled or benchmark layer, and the number of
# connections a ``RemoteBackend`` keeps open for reuse.
MAX_DISPATCH_THREADS = 64


class BackendError(Exception):
    pass


class MissingTranscriptEntry(BackendError):
    pass


class RequestRejected(BackendError):
    """The endpoint refused the request itself (a 4xx other than 429); a retry
    would be refused the same way."""


@dataclass(frozen=True)
class CompletionRequest:
    layer: int
    role: str
    task_id: str
    bundle: PromptBundle

    def key(self) -> tuple[int, str, str]:
        return (self.layer, self.role, self.task_id)

    def sha256(self) -> str:
        return hashlib.sha256(self.bundle.text.encode("utf-8")).hexdigest()


def transcript_record(request: CompletionRequest, response: str) -> dict:
    return {
        "layer": request.layer,
        "role": request.role,
        "task": request.task_id,
        "request_sha256": request.sha256(),
        "response": response,
    }


class ScriptedBackend:
    """Replays a recorded transcript; thread-safe pure lookup."""

    def __init__(self, records: list[dict]):
        self._responses: dict[tuple[int, str, str], str] = {}
        for number, record in enumerate(records, 1):
            try:
                key = (int(record["layer"]), str(record["role"]), str(record.get("task", "")))
                self._responses[key] = str(record["response"])
            except KeyError as exc:
                raise BackendError(f"transcript record {number} has no {exc} field") from None

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        records = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return cls(records)

    def complete(self, request: CompletionRequest) -> str:
        try:
            return self._responses[request.key()]
        except KeyError:
            raise MissingTranscriptEntry(
                f"no transcript entry for layer={request.layer} "
                f"role={request.role} task={request.task_id!r}"
            ) from None


class RemoteBackend:
    """Chat-completion client with bounded retries. Connection errors, 5xx and
    429 (rate limited) are retried; any other 4xx raises ``RequestRejected``.
    Retry ``n`` (from 0) waits ``backoff * 2**n`` seconds, or the seconds a
    numeric ``Retry-After`` header of a 429 or 503 asks for, stretched by a
    factor drawn from ``[1, 1 + JITTER)`` with ``rng``, so the dispatches of a
    wide layer that one burst of 429s turned away do not retry in lockstep
    (a ``Retry-After`` is never shortened); no wait is longer than
    ``timeout``, the longest a request itself may take.

    Without a ``session``, it makes one that keeps up to
    ``MAX_DISPATCH_THREADS`` connections per host open, so every dispatch of
    a wide layer reuses a connection the layer before it opened.

    The endpoint key comes from the environment only; it is never accepted as
    a flag or stored in config files.
    """

    def __init__(
        self,
        base_url: str = "https://api.openai.com/v1",
        model: str = "gpt-4o-2024-11-20",
        temperature: float = 0.0,
        retries: int = 2,
        timeout: float = 120.0,
        backoff: float = 1.0,
        session=None,
        rng: random.Random | None = None,
    ):
        if temperature < 0:
            raise ValueError("temperature must be >= 0")
        import requests

        self.base_url = base_url.rstrip("/")
        self.model = model
        self.temperature = temperature
        self.retries = retries
        self.timeout = timeout
        self.backoff = backoff
        if session is None:
            session = requests.Session()
            adapter = requests.adapters.HTTPAdapter(pool_maxsize=MAX_DISPATCH_THREADS)
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self.session = session
        self.rng = rng or random.Random()

    def _api_key(self) -> str:
        for name in API_KEY_ENV_VARS:
            value = os.environ.get(name)
            if value:
                return value
        raise BackendError(
            f"no API key found; set one of {', '.join(API_KEY_ENV_VARS)}"
        )

    def complete(self, request: CompletionRequest) -> str:
        url = f"{self.base_url}/chat/completions"
        payload = {
            "model": self.model,
            "temperature": self.temperature,
            "messages": [{"role": "user", "content": request.bundle.text}],
        }
        headers = {"Authorization": f"Bearer {self._api_key()}"}
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            delay = self.backoff * 2**attempt
            try:
                resp = self.session.post(url, json=payload, headers=headers, timeout=self.timeout)
                if resp.status_code >= 500 or resp.status_code == 429:
                    last_error = BackendError(f"retryable status {resp.status_code}")
                    if resp.status_code in (429, 503):
                        delay = _retry_after(resp.headers.get("Retry-After"), delay)
                elif resp.status_code >= 400:
                    raise RequestRejected(f"request failed with {resp.status_code}: {resp.text[:200]}")
                else:
                    content = resp.json()["choices"][0]["message"]["content"]
                    if not isinstance(content, str):  # refusals and tool calls carry null content
                        raise ValueError(f"completion content is {type(content).__name__}, not text")
                    return content
            except RequestRejected:
                raise
            except Exception as exc:  # connection errors, malformed payloads
                last_error = exc
            if attempt < self.retries:
                time.sleep(min(delay * (1 + JITTER * self.rng.random()), self.timeout))
        raise BackendError(f"backend failed after {self.retries} retries: {last_error}")


def _retry_after(header: str | None, default: float) -> float:
    """The delay a ``Retry-After`` header gives in seconds; ``default`` when it
    is absent or not a number (an HTTP date is not read)."""
    try:
        seconds = float(header)
    except (TypeError, ValueError):
        return default
    return seconds if 0 <= seconds < math.inf else default


class RecordingBackend:
    """Wraps a live backend and appends every exchange to a transcript file."""

    def __init__(self, inner, transcript_path):
        self.inner = inner
        self.transcript_path = Path(transcript_path)
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> str:
        response = self.inner.complete(request)
        record = transcript_record(request, response)
        with self._lock:
            with open(self.transcript_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return response
