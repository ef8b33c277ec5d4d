"""Dependency-free asyncio client for the ``readduo serve`` daemon.

Speaks the daemon's minimal HTTP/1.1 dialect (one request per
connection, ``Connection: close``) with nothing beyond the standard
library, so the load-test benchmark can hold thousands of concurrent
requests in one process and the CI smoke can talk to a live server
from a plain ``python -c`` one-liner. A synchronous convenience wrapper
(:meth:`ServeClient.submit_sync`) covers scripts that don't want to own
an event loop.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """A non-2xx response from the daemon.

    Attributes:
        status: HTTP status code.
        payload: The decoded JSON error document (``{"error": ...}``),
            or a ``{"raw": ...}`` wrapper when the body wasn't JSON.
    """

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class ServeClient:
    """Client for one daemon endpoint.

    Args:
        host: Daemon host.
        port: Daemon port.
        client_id: Optional stable identity sent as ``X-Client-Id``;
            the daemon's per-client backpressure buckets by it (falling
            back to the peer address when absent).
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8787,
        client_id: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id

    # ------------------------------------------------------------ transport

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One raw round trip; returns (status, headers, body bytes)."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            payload = (
                json.dumps(body).encode("utf-8") if body is not None else b""
            )
            head = [
                f"{method} {path} HTTP/1.1",
                f"Host: {self.host}:{self.port}",
                "Connection: close",
                f"Content-Length: {len(payload)}",
            ]
            if self.client_id:
                head.append(f"X-Client-Id: {self.client_id}")
            if body is not None:
                head.append("Content-Type: application/json")
            writer.write(
                "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + payload
            )
            await writer.drain()
            raw = await reader.read(-1)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        head_blob, _, body_blob = raw.partition(b"\r\n\r\n")
        lines = head_blob.decode("latin-1").split("\r\n")
        try:
            status = int(lines[0].split(" ", 2)[1])
        except (IndexError, ValueError) as exc:
            raise ServeError(0, {"error": f"malformed response: {lines[:1]}"}) from exc
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers, body_blob

    async def _json(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        status, _headers, blob = await self.request(method, path, body)
        try:
            payload = json.loads(blob.decode("utf-8") or "{}")
        except ValueError:
            payload = {"raw": blob.decode("utf-8", "replace")}
        if status != 200:
            raise ServeError(status, payload)
        return payload

    # ------------------------------------------------------------ endpoints

    async def health(self) -> Dict[str, Any]:
        return await self._json("GET", "/v1/health")

    async def schemes(self) -> Dict[str, Any]:
        return await self._json("GET", "/v1/schemes")

    async def stats(self) -> Dict[str, Any]:
        return await self._json("GET", "/v1/stats")

    async def memo_clear(self) -> Dict[str, Any]:
        return await self._json("POST", "/v1/memo/clear")

    async def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one SimSpec document; returns the sweep payload.

        Raises :class:`ServeError` on rejection — ``status`` 429 means
        backpressure (honor ``payload["retry_after_s"]``), 400 an
        invalid spec.
        """
        return await self._json("POST", "/v1/submit", spec)

    async def submit_streaming(
        self, spec: Dict[str, Any]
    ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
        """Submit with ``?stream=1``; returns (progress events, result).

        Events are the run-ledger provenance records for this request's
        units plus synthetic ``coalesced`` markers; the final ``result``
        line is returned separately (its ``kind`` key removed).
        """
        status, _headers, blob = await self.request(
            "POST", "/v1/submit?stream=1", spec
        )
        if status != 200:
            try:
                payload = json.loads(blob.decode("utf-8") or "{}")
            except ValueError:
                payload = {"raw": blob.decode("utf-8", "replace")}
            raise ServeError(status, payload)
        events: List[Dict[str, Any]] = []
        result: Optional[Dict[str, Any]] = None
        for line in blob.decode("utf-8").splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            kind = record.get("kind")
            if kind == "result":
                record.pop("kind")
                result = record
            elif kind == "error":
                raise ServeError(500, record)
            else:
                events.append(record)
        if result is None:
            raise ServeError(0, {"error": "stream ended without a result"})
        return events, result

    # ---------------------------------------------------------------- store

    async def store_get(self, key: str) -> Optional[Dict[str, Any]]:
        """One store entry's wire payload, or ``None`` when absent."""
        try:
            return await self._json("GET", f"/v1/store/{key}")
        except ServeError as exc:
            if exc.status == 404:
                return None
            raise

    # ----------------------------------------------------------- sync sugar

    def submit_sync(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        return asyncio.run(self.submit(spec))
