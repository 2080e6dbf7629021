"""A stdlib client for the fleet control plane (``repro ctl``)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Dict, Optional

from repro.errors import ReproError


class ControlClient:
    """Synchronous HTTP client mirroring the REST routes one-to-one."""

    def __init__(self, base_url: str = "http://127.0.0.1:8023",
                 timeout_s: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # --- transport ----------------------------------------------------------

    def _request(self, method: str, path: str, body: Optional[bytes] = None,
                 content_type: str = "application/json") -> bytes:
        request = urllib.request.Request(
            self.base_url + path, data=body, method=method,
            headers={"Content-Type": content_type} if body else {})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as response:
                return response.read()
        except urllib.error.HTTPError as err:
            detail = err.read().decode(errors="replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except json.JSONDecodeError:
                pass
            raise ReproError(
                f"{method} {path}: HTTP {err.code}: {detail}") from None
        except urllib.error.URLError as err:
            raise ReproError(
                f"cannot reach service at {self.base_url}: "
                f"{err.reason}") from None

    def _get(self, path: str) -> Dict[str, object]:
        return json.loads(self._request("GET", path))

    def _post(self, path: str,
              payload: Optional[Dict[str, object]] = None):
        body = json.dumps(payload or {}).encode()
        return json.loads(self._request("POST", path, body=body))

    # --- routes -------------------------------------------------------------

    def status(self):
        return self._get("/status")

    def servers(self):
        return self._get("/servers")

    def workers(self):
        return self._get("/workers")

    def server(self, index: int):
        return self._get(f"/servers/{index}")

    def events(self, index: int, limit: int = 50):
        return self._get(f"/servers/{index}/events?n={limit}")

    def ingest(self, vm_id: int, memory_bytes: int,
               time_s: Optional[float] = None,
               lifetime_s: Optional[float] = None, vcpus: int = 2,
               image_id: int = 0):
        payload: Dict[str, object] = {"vm_id": vm_id,
                                      "memory_bytes": memory_bytes,
                                      "vcpus": vcpus, "image_id": image_id}
        if time_s is not None:
            payload["time_s"] = time_s
        if lifetime_s is not None:
            payload["lifetime_s"] = lifetime_s
        return self._post("/ingest", payload)

    def depart(self, vm_id: int, time_s: Optional[float] = None):
        payload: Dict[str, object] = {"vm_id": vm_id}
        if time_s is not None:
            payload["time_s"] = time_s
        return self._post("/depart", payload)

    def advance(self, until_s: Optional[float] = None,
                dt_s: Optional[float] = None):
        payload: Dict[str, object] = {}
        if until_s is not None:
            payload["until_s"] = until_s
        if dt_s is not None:
            payload["dt_s"] = dt_s
        return self._post("/advance", payload)

    def snapshot(self, index: int) -> bytes:
        return self._request("GET", f"/servers/{index}/snapshot")

    def restore(self, index: int, blob: bytes):
        return json.loads(self._request(
            "POST", f"/servers/{index}/restore", body=blob,
            content_type="application/octet-stream"))

    def migrate(self, index: int, worker: int):
        return self._post(f"/servers/{index}/migrate", {"worker": worker})

    def inject_fault_plan(self, index: int, plan: Dict[str, object]):
        return self._post(f"/servers/{index}/fault", plan)

    def retune(self, overrides: Dict[str, object],
               server: Optional[int] = None):
        payload: Dict[str, object] = {"overrides": overrides}
        if server is not None:
            payload["server"] = server
        return self._post("/retune", payload)

    def reshard(self, workers: int):
        return self._post("/reshard", {"workers": workers})

    def shutdown(self):
        return self._post("/shutdown")
