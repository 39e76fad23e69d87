"""Blocking HTTP client for :class:`repro.serve.server.JobServer`.

A thin stdlib (:mod:`http.client`) wrapper used by the tests, the CI
smoke run, and any tenant that wants the server's batching/caching
without speaking raw HTTP.  One :class:`ServeClient` is one tenant's
connection factory — it opens a fresh connection per request (the
server closes connections after each response), so a single client
instance may be shared across threads that each submit their own
jobs.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.serve.jobs import JobSpec, job_from_dict  # noqa: F401


class ServeError(RuntimeError):
    """A non-2xx answer from the job server."""

    def __init__(self, status: int, document: Dict[str, Any]) -> None:
        super().__init__(
            f"server answered {status}: "
            f"{document.get('error', document)}"
        )
        self.status = status
        self.document = document


class ServeClient:
    """Submit job specs and collect reports, synchronously."""

    def __init__(
        self, host: str, port: int, timeout: float = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- raw request ---------------------------------------------------------
    def request_text(
        self,
        method: str,
        path: str,
        document: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, str]:
        """One round trip; returns ``(status, raw body text)``."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = (
                json.dumps(document).encode()
                if document is not None
                else None
            )
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            payload = response.read()
            return response.status, payload.decode()
        finally:
            connection.close()

    def request(
        self,
        method: str,
        path: str,
        document: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """One round trip; returns ``(status, parsed JSON body)``."""
        status, text = self.request_text(method, path, document)
        return status, json.loads(text or "null")

    def _expect(
        self,
        method: str,
        path: str,
        document: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        status, answer = self.request(method, path, document)
        if status >= 400:
            raise ServeError(status, answer)
        return answer

    # -- job API -------------------------------------------------------------
    def submit(self, job: Union[JobSpec, Dict[str, Any]]) -> str:
        """POST one job spec (or its wire dict); returns the job id."""
        document = job.to_dict() if isinstance(job, JobSpec) else job
        answer = self._expect("POST", "/v1/jobs", document)
        return answer["job_id"]

    def report(self, job_id: str, wait: bool = True) -> Dict[str, Any]:
        """The job's report (blocking until done when ``wait``)."""
        suffix = "?wait=1" if wait else ""
        return self._expect("GET", f"/v1/jobs/{job_id}{suffix}")

    def run(self, job: Union[JobSpec, Dict[str, Any]]) -> Dict[str, Any]:
        """Submit one job and block for its report."""
        return self.report(self.submit(job), wait=True)

    def run_many(
        self, jobs: Sequence[Union[JobSpec, Dict[str, Any]]]
    ) -> List[Dict[str, Any]]:
        """Submit every job first, then collect reports in order.

        Submitting the whole batch before waiting lets the server's
        dispatcher see the jobs together and coalesce them.
        """
        job_ids = [self.submit(job) for job in jobs]
        return [self.report(job_id, wait=True) for job_id in job_ids]

    # -- introspection -------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The server's ``/v1/stats`` document."""
        return self._expect("GET", "/v1/stats")

    def metrics_text(self) -> str:
        """The raw Prometheus exposition from ``/v1/metrics``."""
        status, text = self.request_text("GET", "/v1/metrics")
        if status >= 400:
            raise ServeError(status, {"error": text})
        return text

    def metrics(self) -> Dict[Any, float]:
        """``/v1/metrics`` parsed back into ``sample key -> value``."""
        from repro.telemetry import parse_prometheus

        return dict(parse_prometheus(self.metrics_text()))

    def trace(self, job_id: str) -> Dict[str, Any]:
        """One job's trace document from ``/v1/traces/<job_id>``."""
        return self._expect("GET", f"/v1/traces/{job_id}")

    def health(self) -> bool:
        """Whether the server answers its liveness probe."""
        try:
            answer = self._expect("GET", "/v1/healthz")
        except (OSError, ServeError):
            return False
        return bool(answer.get("ok"))


#: Counter/histogram path prefix of the per-tenant telemetry scopes.
TENANT_PREFIX = "serve/tenant["


def tenant_ids(paths: Iterable[str]) -> List[str]:
    """Sorted tenant ids named by ``serve/tenant[<id>]/...`` paths."""
    return sorted(
        {
            path[len(TENANT_PREFIX) : path.index("]")]
            for path in paths
            if path.startswith(TENANT_PREFIX) and "]" in path
        }
    )


def tenant_rows(
    stats: Dict[str, Any],
    previous: Optional[Dict[str, Any]],
    interval: float,
) -> List[Dict[str, Any]]:
    """Per-tenant throughput/latency/energy rows of a ``/v1/stats`` document.

    ``previous`` is the stats document polled ``interval`` seconds
    earlier (``None`` on the first poll, which reports zero throughput).
    """
    from repro.telemetry import histogram_percentiles

    counters = stats.get("counters", {})
    histograms = stats.get("histograms", {})
    rows: List[Dict[str, Any]] = []
    for tenant in tenant_ids(list(counters) + list(histograms)):
        prefix = f"{TENANT_PREFIX}{tenant}]/"
        done, previous_done = (
            sum(
                value
                for path, value in snapshot.get("counters", {}).items()
                if path.startswith(f"{prefix}jobs[")
            )
            for snapshot in (stats, previous or {})
        )
        histogram = histograms.get(f"{prefix}latency/e2e_seconds")
        percentiles = (
            histogram_percentiles(histogram)
            if histogram
            else {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        )
        rows.append(
            {
                "tenant": tenant,
                "submitted": int(counters.get(f"{prefix}submitted", 0)),
                "done": int(done),
                "throughput_jobs_s": (
                    (done - previous_done) / interval
                    if previous is not None and interval > 0
                    else 0.0
                ),
                **{
                    key: round(float(value), 6)
                    for key, value in percentiles.items()
                },
                "energy_joules": float(
                    counters.get(f"{prefix}energy/total_joules", 0.0)
                ),
            }
        )
    return rows


def render_top(stats: Dict[str, Any], rows: List[Dict[str, Any]]) -> str:
    """One ``repro top`` frame: the cache line, then one row per tenant."""
    cache = stats.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    hit_ratio = cache.get("hits", 0) / lookups if lookups else 0.0
    lines = [
        f"queue depth {stats.get('queue_depth', 0)}; cache "
        f"{cache.get('hits', 0)}/{lookups} hits "
        f"({hit_ratio:.0%}), {cache.get('entries', 0)} resident",
        f"{'tenant':<12s}{'subm':>6s}{'done':>6s}{'jobs/s':>8s}"
        f"{'p50(s)':>10s}{'p95(s)':>10s}{'p99(s)':>10s}"
        f"{'energy(J)':>11s}",
    ]
    for row in rows:
        lines.append(
            f"{row['tenant']:<12s}{row['submitted']:>6d}"
            f"{row['done']:>6d}{row['throughput_jobs_s']:>8.2f}"
            f"{row['p50']:>10.4f}{row['p95']:>10.4f}{row['p99']:>10.4f}"
            f"{row['energy_joules']:>11.3e}"
        )
    if len(lines) == 2:
        lines.append("(no tenant activity yet)")
    return "\n".join(lines)


__all__ = [
    "ServeClient",
    "ServeError",
    "TENANT_PREFIX",
    "render_top",
    "tenant_ids",
    "tenant_rows",
]
