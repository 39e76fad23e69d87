"""Seeded open-loop traffic for the job server.

:func:`schedule` turns a seed into a list of :class:`Arrival`\\ s: due
times (Poisson arrivals at each phase's fixed rate), models drawn from
a skewed (Zipf-like) popularity over :data:`MODEL_COUNT` ``(workload,
seed)`` pairs, tenants and input seeds.  It is a pure function of its
arguments; :func:`digest` fingerprints it so two runs can be shown to
have sent identical traffic.

:class:`OpenLoopClient` replays a schedule over HTTP with exactly two
connections: one thread POSTs each job when it is due, whatever the
server's state; the other collects ``GET /v1/jobs/<id>?wait=1`` in
submission order.  A job's latency runs from its due time to the
arrival of its report, so a stall that delays later submissions is
charged to them.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import queue
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Distinct ``(workload, seed)`` models; more than the server's default
#: 16-entry programmed-state cache, so the tail of the mix misses.
MODEL_COUNT = 24
#: Popularity ranks (0 = most popular) held by ``mnist_cnn`` models;
#: the rest are ``mlp``.  Fixed, so every seed offers the same load.
CNN_RANKS = (1, 3)
#: Popularity of the model at rank ``r`` is ``1 / (r + 1) ** ZIPF_S``.
ZIPF_S = 2.0
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
#: Input seeds a job draws from (a small set keeps the oracle cheap).
INPUT_SEEDS = 6
#: ``(count, batch)`` of one job per workload.
JOB_SIZE = {"mlp": (4, 4), "mnist_cnn": (4, 4)}
#: Seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT = 60.0


@dataclass(frozen=True)
class Arrival:
    """One job: when it is due (seconds from the schedule start)."""

    due: float
    phase: str
    job: Dict[str, Any]


def models(seed: int) -> List[Tuple[str, int]]:
    """The model mix, most popular first."""
    rng = random.Random(f"models:{seed}")
    seeds = rng.sample(range(1, 10_000), MODEL_COUNT)
    return [
        ("mnist_cnn" if rank in CNN_RANKS else "mlp", model_seed)
        for rank, model_seed in enumerate(seeds)
    ]


def job_document(workload: str, model_seed: int, tenant: str,
                 input_seed: int) -> Dict[str, Any]:
    count, batch = JOB_SIZE[workload]
    return {
        "kind": "inference",
        "workload": workload,
        "seed": model_seed,
        "tenant": tenant,
        "count": count,
        "batch": batch,
        "input_seed": input_seed,
    }


def schedule(
    seed: int, phases: Sequence[Tuple[str, float, int]]
) -> List[Arrival]:
    """Arrivals for ``phases`` of ``(name, jobs_per_second, jobs)``."""
    rng = random.Random(f"schedule:{seed}")
    mix = models(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(mix))]
    arrivals: List[Arrival] = []
    due = 0.0
    for name, rate, jobs in phases:
        for _ in range(jobs):
            due += rng.expovariate(rate)
            workload, model_seed = rng.choices(mix, weights)[0]
            arrivals.append(
                Arrival(
                    due=round(due, 6),
                    phase=name,
                    job=job_document(
                        workload,
                        model_seed,
                        rng.choice(TENANTS),
                        rng.randrange(INPUT_SEEDS),
                    ),
                )
            )
    return arrivals


def digest(arrivals: Sequence[Arrival]) -> str:
    """SHA-256 of the schedule's canonical JSON form."""
    payload = json.dumps(
        [[a.due, a.phase, a.job] for a in arrivals], sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class Sent:
    """What happened to one arrival."""

    arrival: Arrival
    lag: float = 0.0
    submit_s: float = 0.0
    latency: Optional[float] = None
    report: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


def request(host: str, port: int, method: str, path: str,
            body: Optional[Dict[str, Any]] = None) -> Tuple[int, Any]:
    """One HTTP exchange on its own connection (the server closes it)."""
    connection = http.client.HTTPConnection(
        host, port, timeout=REQUEST_TIMEOUT
    )
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        connection.close()


class OpenLoopClient:
    """Replays a schedule; at most two connections are ever open."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def _submit(self, sent: List[Sent], start: float,
                handoff: "queue.Queue[Tuple[int, Optional[str]]]") -> None:
        for index, record in enumerate(sent):
            due = start + record.arrival.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            posted = time.perf_counter()
            record.lag = posted - due
            job_id = None
            try:
                status, document = request(
                    self.host, self.port, "POST", "/v1/jobs",
                    record.arrival.job,
                )
                if status == 202:
                    job_id = document["job_id"]
                else:
                    record.error = f"submit HTTP {status}: {document}"
            except Exception as exc:  # noqa: BLE001 - counted as failed
                record.error = f"submit {type(exc).__name__}: {exc}"
            record.submit_s = time.perf_counter() - posted
            handoff.put((index, job_id))

    def run(self, arrivals: Sequence[Arrival]) -> List[Sent]:
        """Send every arrival on time and collect every report."""
        sent = [Sent(arrival) for arrival in arrivals]
        handoff: "queue.Queue[Tuple[int, Optional[str]]]" = queue.Queue()
        start = time.perf_counter() + 0.05
        submitter = threading.Thread(
            target=self._submit, args=(sent, start, handoff),
            name="loadgen-submit",
        )
        submitter.start()
        try:
            for _ in sent:
                index, job_id = handoff.get()
                record = sent[index]
                if job_id is None:
                    continue
                try:
                    status, document = request(
                        self.host, self.port, "GET",
                        f"/v1/jobs/{job_id}?wait=1",
                    )
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    record.error = f"collect {type(exc).__name__}: {exc}"
                    continue
                record.latency = time.perf_counter() - (
                    start + record.arrival.due
                )
                if status == 200:
                    record.report = document
                else:
                    record.error = f"collect HTTP {status}: {document}"
        finally:
            submitter.join()
        return sent
