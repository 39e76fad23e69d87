"""Property tests for the serve layer's two wire formats.

Any JSON value fed to :func:`job_from_dict` either becomes a spec that
round-trips through ``to_dict`` or is refused with ``ValueError`` /
``TypeError`` (the two errors ``POST /v1/jobs`` answers with 400).
Any byte string fed to the hand-written HTTP request reader either
parses or is refused with one of the errors the connection handler
answers with 400/413.  Any body POSTed to ``/v1/jobs`` is answered
with 202 or 400.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.jobs import BACKENDS, JOB_KINDS, job_from_dict
from repro.serve.server import MAX_BODY_BYTES, JobServer, _RequestRefused
from repro.telemetry import SCHEMA_VERSION
from repro.workloads import RUNNABLE_WORKLOADS

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
#: Values a real client might send for a spec field, so that a good
#: share of generated documents are valid specs.
PLAUSIBLE = (
    st.sampled_from(RUNNABLE_WORKLOADS + BACKENDS + ("stuck", "upset"))
    | st.integers(min_value=-2, max_value=64)
    | st.floats(min_value=0.0, max_value=1.0)
    | st.lists(
        st.floats(min_value=0.0, max_value=1.0) | st.integers(0, 2),
        max_size=3,
    )
    | st.from_regex(r"[a-z0-9_][a-z0-9_.-]{0,6}", fullmatch=True)
    | st.booleans()
    | st.none()
)


@st.composite
def job_documents(draw):
    """A dict over one kind's field names (plus strays) and values."""
    kind = draw(st.sampled_from(sorted(JOB_KINDS)) | JSON_SCALARS)
    names = ["schema_version", "stray"]
    if isinstance(kind, str) and kind in JOB_KINDS:
        names += [spec_field.name for spec_field in fields(JOB_KINDS[kind])]
    document = draw(
        st.dictionaries(
            st.sampled_from(names), PLAUSIBLE | JSON_VALUES, max_size=6
        )
    )
    if document.get("schema_version") is not None and draw(st.booleans()):
        document["schema_version"] = SCHEMA_VERSION
    document["kind"] = kind
    return document


@settings(max_examples=400, deadline=None)
@given(document=JSON_VALUES | job_documents())
def test_job_from_dict_round_trips_or_refuses(document):
    try:
        spec = job_from_dict(document)
    except (ValueError, TypeError):
        return
    assert job_from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize(
    "document",
    [
        # JSON integers too large for a float: float() raised
        # OverflowError, which the 400 handler did not catch.
        {"kind": "reliability", "rates": [10**400]},
        {"kind": "reliability", "rates": [0.01, -(10**309)]},
        {"kind": "training", "learning_rate": 10**400},
    ],
)
def test_job_from_dict_pinned_examples(document):
    with pytest.raises(ValueError, match="must fit a float"):
        job_from_dict(document)


async def _read(data: bytes):
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return await JobServer._read_request(reader)


@st.composite
def http_requests(draw):
    """Request-shaped bytes: a request line, headers, a body."""
    eol = draw(st.sampled_from([b"\r\n", b"\n"]))
    request_line = draw(
        st.sampled_from([b"GET /v1/healthz HTTP/1.1", b"POST /v1/jobs"])
        | st.binary(max_size=24)
    )
    length = st.integers(-5, MAX_BODY_BYTES + 5).map(
        lambda n: str(n).encode()
    )
    headers = draw(
        st.lists(
            st.tuples(
                st.sampled_from([b"Content-Length", b"content-length"])
                | st.binary(max_size=8),
                length | st.binary(max_size=8),
            ),
            max_size=3,
        )
    )
    body = draw(st.binary(max_size=32))
    head = eol.join(
        [request_line] + [name + b":" + value for name, value in headers]
    )
    return head + eol + eol + body


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=128) | http_requests())
def test_read_request_parses_or_refuses(data):
    try:
        method, target, body = asyncio.run(_read(data))
    except (ValueError, asyncio.IncompleteReadError, _RequestRefused):
        return
    assert isinstance(method, str) and method == method.upper()
    assert isinstance(target, str) and target
    assert isinstance(body, bytes) and len(body) <= MAX_BODY_BYTES


#: Bodies nested far deeper than the interpreter's recursion limit,
#: yet well under ``MAX_BODY_BYTES``: ``json.loads`` raises
#: ``RecursionError`` on them.
NESTED_BODIES = st.builds(
    lambda depth, pair: pair[0] * depth + pair[1] * depth,
    st.integers(1, 100_000),
    st.sampled_from([(b"[", b"]"), (b'{"a":', b"}"), (b"[", b"")]),
)


def _post_jobs(body: bytes):
    return asyncio.run(JobServer()._route("POST", "/v1/jobs", body))


@settings(max_examples=150, deadline=None)
@given(
    body=st.binary(max_size=64)
    | (JSON_VALUES | job_documents()).map(lambda v: json.dumps(v).encode())
    | NESTED_BODIES
)
def test_post_jobs_answers_every_body(body):
    status, document = _post_jobs(body)
    assert status in (202, 400)
    assert isinstance(document, dict)


@pytest.mark.parametrize(
    "body",
    [
        # json.loads raised RecursionError, which _route did not
        # catch, so the client got no response at all.
        b"[" * 100_000 + b"]" * 100_000,
        b'{"a":' * 100_000 + b"0" + b"}" * 100_000,
    ],
    ids=["arrays", "objects"],
)
def test_deeply_nested_body_is_a_400(body):
    assert len(body) < MAX_BODY_BYTES
    status, document = _post_jobs(body)
    assert status == 400
    assert "recursion" in document["error"]
