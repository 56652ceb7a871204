"""Fuzzing the HTTP handler against one live daemon.

Whatever a client sends — drawn JSON values of any nesting and type,
huge and non-finite numbers, bytes that are not UTF-8, a body nested
100 000 deep, ``load`` requests naming odd paths — the daemon answers
with a JSON object and a 200 or 4xx status: never a 500, never a dropped
connection, never a dead worker.  Afterwards a normal predict is still
bit-identical to ``Program.run``.  ``scripts/ci.sh`` reruns this file
under three more hypothesis seeds.
"""

import http.client
import json
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.serve import ServeConfig, ServeDaemon

from .conftest import IMAGE_SIZE

DEEP = 100_000
DEEP_BODY = b'{"inputs": ' + b"[" * DEEP + b"]" * DEEP + b"}"
BARE_DEEP_BODY = b"[" * DEEP + b"]" * DEEP

SHAPE = (IMAGE_SIZE, IMAGE_SIZE, 3)

scalars = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=10 ** 300, max_value=10 ** 400)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.text(max_size=6))
json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=30)
images = arrays(np.float64, st.sampled_from([SHAPE, (1,) + SHAPE,
                                              (2,) + SHAPE]),
                elements=st.floats(allow_nan=True, allow_infinity=True,
                                   width=64)
                | st.floats(-4.0, 4.0))


def expires_in_queue(value) -> bool:
    """A valid deadline short enough to pass while queued: the daemon
    rightly answers 504, so the properties below do not draw one."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value < 10_000)


predict_payloads = st.fixed_dictionaries(
    {"inputs": json_values | images.map(lambda a: a.tolist())},
    optional={"timeout_ms": (json_values.filter(
                  lambda v: not expires_in_queue(v))
              | st.floats(10_000.0, 60_000.0)),
              "return_logits": json_values})
bodies = (predict_payloads.map(lambda p: json.dumps(p).encode())
          | json_values.map(lambda v: json.dumps(v).encode())
          | st.binary(max_size=64))


@pytest.fixture(scope="module")
def live(serve_artifact_path, tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    daemon = ServeDaemon(ServeConfig(port=0, max_batch=4, max_wait_ms=1.0,
                                     run_dir=str(root / "run")))
    daemon.load_model("m", serve_artifact_path)
    host, port = daemon.start()
    shutil.copy(serve_artifact_path, root / "copy.bomp")
    (root / "garbage.bomp").write_bytes(b"\x93BOMP" + bytes(range(200)))
    (root / "empty.bomp").touch()
    (root / "dir").mkdir()
    yield daemon, host, port, root
    daemon.shutdown(drain=True)


def post(host, port, path, body):
    """POST raw bytes; the reply must arrive, as a JSON object."""
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        connection.request("POST", path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = json.loads(response.read())
    finally:
        connection.close()
    assert isinstance(payload, dict), payload
    assert response.status == 200 or 400 <= response.status < 500, \
        (response.status, payload)
    return response.status, payload


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(body=bodies)
@example(body=DEEP_BODY)
@example(body=BARE_DEEP_BODY)
def test_predict_always_answers(live, body):
    daemon, host, port, _ = live
    status, payload = post(host, port, "/v1/models/m/predict", body)
    if status == 200:
        assert len(payload["predictions"]) == payload["batch"]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["m2", "x", "bad.name", "-"]),
       target=st.sampled_from(["copy.bomp", "garbage.bomp", "empty.bomp",
                               "dir", "missing.bomp", "a\x00b", ""]),
       other=st.none() | json_values)
def test_load_always_answers(live, name, target, other):
    daemon, host, port, root = live
    for payload in ({"path": str(root / target)}, {"path": other}):
        status, _ = post(host, port, f"/v1/models/{name}/load",
                         json.dumps(payload).encode())
        if status == 200:
            assert name in daemon.model_names()


def test_daemon_still_exact_after_fuzzing(live, serve_images,
                                          serve_reference_program):
    # runs after the two properties above (file order)
    daemon, host, port, _ = live
    assert all(worker.is_alive() for worker in daemon.runtime("m").workers)
    status, payload = post(host, port, "/v1/models/m/predict", json.dumps(
        {"inputs": serve_images[:5].tolist(),
         "return_logits": True}).encode())
    assert status == 200
    reference = serve_reference_program.run(serve_images[:5], batch_size=5)
    assert np.array_equal(np.asarray(payload["logits"], dtype=np.float32),
                          reference)
