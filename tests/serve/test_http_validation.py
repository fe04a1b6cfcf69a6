"""Strict request validation at the HTTP boundary.

Every malformed body gets a 400 whose error names the offending field
(``recent[2].t``, ``query_time``, ...); a valid body still answers with
the canonical bytes of a direct in-process predict.
"""

import asyncio
import json

import pytest

from repro import TimedPoint
from repro.serve import PredictionService, ServeConfig, render_predict_body
from repro.serve.handlers import encode_json, route
from repro.serve.shard import RouterConfig, RouterService

from tests.serve.conftest import commuter_base

BASE = commuter_base()
T0 = 40 * len(BASE)  # the day after the fixture history
WINDOW = [[T0 + i, float(BASE[i][0]), float(BASE[i][1])] for i in range(4)]


def with_fix(index: int, fix: list) -> list:
    window = [list(f) for f in WINDOW]
    window[index] = fix
    return window


def predict(**overrides) -> bytes:
    payload = {"object_id": "default", "recent": WINDOW, "query_time": T0 + 6}
    payload.update(overrides)
    return encode_json(payload)


HUGE = int("1" + "0" * 400)  # beyond float range

MALFORMED = [
    # (case, path, body, field named in the error)
    ("float t truncated", "/predict",
     predict(recent=with_fix(0, [1.5, 0.0, 0.0])), "recent[0].t"),
    ("string fix", "/predict",
     predict(recent=with_fix(0, ["5", "1", "2"])), "recent[0].t"),
    ("string x", "/predict",
     predict(recent=with_fix(1, [T0 + 1, "1", 2.0])), "recent[1].x"),
    ("bool t", "/predict",
     predict(recent=with_fix(0, [True, 0.0, 0.0])), "recent[0].t"),
    ("bool x", "/predict",
     predict(recent=with_fix(2, [T0 + 2, False, 0.0])), "recent[2].x"),
    ("NaN x", "/predict",
     predict(recent=with_fix(1, [T0 + 1, float("nan"), 0.0])), "recent[1].x"),
    ("Infinity y", "/predict",
     predict(recent=with_fix(2, [T0 + 2, 0.0, float("inf")])), "recent[2].y"),
    ("-Infinity x", "/predict",
     predict(recent=with_fix(3, [T0 + 3, float("-inf"), 0.0])), "recent[3].x"),
    ("int beyond float range", "/predict",
     predict(recent=with_fix(0, [T0, 0.0, HUGE])), "recent[0].y"),
    ("time reversed", "/predict",
     predict(recent=WINDOW[::-1]), "recent[1].t"),
    ("repeated t", "/predict",
     predict(recent=with_fix(2, [T0 + 1, 0.0, 0.0])), "recent[2].t"),
    ("short fix", "/predict",
     predict(recent=with_fix(0, [T0, 0.0])), "recent[0]"),
    ("bool query_time", "/predict", predict(query_time=True), "query_time"),
    ("float query_time", "/predict", predict(query_time=T0 + 6.0), "query_time"),
    ("bool k", "/predict", predict(k=True), "k"),
    ("bool k false", "/predict", predict(k=False), "k"),
    ("ingest NaN", "/ingest",
     encode_json({"object_id": "default",
                  "fixes": [[T0, float("nan"), 0.0]]}), "fixes[0].x"),
    ("ingest time reversed", "/ingest",
     encode_json({"object_id": "default",
                  "fixes": [[T0 + 1, 0.0, 0.0], [T0, 0.0, 0.0]]}), "fixes[1].t"),
    ("predict_all bool query_time", "/predict_all",
     encode_json({"query_time": True, "recents": {"default": WINDOW}}),
     "query_time"),
    ("predict_all bool t", "/predict_all",
     encode_json({"query_time": T0 + 6,
                  "recents": {"default": with_fix(0, [True, 0.0, 0.0])}}),
     "recents['default'][0].t"),
]


def run(fleet, scenario):
    async def body():
        service = PredictionService(fleet, ServeConfig())
        try:
            return await scenario(service)
        finally:
            await service.drain()

    return asyncio.run(body())


@pytest.mark.parametrize(
    "path,body,field", [case[1:] for case in MALFORMED],
    ids=[case[0] for case in MALFORMED],
)
def test_malformed_body_is_400_naming_the_field(fleet, path, body, field):
    async def scenario(service):
        return await route(service, "POST", path, body)

    status, _, response, _ = run(fleet, scenario)
    assert status == 400
    error = json.loads(response)["error"]
    assert error.startswith(field + " ") or error.startswith(field + "."), error


@pytest.mark.parametrize(
    "body,field",
    [case[2:] for case in MALFORMED if case[1] == "/predict_all"],
    ids=[case[0] for case in MALFORMED if case[1] == "/predict_all"],
)
def test_router_predict_all_rejects_like_a_worker(body, field):
    async def scenario():
        router = RouterService(RouterConfig(num_shards=2))
        try:
            return await router.handle("POST", "/predict_all", body)
        finally:
            await router.stop()

    status, _, response, _ = asyncio.run(scenario())
    assert status == 400
    assert json.loads(response)["error"].startswith(field)


def test_valid_body_answers_canonical_bytes(fleet):
    recent = [TimedPoint(t, x, y) for t, x, y in WINDOW]
    # The commuter route sits on whole metres, so JSON integers carry the
    # same coordinates; they are valid numbers.
    body = predict(recent=[[t, int(x), int(y)] for t, x, y in WINDOW], k=2)
    expected = render_predict_body(
        "default", T0 + 6, fleet["default"].predict(recent, T0 + 6, k=2)
    )

    async def scenario(service):
        return await route(service, "POST", "/predict", body)

    status, _, response, headers = run(fleet, scenario)
    assert status == 200
    assert headers["X-Cache"] == "miss"
    assert response == expected
