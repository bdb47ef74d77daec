"""End-to-end tests for the scheduling service (:mod:`repro.service`).

The daemon runs on a background thread with ``workers=0`` (in-process
solving — no fork, fast startup) and real TCP sockets on ephemeral
ports; the client is the real stdlib client.  Everything asserted here
is the service contract: bit-identical schedules, cache hit semantics,
single-flight dedup, clean error codes, graceful shutdown.
"""

import json
import socket
import threading
import time

import pytest

from repro.io import schedule_to_dict
from repro.pipeline import SchedulingPipeline
from repro.resilience import RetryPolicy
from repro.schedule import validate_schedule
from repro.service import (
    ResultCache,
    ServiceClient,
    ServiceError,
    SolverService,
    serve_in_thread,
)
from repro.workloads import make_instance


def _inst(seed=0, size=12, m=4):
    return make_instance("layered", size, m, model="power", seed=seed)


@pytest.fixture()
def daemon():
    with serve_in_thread(workers=0) as handle:
        yield handle


@pytest.fixture()
def client(daemon):
    with ServiceClient(port=daemon.port) as c:
        yield c


class TestSolveEndpoint:
    def test_served_schedule_bit_identical_to_pipeline(self, client):
        inst = _inst()
        reply = client.solve(inst)
        assert reply["status"] == "ok"
        assert reply["cached"] is False and reply["deduped"] is False
        ref = SchedulingPipeline("jz", "earliest-start").solve(inst)
        assert reply["makespan"] == ref.makespan
        assert reply["lower_bound"] == ref.lower_bound
        assert reply["schedule"] == schedule_to_dict(ref.schedule)
        assert reply["instance_key"] == inst.content_key()

    def test_served_schedule_is_validator_clean(self, client):
        from repro.io import schedule_from_dict

        inst = _inst(seed=4)
        reply = client.solve(inst, algorithm="ltw", priority="fifo")
        sched = schedule_from_dict(reply["schedule"])
        assert validate_schedule(inst, sched) == []
        assert reply["makespan"] >= reply["lower_bound"]

    def test_second_identical_request_is_a_cache_hit(self, client):
        inst = _inst(seed=1)
        first = client.solve(inst)
        second = client.solve(inst)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["schedule"] == first["schedule"]

    def test_alias_and_label_changes_share_one_cache_line(self, client):
        from repro.core.instance import Instance

        inst = _inst(seed=2)
        client.solve(inst, algorithm="greedy-critical-path")
        relabeled = Instance(inst.tasks, inst.dag, inst.m, name="other")
        reply = client.solve(relabeled, algorithm="greedy")
        assert reply["cached"] is True

    def test_different_strategy_is_a_different_cache_line(self, client):
        inst = _inst(seed=3)
        client.solve(inst, algorithm="jz")
        reply = client.solve(inst, algorithm="sequential")
        assert reply["cached"] is False

    def test_instance_dict_payload_accepted(self, client):
        from repro.io import instance_to_dict

        inst = _inst(seed=5)
        reply = client.solve(instance_to_dict(inst))
        assert reply["makespan"] == pytest.approx(
            SchedulingPipeline().solve(inst).makespan
        )

    def test_stats_counters(self, client):
        inst = _inst(seed=6)
        client.solve(inst)
        client.solve(inst)
        s = client.stats()
        assert s["solved"] == 1
        assert s["cache"]["hits"] == 1 and s["cache"]["misses"] == 1
        assert s["workers"] == 0
        assert s["requests"] >= 3


class TestRepeatedBodies:
    """A /solve body seen before is answered from the cache without
    re-parsing it; anything else takes the full path."""

    def _count_parses(self, monkeypatch):
        parses = []
        real = SolverService._parse_instance

        def counting(data):
            parses.append(1)
            return real(data)

        monkeypatch.setattr(
            SolverService, "_parse_instance", staticmethod(counting)
        )
        return parses

    def test_repeated_body_is_a_hit_without_reparsing(
        self, client, monkeypatch
    ):
        from repro.core.instance import Instance

        inst = _inst(seed=9)
        first = client.solve(inst)
        parses = self._count_parses(monkeypatch)
        second = client.solve(inst)
        assert second["cached"] is True and parses == []
        assert second["schedule"] == first["schedule"]
        # New bytes for the same content: parsed once, same cache line.
        relabeled = Instance(inst.tasks, inst.dag, inst.m, name="other")
        assert client.solve(relabeled)["cached"] is True
        assert parses == [1]
        stats = client.stats()["cache"]
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_evicted_entry_is_solved_again(self, monkeypatch):
        a, b = _inst(seed=10), _inst(seed=11)
        with serve_in_thread(workers=0, cache_capacity=1) as handle:
            with ServiceClient(port=handle.port) as c:
                first = c.solve(a)
                c.solve(b)  # evicts a
                parses = self._count_parses(monkeypatch)
                again = c.solve(a)
                assert len(handle.service._solve_bodies) == 1
        assert again["cached"] is False and parses == [1]
        assert again["schedule"] == first["schedule"]

    def test_repeated_body_still_checks_the_deadline_header(self, daemon):
        import http.client

        from repro.io import instance_to_dict

        body = json.dumps({"instance": instance_to_dict(_inst(seed=12))})
        statuses = []
        for headers in ({}, {"X-Deadline-Ms": "soonish"}):
            conn = http.client.HTTPConnection(
                daemon.host, daemon.port, timeout=10
            )
            try:
                conn.request("POST", "/solve", body=body, headers=headers)
                resp = conn.getresponse()
                resp.read()
                statuses.append(resp.status)
            finally:
                conn.close()
        assert statuses == [200, 400]


class TestErrorHandling:
    def test_unknown_strategy_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.solve(_inst(), algorithm="no-such-algorithm")
        assert exc.value.http_status == 400
        assert "no-such-algorithm" in str(exc.value)

    def test_non_string_strategy_is_400(self, client):
        from repro.io import instance_to_dict

        body = {
            "instance": instance_to_dict(_inst()),
            "algorithm": ["jz"],
        }
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/solve", body)
        assert exc.value.http_status == 400
        assert "must be strings" in str(exc.value)
        # The connection survives the bad request.
        assert client.health()["status"] == "ok"

    def test_invalid_instance_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.solve({"format": "repro-instance", "version": 1})
        assert exc.value.http_status == 400
        assert "invalid instance" in str(exc.value)

    def test_nan_times_rejected_cleanly(self, client):
        from repro.io import instance_to_dict

        data = instance_to_dict(_inst())
        del data["fingerprint"]
        data["tasks"][0]["times"][0] = None
        with pytest.raises(ServiceError) as exc:
            client.solve(data)
        assert exc.value.http_status == 400

    def test_missing_instance_field_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/solve", {"algorithm": "jz"})
        assert exc.value.http_status == 400

    def test_unknown_path_is_404_and_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/no-such-path")
        assert exc.value.http_status == 404
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/solve")
        assert exc.value.http_status == 405

    def test_non_json_body_is_400(self, daemon):
        with socket.create_connection(
            (daemon.host, daemon.port), timeout=10
        ) as sock:
            body = b"this is not json"
            sock.sendall(
                b"POST /solve HTTP/1.1\r\n"
                + f"Content-Length: {len(body)}\r\n".encode()
                + b"Connection: close\r\n\r\n"
                + body
            )
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        status_line, _, rest = raw.partition(b"\r\n")
        assert b"400" in status_line
        payload = json.loads(rest.split(b"\r\n\r\n", 1)[1])
        assert "JSON" in payload["error"]

    def test_unbounded_header_flood_rejected(self, daemon):
        with socket.create_connection(
            (daemon.host, daemon.port), timeout=10
        ) as sock:
            sock.sendall(b"POST /solve HTTP/1.1\r\n")
            try:
                for k in range(5000):
                    sock.sendall(b"x-h%d: y\r\n" % k)
            except OSError:
                pass  # daemon already answered and closed
            raw = b""
            try:
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    raw += chunk
            except OSError:
                pass
        assert b"400" in raw.partition(b"\r\n")[0]
        assert b"header section too large" in raw

    def test_chunked_transfer_encoding_rejected_cleanly(self, daemon):
        with socket.create_connection(
            (daemon.host, daemon.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /solve HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n"
            )
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        assert b"501" in raw.partition(b"\r\n")[0]
        assert b"Transfer-Encoding" in raw


class TestSingleFlight:
    def test_concurrent_identical_requests_solve_once(self):
        from repro.pipeline import registry
        from repro.pipeline.base import AllotmentResult

        calls = []
        release = threading.Event()

        def slow_allotment(instance, *, rho=None, mu=None,
                           lp_backend="auto"):
            calls.append(threading.get_ident())
            release.wait(10.0)
            return AllotmentResult(
                allotment=tuple([1] * instance.n_tasks)
            )

        registry._register(
            registry.ALLOTMENT, "slow-singleflight-probe",
            slow_allotment, "test-only", (),
        )
        try:
            inst = _inst(seed=7)
            with serve_in_thread(workers=0) as handle:
                replies = []

                def fire():
                    with ServiceClient(port=handle.port) as c:
                        replies.append(
                            c.solve(
                                inst,
                                algorithm="slow-singleflight-probe",
                            )
                        )

                threads = [
                    threading.Thread(target=fire) for _ in range(4)
                ]
                for t in threads:
                    t.start()
                # Let every request reach the broker and park on the
                # in-flight future before the solve is allowed through.
                deadline = time.monotonic() + 10.0
                while (
                    handle.service.stats()["deduped"] < 3
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                release.set()
                for t in threads:
                    t.join(30.0)
                stats = handle.service.stats()
            assert len(calls) == 1, "solver must run exactly once"
            assert len(replies) == 4
            deduped = [r["deduped"] for r in replies]
            assert deduped.count(True) == 3
            schedules = {json.dumps(r["schedule"]) for r in replies}
            assert len(schedules) == 1
            assert stats["deduped"] == 3 and stats["solved"] == 1
        finally:
            registry._REGISTRY[registry.ALLOTMENT].pop(
                "slow-singleflight-probe"
            )


class TestPoolRecovery:
    def test_crashed_worker_does_not_brick_the_daemon(self):
        # Registered strategies reach fork-start pool workers (the
        # Linux default), so a crash probe can be injected per-test.
        import os as _os

        from repro.pipeline import registry

        def crashing_allotment(instance, *, rho=None, mu=None,
                               lp_backend="auto"):
            _os._exit(13)  # kill the worker process outright

        registry._register(
            registry.ALLOTMENT, "crash-probe", crashing_allotment,
            "test-only", (),
        )
        try:
            inst = _inst(seed=9)
            with serve_in_thread(workers=1) as handle:
                # No retries: pool failures are a retryable code, and
                # transparently re-submitting a *deterministic* poison
                # pill would just crash fresh workers until the breaker
                # degrades it to in-process — where _os._exit would
                # take the daemon with it.
                retry = RetryPolicy(max_attempts=1)
                with ServiceClient(port=handle.port, retry=retry) as c:
                    with pytest.raises(ServiceError) as exc:
                        c.solve(inst, algorithm="crash-probe")
                    assert exc.value.http_status == 500
                    assert exc.value.code == "pool_failure"
                    # The resident pool was replaced: the next miss
                    # must solve normally, not 500 forever.
                    reply = c.solve(inst)
                    assert reply["status"] == "ok"
                    assert c.stats()["pool_restarts"] >= 1
        finally:
            registry._REGISTRY[registry.ALLOTMENT].pop("crash-probe")


class TestCacheIntegration:
    def test_disk_spill_round_trip_through_service(self, tmp_path):
        insts = [_inst(seed=s) for s in range(3)]
        with serve_in_thread(
            workers=0, cache_capacity=1, spill_dir=str(tmp_path / "sp")
        ) as handle:
            with ServiceClient(port=handle.port) as c:
                first = [c.solve(i) for i in insts]  # evicts 0, 1 to disk
                again = c.solve(insts[0])
                stats = c.stats()["cache"]
        assert all(not r["cached"] for r in first)
        assert again["cached"] is True
        assert again["schedule"] == first[0]["schedule"]
        assert stats["spill_hits"] >= 1 and stats["spill_writes"] >= 2

    def test_shared_cache_object_is_observable(self):
        cache = ResultCache(capacity=8)
        inst = _inst(seed=8)
        with serve_in_thread(workers=0, cache=cache) as handle:
            with ServiceClient(port=handle.port) as c:
                c.solve(inst)
        key = (inst.content_key(), "jz", "earliest-start")
        assert key in cache


class TestLifecycle:
    def test_shutdown_delivers_in_flight_response(self):
        # A solve racing POST /shutdown must still get its reply: the
        # drain only force-closes idle connections.
        from repro.pipeline import registry
        from repro.pipeline.base import AllotmentResult

        release = threading.Event()

        def slow_allotment(instance, *, rho=None, mu=None,
                           lp_backend="auto"):
            release.wait(10.0)
            return AllotmentResult(
                allotment=tuple([1] * instance.n_tasks)
            )

        registry._register(
            registry.ALLOTMENT, "slow-drain-probe", slow_allotment,
            "test-only", (),
        )
        try:
            inst = _inst(seed=11)
            handle = serve_in_thread(workers=0)
            box = {}

            def solver():
                with ServiceClient(port=handle.port) as c:
                    box["reply"] = c.solve(
                        inst, algorithm="slow-drain-probe"
                    )

            t = threading.Thread(target=solver)
            t.start()
            deadline = time.monotonic() + 10.0
            while (
                handle.service.stats()["inflight"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            with ServiceClient(port=handle.port) as c:
                c.shutdown()
            release.set()
            t.join(30.0)
            handle._thread.join(30.0)
            assert box["reply"]["status"] == "ok"
            assert not handle._thread.is_alive()
        finally:
            registry._REGISTRY[registry.ALLOTMENT].pop(
                "slow-drain-probe"
            )

    def test_shutdown_endpoint_stops_the_daemon(self):
        handle = serve_in_thread(workers=0)
        with ServiceClient(port=handle.port) as c:
            assert c.health()["status"] == "ok"
            assert c.shutdown()["status"] == "shutting-down"
        handle._thread.join(10.0)
        assert not handle._thread.is_alive()

    def test_bind_failure_raises_instead_of_hanging(self):
        with serve_in_thread(workers=0) as running:
            with pytest.raises(RuntimeError, match="failed to start"):
                serve_in_thread(workers=0, port=running.port)

    def test_start_twice_raises(self):
        import asyncio

        async def _go():
            service = SolverService(workers=0)
            await service.start(port=0)
            with pytest.raises(RuntimeError, match="already started"):
                await service.start(port=0)
            service.request_stop()
            await service.serve_forever()

        asyncio.run(_go())

    def test_bad_configuration_rejected(self):
        with pytest.raises(ValueError):
            SolverService(workers=-1)
        with pytest.raises(Exception):
            SolverService(workers=0, algorithm="nope")

    def test_version_flag(self, capsys):
        from repro import __version__
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out
