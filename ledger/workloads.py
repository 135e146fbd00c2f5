"""The five ledger workloads, each with its output checks.

Every workload is built from the public API of ``repro`` alone and has
the same life cycle:

* ``setup()`` builds (or rebuilds) the topology and runs a fixed,
  seeded warm-up; the warm-up's deterministic observations feed
  ``digest()``;
* ``measure(seconds)`` runs ops until the wall deadline and returns a
  :class:`Phase`;
* ``counters()`` returns cumulative exact counts (events, signals,
  retries, admission sheds) for the traced run;
* ``check()`` returns every violated invariant as a string; the
  observations it reads are plain attributes, so the benchmark's tests
  can doctor them and watch the check fire;
* ``close()`` tears down, and records leftovers for ``check()``.

Why each workload exists is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import time
from bisect import bisect_left
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.chaos.scenarios import SCENARIOS
from repro.core.admission import AdmissionPolicy
from repro.livenet.gateway import Gateway
from repro.livenet.journal import host_for
from repro.livenet.tcp import LiveNode
from repro.network.network import Network
from repro.protocol.codecs import AUDIO
from repro.protocol.slot import RetransmitPolicy
from repro.verification import build_model, verify_model

__all__ = ["WORKLOADS", "Phase", "DEFAULT_SEED", "PINNED"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The seed whose warm-up digests are pinned in ``pinned.json``.
DEFAULT_SEED = 0

with open(os.path.join(HERE, "pinned.json")) as _fh:
    PINNED: Dict[str, Any] = json.load(_fh)


class Phase(NamedTuple):
    """One measured phase: per-op wall times (seconds) and totals."""

    times: List[float]
    attempted: int
    completed: int
    failed: int
    elapsed: float
    cpu: float
    #: The kind of each op (app or model), parallel to ``times``; empty
    #: when every op is of one kind.
    kinds: List[str] = []


def _digest(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True)
                          .encode("utf-8")).hexdigest()


def _slots(net: Network):
    for channel in net.channels:
        for end in channel.ends:
            yield from end.slots.values()


def _net_counts(net: Network) -> Tuple[int, int]:
    """(signals sent, busy refusals + retransmits) over ``net``."""
    signals = retries = 0
    for slot in _slots(net):
        signals += slot.signals_sent
        retries += slot.busy_refusals + slot.retransmits
    return signals, retries


class _Workload:
    name = ""
    #: Seams the traced run must see called at least once.
    expected_seams: Tuple[str, ...] = ()

    def __init__(self, seed: int, tracer: Any = None):
        self.seed = seed
        self.tracer = tracer
        #: Per-op problems seen while running (first few kept).
        self.problems: List[str] = []
        self.failures = 0
        self.warmup: Any = None

    def _fail(self, message: str) -> None:
        self.failures += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def digest(self) -> str:
        return _digest(self.warmup)

    def counters(self) -> Dict[str, int]:
        return {"events": 0, "signals": 0, "retries": 0, "shed": 0}

    def check(self) -> List[str]:
        return list(self.problems)

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# relay
# ----------------------------------------------------------------------
class Relay(_Workload):
    """Closed loop of open → flowing → close → closed calls through one
    persistent device–box–device topology with one flowlink."""

    name = "relay"
    expected_seams = ("network.drain", "network.build",
                      "protocol.slot_receive", "protocol.slot_send",
                      "core.box_upcall", "core.goal", "media.endpoint",
                      "media.plane")
    WARMUP_CALLS = 200
    EVENTS_PER_CALL = 24
    SIGNALS_PER_CALL = 12

    def setup(self) -> None:
        net = self.net = Network(seed=self.seed)
        a = self.a = net.device("A")
        b = net.device("B", auto_accept=True)
        box = net.box("srv")
        ch_a = net.channel(a, box)
        ch_b = net.channel(box, b)
        box.flow_link(ch_a.end_for(box).slot(), ch_b.end_for(box).slot())
        self.slot = ch_a.end_for(a).slot()
        self.far = ch_b.end_for(b).slot()
        self.all_slots = list(_slots(net))
        net.settle()  # channel set-up traffic, before the first call
        #: Totals the check re-derives the per-call invariant from.
        self.calls = self.events = self.signals = self.broken = 0
        self._run_calls(self.WARMUP_CALLS, None)
        self.warmup = {"calls": self.calls, "events": self.events,
                       "signals": self.signals,
                       "states": [s.state for s in self.all_slots]}

    def _run_calls(self, limit: Optional[int],
                   deadline: Optional[float]) -> List[float]:
        slot, far, open_, close_ = (self.slot, self.far, self.a.open,
                                    self.a.close)
        loop, settle, slots = self.net.loop, self.net.settle, self.all_slots
        clock, tracer = time.perf_counter, self.tracer
        times: List[float] = []
        while (limit is None or len(times) < limit) \
                and (deadline is None or clock() < deadline):
            if tracer is not None:
                tracer.op = len(times)
            events0 = loop.executed
            signals0 = sum(s.signals_sent for s in slots)
            t0 = clock()
            open_(slot, AUDIO)
            settle()
            flowing = slot.is_flowing and far.is_flowing
            close_(slot)
            settle()
            times.append(clock() - t0)
            events = loop.executed - events0
            signals = sum(s.signals_sent for s in slots) - signals0
            self.calls += 1
            self.events += events
            self.signals += signals
            if not flowing or not slot.is_closed or not far.is_closed \
                    or events != self.EVENTS_PER_CALL \
                    or signals != self.SIGNALS_PER_CALL:
                self.broken += 1
                self._fail("call %d: flowing=%s closed=%s events=%d "
                           "signals=%d" % (self.calls, flowing,
                                           slot.is_closed and far.is_closed,
                                           events, signals))
        return times

    def check(self) -> List[str]:
        problems = list(self.problems)
        if self.events != self.EVENTS_PER_CALL * self.calls \
                or self.signals != self.SIGNALS_PER_CALL * self.calls:
            problems.append(
                "%d calls made %d events and %d signals, want %d and %d "
                "per call" % (self.calls, self.events, self.signals,
                              self.EVENTS_PER_CALL, self.SIGNALS_PER_CALL))
        return problems

    def measure(self, seconds: float) -> Phase:
        failures0 = self.failures
        cpu0, wall0 = time.process_time(), time.perf_counter()
        times = self._run_calls(None, wall0 + seconds)
        elapsed = time.perf_counter() - wall0
        failed = self.failures - failures0
        return Phase(times, len(times), len(times) - failed, failed,
                     elapsed, time.process_time() - cpu0)

    def counters(self) -> Dict[str, int]:
        signals, retries = _net_counts(self.net)
        return {"events": self.net.loop.executed, "signals": signals,
                "retries": retries, "shed": 0}


# ----------------------------------------------------------------------
# apps
# ----------------------------------------------------------------------
class Apps(_Workload):
    """Closed loop over the six bundled app scenarios, each op one
    scenario on a fresh seeded faithful network."""

    name = "apps"
    expected_seams = ("network.drain", "network.build", "network.timers",
                      "protocol.slot_receive", "protocol.slot_send",
                      "core.box_upcall", "core.goal", "core.program",
                      "media.endpoint", "media.plane")
    #: Op seeds are spread by a large odd stride so that two workload
    #: seeds never share a scenario seed.
    SEED_STRIDE = 1_000_003

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        self.ops = 0
        self.totals = {"events": 0, "signals": 0, "retries": 0}
        #: Every distinct fingerprint each app produced, as JSON text.
        self.fingerprints: Dict[str, List[str]] = {}
        self._order: List[str] = []
        self.warmup = []
        for _ in range(len(SCENARIOS)):
            app, events, signals, fp = self._op()
            self.warmup.append([app, events, signals, fp])

    def _next_app(self) -> str:
        if not self._order:
            self._order = sorted(SCENARIOS)
            self.rng.shuffle(self._order)
        return self._order.pop()

    def _op(self) -> Tuple[str, int, int, Any]:
        app = self._next_app()
        t0 = time.perf_counter()
        net = Network(seed=self.seed * self.SEED_STRIDE + self.ops)
        fp = SCENARIOS[app](net)
        self.last_time = time.perf_counter() - t0
        self.ops += 1
        signals, retries = _net_counts(net)
        events = net.loop.executed
        self.totals["events"] += events
        self.totals["signals"] += signals
        self.totals["retries"] += retries
        text = json.dumps(fp, sort_keys=True)
        seen = self.fingerprints.setdefault(app, [])
        if text not in seen:
            seen.append(text)
        if text != self._faithful(app):
            self._fail("op %d (%s): fingerprint %s differs from the "
                       "faithful one" % (self.ops, app, text))
        return app, events, signals, json.loads(text)

    @staticmethod
    def _faithful(app: str) -> str:
        return json.dumps(PINNED["apps_fingerprints"][app], sort_keys=True)

    def check(self) -> List[str]:
        problems = list(self.problems)
        for app, seen in sorted(self.fingerprints.items()):
            wrong = [fp for fp in seen if fp != self._faithful(app)]
            if wrong:
                problems.append("%s: fingerprints %s differ from the "
                                "faithful %s" % (app, wrong,
                                                 self._faithful(app)))
        return problems

    def measure(self, seconds: float) -> Phase:
        failures0 = self.failures
        clock, tracer = time.perf_counter, self.tracer
        cpu0, wall0 = time.process_time(), clock()
        deadline = wall0 + seconds
        times: List[float] = []
        kinds: List[str] = []
        while clock() < deadline:
            if tracer is not None:
                tracer.op = len(times)
            kinds.append(self._op()[0])
            times.append(self.last_time)
        elapsed = clock() - wall0
        failed = self.failures - failures0
        return Phase(times, len(times), len(times) - failed, failed,
                     elapsed, time.process_time() - cpu0, kinds)

    def counters(self) -> Dict[str, int]:
        return dict(self.totals, shed=0)


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------
class _Session:
    __slots__ = ("tenant", "slot", "measured", "wall0", "redescribe_event")

    def __init__(self, tenant: int, slot: Any, measured: bool):
        self.tenant = tenant
        self.slot = slot
        self.measured = measured
        self.wall0 = time.perf_counter()
        self.redescribe_event = None


class Churn(_Workload):
    """Open loop on the simulated clock: Poisson arrivals through one
    admission-controlled core box to many tenants."""

    name = "churn"
    expected_seams = ("network.drain", "network.build", "network.timers",
                      "protocol.slot_receive", "protocol.slot_send",
                      "core.box_upcall", "core.goal", "core.admission",
                      "media.endpoint", "media.plane")
    TENANTS = 16
    SLOTS_PER_TENANT = 8
    ARRIVAL_RATE = 20.0     # sessions per simulated second
    HOLD_MEAN = 2.0         # simulated seconds
    REDESCRIBE_PROB = 0.25
    ZIPF_S = 0.6
    # Sized so that most sessions complete and roughly one in ten is
    # refused: blocked on a full tenant, or busy-refused and then either
    # shed to noMedia or abandoned in backoff.
    ADMISSION = AdmissionPolicy(max_concurrent=40, per_tenant_concurrent=6,
                                setup_rate=30.0, setup_burst=10,
                                retry_after=0.1)
    RETRANSMIT = RetransmitPolicy(initial=0.1, backoff=2.0, max_retries=3,
                                  stale_after=0.5)
    BACKPRESSURE = 64
    WARMUP_SIM_S = 5.0
    CHUNK_SIM_S = 0.5

    def setup(self) -> None:
        net = self.net = Network(seed=self.seed, retransmit=self.RETRANSMIT,
                                 backpressure=self.BACKPRESSURE)
        self.loop = net.loop
        self.core = net.box("core")
        self.core.set_admission(self.ADMISSION)
        tunnels = ["t%d" % i for i in range(self.SLOTS_PER_TENANT)]
        self.callers: List[Any] = []
        self.caller_slots: List[List[Any]] = []
        for t in range(self.TENANTS):
            caller = net.device("A%d" % t)
            callee = net.device("B%d" % t, auto_accept=True)
            ch_in = net.channel(caller, self.core, tunnels=tunnels)
            ch_out = net.channel(self.core, callee, tunnels=tunnels)
            in_end, out_end = ch_in.end_for(self.core), \
                ch_out.end_for(self.core)
            for tid in tunnels:
                self.core.flow_link(in_end.slot(tid), out_end.slot(tid))
            self.callers.append(caller)
            self.caller_slots.append([ch_in.end_for(caller).slot(tid)
                                      for tid in tunnels])
        weights = [1.0 / (t + 1) ** self.ZIPF_S for t in range(self.TENANTS)]
        total, acc = sum(weights), 0.0
        self._cum: List[float] = []
        for w in weights:
            acc += w / total
            self._cum.append(acc)
        self.in_use: Dict[Any, _Session] = {}
        self.stopped = False
        self.measuring = False
        self.session = dict.fromkeys(
            ("started", "completed", "shed", "abandoned", "failed",
             "blocked", "redescribes"), 0)
        #: The measured phase's share of ``session`` and its residence
        #: times (wall seconds from arrival to end).
        self.measured = dict.fromkeys(("arrived", "completed"), 0)
        self.residence: List[float] = []
        self._arrival = None
        self._schedule_arrival()
        self.loop.advance(self.WARMUP_SIM_S)
        signals, retries = _net_counts(net)
        self.warmup = {"sessions": dict(self.session),
                       "events": self.loop.executed, "signals": signals,
                       "retries": retries,
                       "admission": self.core.admission.counters()}

    # -- the churn process ---------------------------------------------
    def _schedule_arrival(self) -> None:
        delay = self.loop.rng.expovariate(self.ARRIVAL_RATE)
        self._arrival = self.loop.schedule(delay, self._arrive)

    def _arrive(self) -> None:
        self._arrival = None
        if self.stopped:
            return
        self._schedule_arrival()
        rng = self.loop.rng
        tenant = min(bisect_left(self._cum, rng.random()),
                     self.TENANTS - 1)
        if self.measuring:
            self.measured["arrived"] += 1
        slot = next((s for s in self.caller_slots[tenant]
                     if s.is_closed and s not in self.in_use), None)
        if slot is None:
            self.session["blocked"] += 1
            return
        session = _Session(tenant, slot, self.measuring)
        self.in_use[slot] = session
        self.session["started"] += 1
        self.callers[tenant].open(slot, AUDIO)
        hold = rng.expovariate(1.0 / self.HOLD_MEAN)
        self.loop.schedule(hold, self._end, session)
        if rng.random() < self.REDESCRIBE_PROB:
            session.redescribe_event = self.loop.schedule(
                hold * 0.5, self._redescribe, session)

    def _redescribe(self, session: _Session) -> None:
        session.redescribe_event = None
        if self.in_use.get(session.slot) is session \
                and session.slot.is_flowing:
            self.session["redescribes"] += 1
            self.callers[session.tenant].refresh_descriptor(session.slot)

    def _end(self, session: _Session) -> None:
        slot = session.slot
        if session.redescribe_event is not None:
            session.redescribe_event.cancel()
        if slot.is_live:
            self.callers[session.tenant].close(slot)
            outcome = "completed"
        elif slot.failed:
            # The busy/retry budget ran out: degraded to noMedia.
            outcome = "shed" if slot.busy_refusals > 0 else "failed"
        else:
            # Still backing off after a busy refusal: the caller gives up.
            slot.force_close()
            outcome = "abandoned"
        self.session[outcome] += 1
        if outcome == "failed":
            self._fail("session on %s failed for a reason other than "
                       "busy" % slot.name)
        del self.in_use[slot]
        if session.measured:
            self.residence.append(time.perf_counter() - session.wall0)
            if outcome == "completed":
                self.measured["completed"] += 1

    # -- measurement -----------------------------------------------------
    def measure(self, seconds: float) -> Phase:
        failures0 = self.failures
        clock = time.perf_counter
        self.measured = dict.fromkeys(self.measured, 0)
        self.residence = []
        cpu0, wall0 = time.process_time(), clock()
        deadline = wall0 + seconds
        self.measuring = True
        while clock() < deadline:
            if self.tracer is not None:
                self.tracer.op = self.measured["arrived"]
            self.loop.advance(self.CHUNK_SIM_S)
        self.measuring = False
        # Drain inside the measured phase: every measured session ends.
        self._drain()
        elapsed = clock() - wall0
        attempted = self.measured["arrived"]
        return Phase(self.residence, attempted, self.measured["completed"],
                     self.failures - failures0, elapsed,
                     time.process_time() - cpu0)

    def _drain(self) -> None:
        """Stop arrivals and run until every session has ended."""
        self.stopped = True
        if self._arrival is not None:
            self._arrival.cancel()
            self._arrival = None
        self.loop.run_until_quiescent(max_events=10_000_000)

    def close(self) -> None:
        self._drain()

    def counters(self) -> Dict[str, int]:
        signals, retries = _net_counts(self.net)
        return {"events": self.loop.executed, "signals": signals,
                "retries": retries,
                "shed": self.core.admission.shed_total}

    def check(self) -> List[str]:
        problems = list(self.problems)
        if self.in_use:
            problems.append("%d sessions never ended" % len(self.in_use))
        for slot in _slots(self.net):
            if not slot.is_dead:
                problems.append("slot %s left %s" % (slot.name, slot.state))
        s = self.session
        if s["started"] != s["completed"] + s["shed"] + s["abandoned"] \
                + s["failed"]:
            problems.append("session accounting mismatch: %s" % s)
        if s["shed"] and not self.core.admission.shed_total:
            problems.append("devices saw busy failures but the box shed "
                            "nothing")
        return problems


# ----------------------------------------------------------------------
# live
# ----------------------------------------------------------------------
async def http_post(host: str, port: int, path: str,
                    body: Dict[str, Any]) -> Tuple[int, Any]:
    """Minimal HTTP/1.1 JSON POST over one fresh connection."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = json.dumps(body).encode("utf-8")
        writer.write(("POST %s HTTP/1.1\r\nHost: %s:%d\r\n"
                      "Connection: close\r\n"
                      "Content-Type: application/json\r\n"
                      "Content-Length: %d\r\n\r\n"
                      % (path, host, port, len(payload))).encode("latin-1")
                     + payload)
        await writer.drain()
        status = int((await reader.readline()).split(b" ", 2)[1])
        length = 0
        while True:
            line = (await reader.readline()).strip()
            if not line:
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        raw = await reader.readexactly(length)
        return status, json.loads(raw) if raw else None
    finally:
        writer.close()
        await writer.wait_closed()


class Live(_Workload):
    """Closed loop of POST /call over loopback HTTP to a gateway whose
    live leg crosses loopback TCP to a second node."""

    name = "live"
    expected_seams = ("network.build", "protocol.slot_receive",
                      "protocol.slot_send", "core.box_upcall", "core.goal",
                      "media.endpoint", "livenet.wait", "livenet.pump",
                      "livenet.wire", "livenet.reference_fp",
                      "livenet.place_call", "livenet.http_client")
    #: Far above the request rate: the limiter runs on every request
    #: but never refuses.
    RATE, BURST = 100_000.0, 10_000
    CALL = {"to": "bob@b"}

    def __init__(self, seed: int, tracer: Any = None):
        super().__init__(seed, tracer)
        self.aio = asyncio.new_event_loop()
        self.stack: Optional[Tuple[LiveNode, LiveNode, Gateway]] = None
        #: Every response as (status, body), in completion order; the
        #: first is the setup call whose journal must match the sim.
        self.responses: List[Tuple[int, Any]] = []
        self.first: Optional[Dict[str, Any]] = None
        self.leftovers: Dict[str, Any] = {}

    def setup(self) -> None:
        self.aio.run_until_complete(self._setup())

    async def _setup(self) -> None:
        a = LiveNode("a", seed=self.seed)
        b = LiveNode("b", seed=self.seed)
        await a.start()
        await b.start()
        if self.tracer is not None:
            self.tracer.live_loops[:] = [a.loop, b.loop]
        b.net.device("bob", auto_accept=True, host=host_for("bob"))
        gateway = Gateway(a, rate=self.RATE, burst=self.BURST)
        await gateway.start()
        a.add_peer("b", *b.listen_address)
        self.stack = (a, b, gateway)
        self.responses = []
        status, body = await self._call()
        self.first = body if status == 200 else None
        self.warmup = body["journal"] if status == 200 else status

    async def _call(self) -> Tuple[int, Any]:
        gateway = self.stack[2]
        request = http_post(*gateway.listen_address, "/call", self.CALL)
        if self.tracer is not None:
            request = self.tracer.client_span(request)
        status, body = await request
        self.responses.append((status, body))
        return status, body

    def measure(self, seconds: float) -> Phase:
        return self.aio.run_until_complete(self._measure(seconds))

    async def _measure(self, seconds: float) -> Phase:
        clock = time.perf_counter
        start = len(self.responses)
        times: List[float] = []
        cpu0, wall0 = time.process_time(), clock()
        deadline = wall0 + seconds
        # One client: a second one would overlap the 10 ms polls of two
        # calls and make the latency tail bimodal from run to run.
        while clock() < deadline:
            if self.tracer is not None:
                self.tracer.op = len(times)
            t0 = clock()
            await self._call()
            times.append(clock() - t0)
        elapsed = clock() - wall0
        cpu = time.process_time() - cpu0
        failed = len(self.problems_in(self.responses[start:]))
        return Phase(times, len(times), len(times) - failed, failed,
                     elapsed, cpu)

    def problems_in(self, responses: List[Tuple[int, Any]]) -> List[str]:
        """Per-response violations against the first call."""
        out = []
        first = self.first["journal"] if self.first else {}
        for status, body in responses:
            if status != 200:
                out.append("status %d: %s" % (status, body))
            elif body.get("state") != "flowing":
                out.append("call not flowing: %s" % body.get("state"))
            elif (body["journal"]["sent"], body["journal"]["received"]) \
                    != (first.get("sent"), first.get("received")):
                out.append("journal counts %s differ from the first "
                           "call's %s" % (body["journal"], first))
        return out

    def counters(self) -> Dict[str, int]:
        a, b, _ = self.stack
        signals = _net_counts(a.net)[0] + _net_counts(b.net)[0]
        for status, body in self.responses:
            if status == 200:
                signals += body["journal"]["sent"] \
                    + body["journal"]["received"]
        return {"events": a.loop.executed + b.loop.executed,
                "signals": signals, "retries": 0, "shed": 0}

    def close(self) -> None:
        if self.stack is not None:
            self.aio.run_until_complete(self._teardown())
        self.aio.close()

    async def _teardown(self) -> None:
        a, b, gateway = self.stack
        self.stack = None
        # The callee side unmaps after the BYE crosses the wire.
        await b.wait_for(lambda: not b.channels, timeout=2.0)
        self.leftovers = {
            "channels": sorted(a.channels) + sorted(b.channels),
            "gateway_rejected": gateway.rejected,
        }
        await gateway.stop()
        await a.stop()
        await b.stop()
        await asyncio.sleep(0)
        self.leftovers["pending_sim_events"] = \
            a.loop.pending() + b.loop.pending()
        self.leftovers["tasks"] = sorted(
            t.get_name() for t in asyncio.all_tasks()
            if t is not asyncio.current_task())

    def check(self) -> List[str]:
        problems = self.problems_in(self.responses)
        if self.first is None:
            problems.append("setup call failed: %s" % (self.responses[:1],))
        elif not self.first.get("parity"):
            problems.append("first call lost sim parity: journal %s, "
                            "reference %s" % (self.first["journal"],
                                              self.first.get("reference")))
        left = self.leftovers
        if left.get("channels"):
            problems.append("live channels left: %s" % left["channels"])
        if left.get("pending_sim_events"):
            problems.append("%d sim events pending after stop"
                            % left["pending_sim_events"])
        if left.get("tasks"):
            problems.append("asyncio tasks left: %s" % left["tasks"])
        if left.get("gateway_rejected"):
            problems.append("gateway rate-limited %d requests"
                            % left["gateway_rejected"])
        return problems


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
#: The rich budgets of ``benchmarks/baselines/verification_seed.json``.
RICH = dict(phase1_budget=2, modify_budget=2, queue_capacity=8,
            max_versions=4)


def _baseline_counts() -> Dict[str, Dict[str, int]]:
    path = os.path.join(ROOT, "benchmarks", "baselines",
                        "verification_seed.json")
    with open(path) as fh:
        return json.load(fh)["models"]


class Verify(_Workload):
    """Serial ``verify_model`` over the 12 Sec. VIII-A path models and
    the three largest rich-budget flowlink models.  One op is one sweep
    over all of them: per-model times span three orders of magnitude,
    so their median and tail would pick out one model or another from
    run to run."""

    name = "verify"
    expected_seams = ("verification.explore", "verification.check")
    PATHS = ("CC", "CH", "CO", "HH", "HO", "OO")
    BIG = ("HH", "HO", "OO")

    def __init__(self, seed: int, tracer: Any = None, big: bool = True):
        super().__init__(seed, tracer)
        self.big = big
        self.baseline = _baseline_counts()

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        self.small = [("%s@small" % m.key, m) for link in (False, True)
                      for m in (build_model(p, with_flowlink=link)
                                for p in self.PATHS)]
        self.large = [("%s+link@rich" % p,
                       build_model(p, with_flowlink=True, **RICH))
                      for p in self.BIG] if self.big else []
        #: (key, VerificationResult) of every model verified.
        self.results: List[Tuple[str, Any]] = []
        self._verify(self.small[0])
        self.warmup = [[k, r.states, r.transitions, r.ok]
                       for k, r in self.results]

    def _verify(self, entry: Tuple[str, Any]) -> None:
        key, model = entry
        result = verify_model(model)
        self.results.append((key, result))
        self._judge(key, result)

    def _judge(self, key: str, result: Any) -> None:
        for problem in self._violations(key, result):
            self._fail(problem)

    def _violations(self, key: str, result: Any) -> List[str]:
        want = self.baseline[key]
        out = []
        if not result.ok:
            out.append("%s: verdict failed (safety=%s property=%s "
                       "truncated=%s)" % (key, result.safety_ok,
                                          result.property_ok,
                                          result.truncated))
        if (result.states, result.transitions) \
                != (want["states"], want["transitions"]):
            out.append("%s: %d states / %d transitions, baseline %d / %d"
                       % (key, result.states, result.transitions,
                          want["states"], want["transitions"]))
        return out

    def measure(self, seconds: float) -> Phase:
        """Whole sweeps, at least one, starting another only if the last
        sweep's length says it ends by the deadline."""
        clock = time.perf_counter
        cpu0, wall0 = time.process_time(), clock()
        deadline = wall0 + seconds
        times: List[float] = []
        failed = 0
        while not times or clock() + times[-1] <= deadline:
            if self.tracer is not None:
                self.tracer.op = len(times)
            failures = self.failures
            models = self.small + self.large
            self.rng.shuffle(models)
            start = clock()
            for entry in models:
                self._verify(entry)
            times.append(clock() - start)
            failed += self.failures > failures
        return Phase(times, len(times), len(times) - failed, failed,
                     clock() - wall0, time.process_time() - cpu0)

    def digest(self) -> str:
        return _digest(sorted({k: [r.states, r.transitions]
                               for k, r in self.results}.items()))

    def check(self) -> List[str]:
        return [problem for key, result in self.results
                for problem in self._violations(key, result)]


WORKLOADS = {w.name: w for w in (Relay, Apps, Churn, Live, Verify)}
