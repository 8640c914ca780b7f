"""Path assembly and the multipath shell.

:class:`EmulatedPath` wires the stages for one bidirectional path:

    client --> [loss] --> [uplink] --> [delay] --> server
    server --> [loss] --> [downlink] --> [delay] --> client

:class:`MultipathNetwork` hosts N such paths between two
:class:`Endpoint` objects -- the equivalent of running a client inside
``mpshell`` with per-path traces, as the paper's Appendix B describes.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, Optional, Union

from repro.netem.chaos import ChaosBox, ChaosSchedule
from repro.netem.link import ConstantRateLink, TraceDrivenLink, as_trace
from repro.netem.packet import Datagram
from repro.netem.pipes import DelayBox, LossBox, OutageSchedule
from repro.sim.event_loop import EventLoop

LinkFactory = Callable[[EventLoop, Callable[[Datagram], None]],
                       Union[ConstantRateLink, TraceDrivenLink]]


class Endpoint:
    """A host attached to the network.

    Protocol stacks register a receive callback; ``send`` injects a
    datagram into a specific path direction.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._receive_cb: Optional[Callable[[Datagram], None]] = None
        self._send_fn: Optional[Callable[[Datagram], None]] = None

    def on_receive(self, callback: Callable[[Datagram], None]) -> None:
        self._receive_cb = callback

    def _deliver(self, dgram: Datagram) -> None:
        if self._receive_cb is not None:
            self._receive_cb(dgram)

    def send(self, dgram: Datagram) -> None:
        if self._send_fn is None:
            raise RuntimeError(f"endpoint {self.name} is not attached")
        dgram.src = self.name
        self._send_fn(dgram)


class EmulatedPath:
    """A bidirectional emulated path between client and server; each
    direction builds its own link from ``link_factory``.

    ``send_from_client`` / ``send_from_server`` are the first stage of
    each direction: its loss box, or the chaos box
    :meth:`attach_chaos` puts in front of it.
    """

    def __init__(self, loop: EventLoop, path_id: int,
                 link_factory: LinkFactory,
                 one_way_delay_s: float,
                 deliver_to_client: Callable[[Datagram], None],
                 deliver_to_server: Callable[[Datagram], None],
                 loss_rate: float = 0.0,
                 outages: Optional[OutageSchedule] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.path_id = path_id
        rng = rng if rng is not None else random.Random(path_id)
        self.up_link = link_factory(
            loop, DelayBox(loop, one_way_delay_s, deliver_to_server).send)
        self.up_loss = LossBox(loop, self.up_link.send, loss_rate,
                               outages, rng)
        self.down_link = link_factory(
            loop, DelayBox(loop, one_way_delay_s, deliver_to_client).send)
        self.down_loss = LossBox(loop, self.down_link.send, loss_rate,
                                 outages, rng)
        self.send_from_client = self.up_loss.send
        self.send_from_server = self.down_loss.send
        self._loop = loop
        #: optional chaos-injection stages (see :mod:`repro.netem.chaos`)
        self.up_chaos: Optional[ChaosBox] = None
        self.down_chaos: Optional[ChaosBox] = None

    def attach_chaos(self, up: Optional[ChaosSchedule] = None,
                     down: Optional[ChaosSchedule] = None,
                     rng: Optional[random.Random] = None) -> None:
        """Insert chaos boxes in front of either direction's pipeline."""
        if up is not None and not up.is_noop():
            self.up_chaos = ChaosBox(self._loop, self.up_loss.send, up,
                                     rng=rng)
            self.send_from_client = self.up_chaos.send
        if down is not None and not down.is_noop():
            self.down_chaos = ChaosBox(self._loop, self.down_loss.send, down,
                                       rng=rng)
            self.send_from_server = self.down_chaos.send

    @property
    def down_bytes_out(self) -> int:
        """Downlink bytes delivered -- used for traffic-cost accounting."""
        return self.down_link.stats.bytes_out


class MultipathNetwork:
    """N emulated paths between client hosts and a server (mpshell).

    The classic shape is one client and one server.  For multi-user
    contention workloads, :meth:`add_client` attaches additional client
    endpoints to the *same* set of paths: every endpoint's datagrams
    share each path's link capacity and queue (one cell, many users),
    and downlink delivery is dispatched by the datagram's ``dst``
    address.  A datagram without a known ``dst`` goes to the default
    client, which keeps single-session usage unchanged.
    """

    def __init__(self, loop: EventLoop) -> None:
        self.loop = loop
        self.client = Endpoint("client")
        self.server = Endpoint("server")
        self.paths: Dict[int, EmulatedPath] = {}
        self.client._send_fn = self._from_client
        self.server._send_fn = self._from_server
        #: all client endpoints by name (shared-link attachment)
        self.clients: Dict[str, Endpoint] = {"client": self.client}
        clients, default = self.clients, self.client

        def deliver_client(dgram: Datagram) -> None:
            """Dispatch a downlink datagram to the addressed client.
            A closure, not a method: every path's downlink keeps it, and
            it must not lead back to the network."""
            endpoint = clients.get(dgram.dst)
            (endpoint if endpoint is not None else default)._deliver(dgram)

        self._deliver_client = deliver_client

    def teardown(self) -> None:
        """Unhook every endpoint once the session is over: the stacks'
        receive callbacks and each endpoint's way back into the network
        are the edges that close loops through it.  Paths and their
        link stats stay readable."""
        for endpoint in (self.server, *self.clients.values()):
            endpoint._receive_cb = endpoint._send_fn = None

    def add_client(self, name: str) -> Endpoint:
        """Attach another client host to the shared paths.

        The new endpoint sends into the same per-path links as every
        other client (contending for capacity and queue space) and
        receives the downlink datagrams addressed to ``name``.
        """
        if name in self.clients or name == self.server.name:
            raise ValueError(f"duplicate endpoint name {name!r}")
        endpoint = Endpoint(name)
        endpoint._send_fn = self._from_client
        self.clients[name] = endpoint
        return endpoint

    def _add_path(self, path_id: int, link_factory: LinkFactory,
                  one_way_delay_s: float, loss_rate: float,
                  outages: Optional[OutageSchedule],
                  rng: Optional[random.Random]) -> EmulatedPath:
        if path_id in self.paths:
            raise ValueError(f"duplicate path id {path_id}")
        path = self.paths[path_id] = EmulatedPath(
            self.loop, path_id, link_factory, one_way_delay_s,
            deliver_to_client=self._deliver_client,
            deliver_to_server=self.server._deliver,
            loss_rate=loss_rate, outages=outages, rng=rng)
        return path

    def add_simple_path(self, path_id: int, rate_bps: float,
                        one_way_delay_s: float, loss_rate: float = 0.0,
                        queue_limit_bytes: int = 256 * 1024,
                        outages: Optional[OutageSchedule] = None,
                        rng: Optional[random.Random] = None) -> EmulatedPath:
        """Convenience: symmetric constant-rate path."""

        def factory(loop: EventLoop, deliver: Callable[[Datagram], None]):
            return ConstantRateLink(loop, rate_bps, deliver,
                                    queue_limit_bytes=queue_limit_bytes)

        return self._add_path(path_id, factory, one_way_delay_s, loss_rate,
                              outages, rng)

    def add_trace_path(self, path_id: int, trace_ms: Iterable[int],
                       one_way_delay_s: float,
                       loss_rate: float = 0.0,
                       queue_limit_bytes: int = 256 * 1024,
                       outages: Optional[OutageSchedule] = None,
                       rng: Optional[random.Random] = None) -> EmulatedPath:
        """Convenience: trace-driven path, both directions replaying the
        one trace (each from its own link)."""
        trace = as_trace(trace_ms)

        def factory(loop: EventLoop, deliver: Callable[[Datagram], None]):
            return TraceDrivenLink(loop, trace, deliver,
                                   queue_limit_bytes=queue_limit_bytes)

        return self._add_path(path_id, factory, one_way_delay_s, loss_rate,
                              outages, rng)

    def _from_client(self, dgram: Datagram) -> None:
        path = self.paths.get(dgram.path_id)
        if path is None:
            raise KeyError(f"no path {dgram.path_id}")
        dgram.dst = self.server.name
        path.send_from_client(dgram)

    def _from_server(self, dgram: Datagram) -> None:
        path = self.paths.get(dgram.path_id)
        if path is None:
            raise KeyError(f"no path {dgram.path_id}")
        if dgram.dst not in self.clients:
            # Unaddressed (or unknown) traffic goes to the default
            # client -- the single-session wiring never sets ``dst``.
            dgram.dst = self.client.name
        path.send_from_server(dgram)
