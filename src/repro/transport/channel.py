"""Datagram channels: perfect in-memory delivery and real-socket loopback.

A channel accepts encoded datagrams from the sender and delivers them to
subscribed callbacks (the receiver).  The abstraction lets the same collector
and receiver code run over

* an in-memory queue (fast, deterministic -- the default for a deployment), or
* genuine UDP sockets on the loopback interface.

A lossy or hostile link is not SIREN's: the simulated network wraps one of
these in :class:`~repro.hpcsim.faults.FaultyChannel`.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from typing import Callable, Protocol


DatagramCallback = Callable[[bytes], None]


class Channel(Protocol):
    """Anything that can carry datagrams from senders to subscribers."""

    def send(self, datagram: bytes) -> bool:
        """Submit one datagram; returns True if it was delivered (or queued)."""
        ...

    def subscribe(self, callback: DatagramCallback) -> None:
        """Register a delivery callback."""
        ...


@dataclass
class InMemoryChannel:
    """Perfect, synchronous delivery to all subscribers."""

    datagrams_sent: int = field(init=False, default=0)
    bytes_sent: int = field(init=False, default=0)
    _subscribers: list[DatagramCallback] = field(init=False, default_factory=list)

    def subscribe(self, callback: DatagramCallback) -> None:
        """Register a delivery callback."""
        self._subscribers.append(callback)

    def send(self, datagram: bytes) -> bool:
        """Deliver the datagram to every subscriber immediately."""
        self.datagrams_sent += 1
        self.bytes_sent += len(datagram)
        for callback in self._subscribers:
            callback(datagram)
        return True


class SocketChannel:
    """Real UDP datagrams over the loopback interface.

    ``send`` transmits a datagram to the bound receiver socket; ``drain``
    pulls everything currently queued in the kernel buffer and hands it to the
    subscribers.  This channel exists to prove the message format survives a
    real socket round trip; deployments default to the in-memory channel.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 recv_buffer_bytes: int = 4 * 1024 * 1024) -> None:
        self._receiver_socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            # Campaigns drain between jobs, so a whole job's datagram burst
            # must fit in the kernel queue; the default rcvbuf is too small.
            self._receiver_socket.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF,
                                             recv_buffer_bytes)
        except OSError:  # the OS may cap or refuse it; drain more often then
            pass
        self._receiver_socket.bind((host, port))
        self._receiver_socket.setblocking(False)
        self._address = self._receiver_socket.getsockname()
        self._sender_socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._subscribers: list[DatagramCallback] = []
        self.datagrams_sent = 0
        self.bytes_sent = 0

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) the receiver socket is bound to."""
        return self._address

    def subscribe(self, callback: DatagramCallback) -> None:
        """Register a delivery callback (invoked from :meth:`drain`)."""
        self._subscribers.append(callback)

    def send(self, datagram: bytes) -> bool:
        """Transmit one datagram over the socket."""
        self._sender_socket.sendto(datagram, self._address)
        self.datagrams_sent += 1
        self.bytes_sent += len(datagram)
        return True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released the sockets."""
        return self._receiver_socket.fileno() == -1

    def drain(self, max_datagrams: int = 100_000) -> int:
        """Read queued datagrams from the socket and deliver them; returns the count.

        A no-op once the channel is closed, so late observers (a snapshot or
        live-analysis view after the deployment ended) read whatever was
        drained before the close instead of crashing on a dead socket.
        """
        if self.closed:
            return 0
        delivered = 0
        for _ in range(max_datagrams):
            try:
                datagram, _addr = self._receiver_socket.recvfrom(65_535)
            except BlockingIOError:
                break
            for callback in self._subscribers:
                callback(datagram)
            delivered += 1
        return delivered

    def close(self) -> None:
        """Close both sockets (idempotent; anything still queued is dropped)."""
        self._receiver_socket.close()
        self._sender_socket.close()

    def __enter__(self) -> "SocketChannel":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
