"""Server/trainer message transports.

Two interchangeable implementations of the same endpoint API: in-process
channels for trainer threads (works under both the thread and sim runtimes;
weights travel as value copies) and length-prefixed TCP framing on loopback,
one socket per trainer process. Either way a trainer's round report is one
message, ``send_weights(round, weights, steps, loss)``, which the server
reads back as the tuple ``recv_weights(i) -> (round, weights, steps, loss)``.

Liveness is the transport's job: each trainer id arrives once on the server
endpoint's ``joined`` channel, when its endpoint connects. Flags flow one
way, set by the server (``kv_set``) and read by the trainers (``kv_get``).

Wire frame: {frame_len u32, msg_type u8, round u32, trainer u16, payload},
little-endian; frame_len counts everything after itself.
- trainer -> server: one empty HELLO, which claims the frame's trainer id,
  then only WEIGHTS for that id: ``steps i64, loss f64`` (the report), then
  the weight checkpoint bytes of ``fileio.weights_to_bytes``.
- server -> trainer: KV_SET, ``key \x00 flag`` with the flag one byte, 0 or
  1 (``agg``, ``stop``, pushed to every connected trainer); GLOBAL_WEIGHTS,
  the checkpoint bytes alone.

A trainer reads flags from its own KvStore, never over the wire. One socket
and one reader per connection keep order, so a trainer applies
``agg=False`` before the GLOBAL_WEIGHTS frame sent after it; when the
server's stream ends, the trainer's ``stop`` reads True. A peer that sends
an undecodable frame, a frame outside its direction's grammar, or weights
the checkpoint parser rejects (``fileio.ParseError``: not the model's
tensors, or bytes after them), is hung up on.
"""

from __future__ import annotations

import socket
import struct
import threading

from .fileio import weights_from_bytes, weights_to_bytes
from .nn import ModelConfig, ModelWeights
from .runtime import ChannelClosed, ThreadChannel

MSG_WEIGHTS = 2
MSG_GLOBAL_WEIGHTS = 3
MSG_KV_SET = 6
MSG_HELLO = 7

_HEADER = struct.Struct("<IBIH")  # frame_len, msg_type, round, trainer
_REPORT = struct.Struct("<qd")  # a WEIGHTS payload starts with the trainer's steps, loss
# largest frame_len a reader accepts, so a peer cannot make it buffer up to 4 GiB
MAX_FRAME_LEN = 64 << 20
CONNECT_TIMEOUT_S = 10.0


class TransportError(RuntimeError):
    pass


class KvStore:
    """Boolean flag store: ``agg`` and ``stop``, written only by the server.
    The in-process endpoints share one; over TCP each trainer holds its own,
    and the server pushes the flags it sets to every trainer's copy."""

    def __init__(self):
        self._data: dict[str, object] = {}
        self._lock = threading.Lock()

    def get(self, key: str):
        with self._lock:
            return self._data.get(key)

    def set(self, key: str, value) -> None:
        with self._lock:
            self._data[key] = value


# ---------------------------------------------------------------------------
# in-process


class InProcTransports:
    """The in-process hub and its server endpoint: one KvStore shared with the
    trainers, and a channel each way per trainer; weights are copied on send.
    A trainer joins when its endpoint is handed out, once per registered id."""

    def __init__(self, runtime, trainer_ids):
        self.kv = KvStore()
        self.trainer_ids = sorted(trainer_ids)
        self.joined = runtime.channel()
        self._to_server = {i: runtime.channel() for i in self.trainer_ids}
        self._to_trainer = {i: runtime.channel() for i in self.trainer_ids}
        self._unclaimed = set(self.trainer_ids)

    def trainer_endpoint(self, trainer_id: int) -> "InProcTrainerEndpoint":
        try:
            self._unclaimed.remove(trainer_id)  # atomic under the GIL
        except KeyError:
            raise TransportError(f"trainer id {trainer_id} is unknown or taken") from None
        self.joined.put(trainer_id)
        return InProcTrainerEndpoint(self, trainer_id)

    def kv_set(self, key, value):
        self.kv.set(key, value)

    def recv_weights(self, trainer_id: int, timeout=None):
        return self._to_server[trainer_id].get(timeout)

    def send_global(self, trainer_id: int, round_t: int, weights: ModelWeights):
        self._to_trainer[trainer_id].put((round_t, weights.copy()))

    def close(self):
        """Hang up on the trainers: as over TCP, their ``stop`` reads True."""
        self.kv.set("stop", True)
        for ch in self._to_trainer.values():
            ch.close()


class InProcTrainerEndpoint:
    def __init__(self, hub: InProcTransports, trainer_id: int):
        self._hub = hub
        self.trainer_id = trainer_id

    def kv_get(self, key):
        return self._hub.kv.get(key)

    def send_weights(self, round_t: int, weights: ModelWeights, steps: int, loss: float):
        self._hub._to_server[self.trainer_id].put((round_t, weights.copy(), steps, loss))

    def recv_global(self, timeout=None):
        return self._hub._to_trainer[self.trainer_id].get(timeout)

    def close(self):
        self._hub._to_server[self.trainer_id].close()


# ---------------------------------------------------------------------------
# TCP framing


def _encode_kv(key: str, value) -> bytes:
    if not isinstance(value, bool):
        raise TransportError(f"flag {key!r} must be a bool, not {type(value).__name__}")
    return key.encode() + (b"\x00\x01" if value else b"\x00\x00")


def _decode_kv(payload: bytes) -> tuple[str, bool]:
    key, _, value = payload.partition(b"\x00")
    if value not in (b"\x00", b"\x01"):
        raise TransportError(f"bad kv value {value[:16]!r}")
    return key.decode(), value == b"\x01"  # UnicodeDecodeError is a ValueError


# ends a reader loop: EOF, a dead socket, or an undecodable frame (ParseError is a ValueError)
_STREAM_ENDS = (ChannelClosed, OSError, TransportError, ValueError)


def _hang_up(sock: socket.socket) -> None:
    # shutdown first: a bare close() leaves a recv() blocked in another thread
    # holding the socket open, and the peer would never see EOF
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


def send_frame(sock: socket.socket, msg_type: int, round_t: int, trainer: int, payload: bytes = b""):
    body = _HEADER.pack(len(payload) + 7, msg_type, round_t, trainer) + payload
    sock.sendall(body)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        data = sock.recv(n)
        if not data:
            raise ChannelClosed
        chunks.append(data)
        n -= len(data)
    return b"".join(chunks)


def recv_frame(sock: socket.socket):
    frame_len, msg_type, round_t, trainer = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if not 7 <= frame_len <= MAX_FRAME_LEN:
        raise TransportError(f"frame length {frame_len} outside [7, {MAX_FRAME_LEN}]")
    payload = _recv_exact(sock, frame_len - 7)
    return msg_type, round_t, trainer, payload


class TcpCoordinator:
    """Server side of the TCP transport: listener and per-connection readers.
    A connection's HELLO claims its trainer id, which then joins; kv_set
    pushes to all.

    Construction binds and listens; ``start`` begins accepting. In between,
    connections wait in the listen backlog, so trainer processes can be
    forked from a process that has not started a thread yet."""

    def __init__(self, trainer_ids, model: ModelConfig, host: str = "127.0.0.1", port: int = 0):
        self.trainer_ids = sorted(trainer_ids)
        self.joined = ThreadChannel()
        self._model = model
        self._inbox = {i: ThreadChannel() for i in self.trainer_ids}
        self._conns: dict[int, tuple[socket.socket, threading.Lock]] = {}
        self._accepted: list[socket.socket] = []  # every connection, claimed or not
        self._closed = False
        self._lock = threading.Lock()
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()

    def start(self) -> "TcpCoordinator":
        threading.Thread(target=self._accept_loop, daemon=True).start()
        return self

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:  # a connection accepted as close() runs is hung up too
                if self._closed:
                    _hang_up(conn)
                    return
                self._accepted.append(conn)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=self._reader_loop, args=(conn,), daemon=True).start()

    def _reader_loop(self, conn: socket.socket):
        trainer_id = None
        try:
            msg_type, _, trainer, payload = recv_frame(conn)
            if msg_type != MSG_HELLO or payload:
                raise TransportError(f"a connection must open with an empty HELLO, not type {msg_type}")
            entry = (conn, threading.Lock())
            if trainer not in self._inbox or self._conns.setdefault(trainer, entry) is not entry:
                raise TransportError(f"trainer id {trainer} is unknown or taken")
            trainer_id = trainer
            self.joined.put(trainer_id)
            while True:
                msg_type, round_t, trainer, payload = recv_frame(conn)
                if (msg_type, trainer) != (MSG_WEIGHTS, trainer_id):
                    raise TransportError(f"trainer {trainer_id} sent type {msg_type} as trainer {trainer}")
                if len(payload) < _REPORT.size:
                    raise TransportError(f"weights frame of {len(payload)} bytes has no report")
                steps, loss = _REPORT.unpack_from(payload)
                weights = weights_from_bytes(payload[_REPORT.size :], self._model)
                self._inbox[trainer_id].put((round_t, weights, steps, loss))
        except _STREAM_ENDS:
            pass
        finally:
            if trainer_id is not None:
                self._inbox[trainer_id].close()
            _hang_up(conn)

    def _send(self, trainer_id: int, msg_type: int, round_t: int, payload: bytes):
        # as in-process, a send to a dead trainer is dropped; recv_weights then
        # raises ChannelClosed for it, because its reader has closed its inbox
        conn, lock = self._conns[trainer_id]
        with lock:
            try:
                send_frame(conn, msg_type, round_t, trainer_id, payload)
            except OSError:
                pass

    # endpoint API
    def kv_set(self, key, value):
        payload = _encode_kv(key, value)
        for trainer_id in list(self._conns):
            self._send(trainer_id, MSG_KV_SET, 0, payload)

    def recv_weights(self, trainer_id: int, timeout=None):
        return self._inbox[trainer_id].get(timeout)

    def send_global(self, trainer_id: int, round_t: int, weights: ModelWeights):
        self._send(trainer_id, MSG_GLOBAL_WEIGHTS, round_t, weights_to_bytes(weights))

    def close(self):
        with self._lock:
            self._closed = True
        _hang_up(self._listener)
        for conn in self._accepted:
            _hang_up(conn)


class TcpTrainerEndpoint:
    """Trainer side: one socket, opened with a HELLO, and a reader thread that
    applies pushed flags to a local KvStore and queues global weights."""

    def __init__(self, address, trainer_id: int, model: ModelConfig):
        self.trainer_id = trainer_id
        self._model = model
        self.kv = KvStore()
        self._sock = socket.create_connection(address, timeout=CONNECT_TIMEOUT_S)
        self._sock.settimeout(None)
        # with Nagle on, a frame's last partial segment can wait for the ACK
        # of data sent before it, which the peer may delay by up to 40 ms
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._send_lock = threading.Lock()
        self._global_q = ThreadChannel()
        self._send(MSG_HELLO, 0)
        threading.Thread(target=self._reader_loop, daemon=True).start()

    def _reader_loop(self):
        try:
            while True:
                msg_type, round_t, _, payload = recv_frame(self._sock)
                if msg_type == MSG_KV_SET:
                    self.kv.set(*_decode_kv(payload))
                elif msg_type == MSG_GLOBAL_WEIGHTS:
                    self._global_q.put((round_t, weights_from_bytes(payload, self._model)))
                else:
                    raise TransportError(f"unexpected frame type {msg_type} from server")
        except _STREAM_ENDS:
            pass
        finally:
            self.kv.set("stop", True)
            self._global_q.close()
            _hang_up(self._sock)

    def _send(self, msg_type: int, round_t: int, payload: bytes = b""):
        with self._send_lock:
            try:
                send_frame(self._sock, msg_type, round_t, self.trainer_id, payload)
            except OSError:
                raise ChannelClosed from None

    def kv_get(self, key):
        return self.kv.get(key)

    def send_weights(self, round_t: int, weights: ModelWeights, steps: int, loss: float):
        self._send(MSG_WEIGHTS, round_t, _REPORT.pack(steps, loss) + weights_to_bytes(weights))

    def recv_global(self, timeout=None):
        return self._global_q.get(timeout)

    def close(self):
        _hang_up(self._sock)
