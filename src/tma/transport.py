"""Server/trainer message transports.

Two interchangeable implementations of the same endpoint API: in-process
channels (works under both the thread and sim runtimes; weights travel as
value copies) and length-prefixed TCP framing for multi-process runs.

Wire frame: {frame_len u32, msg_type u8, round u32, trainer u16, payload},
little-endian; frame_len counts everything after itself. The key-value
store lives on the server; trainers query and update it with KV_GET /
KV_SET frames answered by KV_VALUE.
"""

from __future__ import annotations

import socket
import struct
import threading

from .nn import ModelWeights, weights_from_bytes, weights_to_bytes
from .runtime import ChannelClosed, ChannelTimeout, KvStore, ThreadChannel

MSG_READY = 1
MSG_WEIGHTS = 2
MSG_GLOBAL_WEIGHTS = 3
MSG_STOP = 4
MSG_KV_GET = 5
MSG_KV_SET = 6
MSG_KV_VALUE = 7

_HEADER = struct.Struct("<IBIH")  # frame_len, msg_type, round, trainer
# largest frame_len a reader accepts, so a peer cannot make it buffer up to 4 GiB
MAX_FRAME_LEN = 64 << 20


class TransportError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# in-process


class InProcTransports:
    """Channel-backed endpoints sharing one KvStore; weights are copied on send."""

    def __init__(self, runtime, trainer_ids):
        self.kv = KvStore()
        self.trainer_ids = sorted(trainer_ids)
        self._to_server = {i: runtime.channel() for i in self.trainer_ids}
        self._to_trainer = {i: runtime.channel() for i in self.trainer_ids}

    def server_endpoint(self) -> "InProcServerEndpoint":
        return InProcServerEndpoint(self)

    def trainer_endpoint(self, trainer_id: int) -> "InProcTrainerEndpoint":
        return InProcTrainerEndpoint(self, trainer_id)


class InProcServerEndpoint:
    def __init__(self, hub: InProcTransports):
        self._hub = hub
        self.trainer_ids = hub.trainer_ids

    def kv_get(self, key, default=None):
        return self._hub.kv.get(key, default)

    def kv_set(self, key, value):
        self._hub.kv.set(key, value)

    def recv_weights(self, trainer_id: int, timeout=None):
        return self._hub._to_server[trainer_id].get(timeout)

    def send_global(self, trainer_id: int, round_t: int, weights: ModelWeights):
        self._hub._to_trainer[trainer_id].put((round_t, weights.copy()))

    def close(self):
        for ch in self._hub._to_trainer.values():
            ch.close()


class InProcTrainerEndpoint:
    def __init__(self, hub: InProcTransports, trainer_id: int):
        self._hub = hub
        self.trainer_id = trainer_id

    def kv_get(self, key, default=None):
        return self._hub.kv.get(key, default)

    def kv_set(self, key, value):
        self._hub.kv.set(key, value)

    def send_weights(self, round_t: int, weights: ModelWeights):
        self._hub._to_server[self.trainer_id].put((round_t, weights.copy()))

    def recv_global(self, timeout=None):
        return self._hub._to_trainer[self.trainer_id].get(timeout)

    def close(self):
        self._hub._to_server[self.trainer_id].close()


# ---------------------------------------------------------------------------
# TCP framing


def _encode_kv_value(value) -> bytes:
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"\x01" if value else b"\x00"
    if isinstance(value, int):
        return b"I" + struct.pack("<q", value)
    if isinstance(value, float):
        return b"F" + struct.pack("<d", value)
    raise TransportError(f"unsupported kv value type {type(value).__name__}")


def _decode_kv_value(data: bytes):
    tag, body = data[:1], data[1:]
    if tag == b"N":
        return None
    if tag == b"\x01":
        return True
    if tag == b"\x00":
        return False
    if tag == b"I":
        return struct.unpack("<q", body)[0]
    if tag == b"F":
        return struct.unpack("<d", body)[0]
    raise TransportError(f"bad kv value tag {tag!r}")


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
    """Server side of the TCP transport: listener, per-connection readers, kv."""

    def __init__(self, trainer_ids, fingerprint: str, host: str = "127.0.0.1", port: int = 0):
        self.kv = KvStore()
        self.trainer_ids = sorted(trainer_ids)
        self._fingerprint = fingerprint
        self._inbox = {i: ThreadChannel() for i in self.trainer_ids}
        self._conns: dict[int, socket.socket] = {}
        self._send_locks: dict[int, threading.Lock] = {}
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()
        self._accepting = True
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self):
        while self._accepting:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._reader_loop, args=(conn,), daemon=True).start()

    def _reader_loop(self, conn: socket.socket):
        trainer_id = None
        try:
            while True:
                msg_type, round_t, trainer, payload = recv_frame(conn)
                if trainer_id is None:
                    trainer_id = trainer
                    if trainer_id not in self._inbox:
                        raise TransportError(f"unknown trainer id {trainer_id}")
                    self._conns[trainer_id] = conn
                    self._send_locks[trainer_id] = threading.Lock()
                if msg_type == MSG_READY:
                    self.kv.set(f"ready/{trainer}", True)
                elif msg_type == MSG_KV_SET:
                    key, _, value = payload.partition(b"\x00")
                    self.kv.set(key.decode(), _decode_kv_value(value))
                elif msg_type == MSG_KV_GET:
                    key = payload.decode()
                    reply = payload + b"\x00" + _encode_kv_value(self.kv.get(key))
                    self._send(trainer, MSG_KV_VALUE, 0, reply)
                elif msg_type == MSG_WEIGHTS:
                    weights = weights_from_bytes(payload, self._fingerprint)
                    self._inbox[trainer].put((round_t, weights))
                else:
                    raise TransportError(f"unexpected frame type {msg_type} from trainer")
        except (ChannelClosed, OSError):
            pass
        finally:
            if trainer_id is not None:
                self._inbox[trainer_id].close()

    def _send(self, trainer_id: int, msg_type: int, round_t: int, payload: bytes):
        conn = self._conns.get(trainer_id)
        if conn is None:
            raise ChannelClosed
        with self._send_locks[trainer_id]:
            try:
                send_frame(conn, msg_type, round_t, trainer_id, payload)
            except OSError:
                raise ChannelClosed from None

    # endpoint API
    def kv_get(self, key, default=None):
        return self.kv.get(key, default)

    def kv_set(self, key, value):
        self.kv.set(key, value)

    def recv_weights(self, trainer_id: int, timeout=None):
        return self._inbox[trainer_id].get(timeout)

    def send_global(self, trainer_id: int, round_t: int, weights: ModelWeights):
        self._send(trainer_id, MSG_GLOBAL_WEIGHTS, round_t, weights_to_bytes(weights))

    def close(self):
        self._accepting = False
        try:
            self._listener.close()
        except OSError:
            pass
        for trainer_id, conn in list(self._conns.items()):
            try:
                self._send(trainer_id, MSG_STOP, 0, b"")
            except ChannelClosed:
                pass
            try:
                conn.close()
            except OSError:
                pass


class TcpTrainerEndpoint:
    """Trainer side: one socket, a reader thread demuxing pushed frames."""

    def __init__(self, address, trainer_id: int, fingerprint: str, connect_timeout=10.0):
        self.trainer_id = trainer_id
        self._fingerprint = fingerprint
        self._sock = socket.create_connection(address, timeout=connect_timeout)
        self._sock.settimeout(None)
        self._send_lock = threading.Lock()
        self._global_q = ThreadChannel()
        self._kv_q = ThreadChannel()
        self._stopped = False
        self._reader = threading.Thread(target=self._reader_loop, daemon=True)
        self._reader.start()

    def _reader_loop(self):
        try:
            while True:
                msg_type, round_t, _, payload = recv_frame(self._sock)
                if msg_type == MSG_GLOBAL_WEIGHTS:
                    self._global_q.put((round_t, weights_from_bytes(payload, self._fingerprint)))
                elif msg_type == MSG_KV_VALUE:
                    _, _, value = payload.partition(b"\x00")
                    self._kv_q.put(_decode_kv_value(value))
                elif msg_type == MSG_STOP:
                    self._stopped = True
                else:
                    raise TransportError(f"unexpected frame type {msg_type} from server")
        except (ChannelClosed, OSError):
            pass
        finally:
            self._global_q.close()
            self._kv_q.close()

    def _send(self, msg_type: int, round_t: int, payload: bytes = b""):
        with self._send_lock:
            try:
                send_frame(self._sock, msg_type, round_t, self.trainer_id, payload)
            except OSError:
                raise ChannelClosed from None

    def kv_get(self, key, default=None):
        if self._stopped and key == "stop":
            return True
        self._send(MSG_KV_GET, 0, key.encode())
        try:
            value = self._kv_q.get(timeout=30.0)
        except ChannelTimeout:
            raise TransportError("timed out waiting for a frame") from None
        return default if value is None else value

    def kv_set(self, key, value):
        if key == f"ready/{self.trainer_id}" and value is True:
            self._send(MSG_READY, 0)
        else:
            self._send(MSG_KV_SET, 0, key.encode() + b"\x00" + _encode_kv_value(value))

    def send_weights(self, round_t: int, weights: ModelWeights):
        self._send(MSG_WEIGHTS, round_t, weights_to_bytes(weights))

    def recv_global(self, timeout=None):
        return self._global_q.get(timeout)

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass
