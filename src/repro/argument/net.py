"""Two-party deployment over TCP: prover server, verifier client.

The paper's experiments "connect the verifier and the prover to a
local network" (§5.1).  This module is that deployment: a prover
daemon serving compiled programs, and a verifier client that drives
the batched protocol over length-prefixed JSON frames.  The transport
uses the §A.1 seed optimization — the verifier ships a 32-byte seed
and the consistency query; the prover regenerates the PCP schedule
locally.

Message flow per session (verifier is the client and drives):

    C→S  hello      program hash, field, soundness params, query seed
    S→C  hello-ok   (or error: unknown program / hash mismatch)
    C→S  commit     Enc(r), componentwise
    C→S  inputs     the batch's input vectors
    S→C  outputs    per instance: y and the commitment e_i
    C→S  challenge  the consistency query t  (queries come from the seed)
    S→C  answers    per instance: answers to every query + t
    C    verdicts   commitment consistency + all Fig-10 checks

Soundness note: the prover's commitments are received *before* the
challenge is sent, preserving the commit-then-query order the
commitment's binding argument needs; the PCP queries themselves are
public-coin, so the prover knowing them early (via the seed) is
exactly the standard model (§A.1 derives them from a shared seed).

Robustness (docs/NETWORKING.md has the full failure-mode matrix):

* ``ProverServer`` accepts up to ``max_sessions`` concurrent sessions,
  each on its own thread with a per-socket read deadline and an
  optional session wall-clock budget; every violation path sends a
  structured ``error`` frame (``code`` + ``message``) back to the peer
  before the drop, and ``close()`` drains in-flight sessions.
* ``verify_remote`` separates the connect timeout from the read
  deadline (a prover grinding through a large batch must not be killed
  by the handshake timeout) and retries connect/transient failures
  under a ``RetryPolicy`` — but only until the ``commit`` frame is on
  the wire: the commitment material (r, α, t) is drawn once per call,
  so replaying a commit-then-query exchange would let a malicious
  prover answer adaptively.  Post-commit failures raise immediately.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import socket
import struct
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .. import telemetry
from ..telemetry import metrics as metrics_mod
from ..compiler import CompiledProgram
from ..constraints import quadratic_to_json
from ..crypto import CommitmentProver, CommitmentVerifier, FieldPRG
from ..crypto.commitment import CommitRequest, DecommitChallenge, DecommitResponse
from ..crypto.elgamal import ElGamalCiphertext
from ..pcp import SoundnessParams
from ..pcp import zaatar as zaatar_pcp
from ..qap import build_proof_vector, build_qap
from .protocol import (
    ArgumentConfig,
    InstanceResult,
    ProtocolViolation,
    ProverStats,
)

_HEADER = struct.Struct("!I")
_MAX_FRAME = 256 * 1024 * 1024
#: cap on the repetition counts a client may request; the paper's
#: production setting is ρ_lin=20, ρ=8 — anything far beyond that is a
#: resource-exhaustion request, not a soundness need
_MAX_RHO = 128
#: server-side budget for the serialized ``trace`` field of the final
#: frame: past this the span records are dropped down to the session
#: root so a chatty trace can never dwarf the protocol payload
_MAX_TRACE_BYTES = 1_000_000
#: client-side ceiling on a peer-supplied ``trace`` payload; anything
#: larger is a protocol violation, not a trace worth keeping
_MAX_CLIENT_TRACE_BYTES = 4_000_000


# -- deadlines and retry ------------------------------------------------------


@dataclass(frozen=True)
class Deadlines:
    """Transport deadlines, all in seconds.

    ``connect`` bounds connection establishment only; ``read`` is the
    per-``recv`` deadline (how long a peer may go silent mid-session);
    ``session`` is the server-side wall-clock budget for one whole
    session (None: unbounded).  Keeping connect and read separate is
    what lets a verifier wait minutes for a large batch's proofs
    without tolerating a minutes-long TCP handshake.
    """

    connect: float = 10.0
    read: float = 600.0
    session: float | None = None


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``max_attempts`` counts total tries (1 = no retry).  Sleeps between
    attempts grow from ``base_delay`` by ``multiplier`` up to
    ``max_delay``, each stretched by up to ``jitter``× of itself using
    a PRNG seeded with ``seed`` (so tests are reproducible; pass a
    varying seed in production fleets to avoid thundering herds).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int | None = 0

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A policy that never retries."""
        return cls(max_attempts=1)

    def delays(self) -> Iterator[float]:
        """Yield the sleep before each retry (max_attempts - 1 values)."""
        rng = random.Random(self.seed)
        delay = self.base_delay
        for _ in range(max(self.max_attempts - 1, 0)):
            yield min(delay * (1.0 + self.jitter * rng.random()), self.max_delay)
            delay = min(delay * self.multiplier, self.max_delay)


# -- framing ---------------------------------------------------------------


def send_frame(sock, payload: dict) -> None:
    """Write one length-prefixed JSON frame (bytes counted per frame type)."""
    data = json.dumps(payload).encode()
    if len(data) > _MAX_FRAME:
        raise ProtocolViolation(f"frame of {len(data)} bytes exceeds limit")
    if telemetry.enabled():
        telemetry.count("net.bytes_sent", _HEADER.size + len(data))
        telemetry.count("net.frames_sent")
        telemetry.count(f"net.bytes_sent.{payload.get('type', '?')}", len(data))
    sock.sendall(_HEADER.pack(len(data)) + data)


def recv_frame(sock) -> dict:
    """Read one frame; raises ProtocolViolation on malformed data."""
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > _MAX_FRAME:
        raise ProtocolViolation(
            f"peer announced {length}-byte frame", code="bad-frame"
        )
    data = _recv_exact(sock, length)
    if telemetry.enabled():
        telemetry.count("net.bytes_received", _HEADER.size + length)
        telemetry.count("net.frames_received")
    try:
        payload = json.loads(data)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ProtocolViolation(f"bad frame: {exc}", code="bad-frame") from exc
    if not isinstance(payload, dict) or "type" not in payload:
        raise ProtocolViolation(
            "frames must be objects with a 'type'", code="bad-frame"
        )
    return payload


def _recv_exact(sock, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            # a transport-level drop, not a protocol offence: code "io"
            # keeps the client's RetryPolicy treating a pre-commit
            # disconnect as transient and files the failure under the
            # server's session_errors.io bucket
            raise ProtocolViolation("connection closed mid-frame", code="io")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _expect(payload: dict, expected_type: str) -> dict:
    if payload["type"] == "error":
        retry_after = payload.get("retry_after")
        if not isinstance(retry_after, (int, float)) or retry_after < 0:
            retry_after = None
        raise ProtocolViolation(
            f"peer error [{payload.get('code', '?')}]: {payload.get('message')}",
            code=payload.get("code", "peer-error"),
            retry_after=retry_after,
        )
    if payload["type"] != expected_type:
        raise ProtocolViolation(
            f"expected {expected_type!r}, got {payload['type']!r}"
        )
    return payload


def _get(payload, key: str):
    """Field access on a decoded frame; ProtocolViolation when absent."""
    try:
        return payload[key]
    except (KeyError, TypeError, IndexError) as exc:
        name = payload.get("type", "?") if isinstance(payload, dict) else type(payload).__name__
        raise ProtocolViolation(
            f"malformed {name!r} frame: missing or bad field {key!r}",
            code="bad-frame",
        ) from exc


def _tune_socket(sock: socket.socket) -> None:
    """Per-connection TCP tuning, applied on both ends of the wire.

    The protocol is strictly request/response over small frames, the
    worst case for Nagle + delayed-ACK coupling: every ``commit`` or
    ``challenge`` frame would otherwise wait out the peer's delayed-ACK
    timer (~40 ms) before leaving the buffer, which under an emulated
    WAN link stacks on top of the real latency.  ``TCP_NODELAY`` is the
    whole fix; failures are ignored (AF_UNIX in tests, exotic stacks).
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, AttributeError):
        pass


def _bound_poke(sock_family, address) -> tuple[socket.socket, tuple, tuple]:
    """A pre-bound socket for waking a server's blocked ``accept()``.

    Returns ``(socket, local_address, connect_target)`` with the socket
    bound but **not yet connected** — the caller records the local
    address first and only then connects, so the accept loop can never
    observe the poke before its address is known (it must tell the poke
    apart from a real client racing the shutdown).
    """
    host = address[0]
    if host in ("0.0.0.0", "::"):
        host = "127.0.0.1" if sock_family == socket.AF_INET else "::1"
    sock = socket.socket(sock_family, socket.SOCK_STREAM)
    sock.bind((host, 0))
    sock.settimeout(1)
    return sock, sock.getsockname(), (host,) + tuple(address[1:])


def program_hash(program: CompiledProgram) -> str:
    """Hash of the canonical quadratic system — what both parties must share."""
    return hashlib.sha256(quadratic_to_json(program.quadratic).encode()).hexdigest()


def _hex_list(values) -> list[str]:
    return [format(v, "x") for v in values]


def _unhex_list(values, *, what: str = "field elements", p: int | None = None) -> list[int]:
    """Decode a hex-string vector; ProtocolViolation on malformed data.

    With ``p`` given the result is canonicalized mod p — peer-supplied
    integers are never passed non-canonical into the commitment or PCP
    checks.
    """
    try:
        out = [int(v, 16) for v in values]
    except (ValueError, TypeError) as exc:
        raise ProtocolViolation(f"malformed {what}: {exc}", code="bad-frame") from exc
    if p is not None:
        out = [v % p for v in out]
    return out


def _unhex_ciphertexts(pairs, *, what: str = "ciphertexts") -> list[ElGamalCiphertext]:
    """Decode [c1, c2] hex pairs; ProtocolViolation on malformed data."""
    try:
        return [ElGamalCiphertext(int(c1, 16), int(c2, 16)) for c1, c2 in pairs]
    except (ValueError, TypeError) as exc:
        raise ProtocolViolation(f"malformed {what}: {exc}", code="bad-frame") from exc


def parse_hello_params(hello: dict) -> tuple[SoundnessParams, bytes]:
    """Validate a ``hello`` frame's soundness params and query seed.

    Shared by :class:`ProverServer` and the multi-tenant gateway
    (:mod:`repro.argument.serve`) so both ends of the deployment
    enforce the same ``_MAX_RHO`` resource cap with the same codes.
    """
    params_spec = _get(hello, "params")
    try:
        params = SoundnessParams(
            delta=params_spec["delta"],
            rho_lin=int(params_spec["rho_lin"]),
            rho=int(params_spec["rho"]),
        )
        seed = bytes.fromhex(_get(hello, "seed"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolViolation(
            f"malformed hello parameters: {exc}", code="bad-frame"
        ) from exc
    if not (1 <= params.rho_lin <= _MAX_RHO and 1 <= params.rho <= _MAX_RHO):
        raise ProtocolViolation(
            f"soundness repetitions out of range (max {_MAX_RHO})",
            code="bad-request",
        )
    return params, seed


# -- prover-side session state machine ----------------------------------------


class SessionProver:
    """The prover half of one session, detached from any transport.

    Holds exactly the state a session accumulates between frames — the
    QAP, the seed-derived query schedule, and the per-instance
    commitment provers — and exposes the two server-side protocol
    steps: :meth:`prove` (commit + inputs → outputs payload) and
    :meth:`answer` (challenge → answers payload).  All inputs and
    outputs use the wire encoding (hex strings), so the same object
    serves a :class:`ProverServer` session thread or a gateway shard
    worker on the far side of a process boundary.

    Failures raise :class:`ProtocolViolation` with the structured code
    vocabulary; the transport owner turns them into error frames.
    """

    def __init__(
        self,
        program: CompiledProgram,
        config: ArgumentConfig,
        params: SoundnessParams,
        seed: bytes,
        qap_mode: str = "arithmetic",
        *,
        qap=None,
        schedule=None,
    ):
        self.program = program
        self.config = config
        self.field = program.field
        if not (1 <= params.rho_lin <= _MAX_RHO and 1 <= params.rho <= _MAX_RHO):
            raise ProtocolViolation(
                f"soundness repetitions out of range (max {_MAX_RHO})",
                code="bad-request",
            )
        if qap is None:
            try:
                qap = build_qap(program.quadratic, mode=qap_mode)
            except (ValueError, KeyError) as exc:
                raise ProtocolViolation(
                    f"bad qap_mode {qap_mode!r}: {exc}", code="bad-request"
                ) from exc
        self.qap = qap
        # regenerate the public-coin query schedule from the seed (§A.1)
        self.schedule = schedule or zaatar_pcp.generate_schedule(
            qap, params, FieldPRG(self.field, seed, "queries")
        )
        self._request: CommitRequest | None = None
        self._provers: list[CommitmentProver] = []

    def commit(self, enc_r) -> None:
        """Decode and hold the commit frame's Enc(r) ciphertexts.

        Decoding happens here, at frame-receipt time, so a malformed
        commit is answered immediately — not after the server has
        waited on an inputs frame the client may never send.
        """
        self._request = CommitRequest(
            _unhex_ciphertexts(enc_r, what="commit enc_r")
        )

    def prove(
        self,
        batch_spec,
        *,
        budget_check: Callable[[], None] | None = None,
    ) -> list[dict]:
        """Run every instance of the batch; returns the outputs payload.

        ``batch_spec`` is the inputs frame's batch, still wire-encoded;
        :meth:`commit` must have run first.  ``budget_check`` (if
        given) runs before each instance so a session wall-clock budget
        can abort a long batch mid-way.
        """
        request = self._request
        if request is None:
            raise ProtocolViolation("prove before commit", code="internal")
        if not isinstance(batch_spec, list):
            raise ProtocolViolation("inputs 'batch' must be a list", code="bad-frame")
        batch = [
            _unhex_list(x, what="input vector", p=self.field.p) for x in batch_spec
        ]
        group = self.config.group(self.field)
        outputs_payload = []
        for index, input_values in enumerate(batch):
            if budget_check is not None:
                budget_check()
            with telemetry.span("prover.instance", index=index):
                try:
                    with telemetry.span("prover.solve_constraints"):
                        sol = self.program.solve(input_values, check=False)
                    with telemetry.span("prover.construct_u"):
                        proof = build_proof_vector(self.qap, sol.quadratic_witness)
                    prover = CommitmentProver(self.field, group, proof.vector)
                    with telemetry.span("prover.crypto_ops"):
                        commitment = prover.commit(request)
                except (ValueError, TypeError, KeyError, IndexError) as exc:
                    raise ProtocolViolation(
                        f"cannot prove instance {index}: {exc}", code="bad-request"
                    ) from exc
            self._provers.append(prover)
            outputs_payload.append(
                {
                    "y": _hex_list(sol.output_values),
                    "commitment": [format(commitment.c1, "x"), format(commitment.c2, "x")],
                }
            )
        return outputs_payload

    def answer(self, t_spec) -> list[list[str]]:
        """Answer the decommit challenge; returns the answers payload."""
        t = _unhex_list(t_spec, what="consistency query", p=self.field.p)
        if len(t) != len(self.schedule.queries[0]):
            raise ProtocolViolation(
                f"consistency query length {len(t)} != proof vector "
                f"length {len(self.schedule.queries[0])}",
                code="bad-request",
            )
        queries = [list(q) for q in self.schedule.queries] + [t]
        challenge = DecommitChallenge(queries)
        answers_payload = []
        with telemetry.span("prover.answer_queries", instances=len(self._provers)):
            for prover in self._provers:
                response = prover.answer(challenge)
                answers_payload.append(_hex_list(response.answers))
        return answers_payload


# -- prover server ------------------------------------------------------------


class ProverServer:
    """Serves one compiled program on a TCP port to concurrent sessions.

    The accept loop hands each connection to a session thread, bounded
    by ``max_sessions`` — a connection past capacity gets a structured
    ``busy`` error frame (which a client's RetryPolicy treats as
    transient) instead of queueing behind a possibly-slow session.
    Every session failure sends a best-effort ``error`` frame before
    the socket drops and lands in ``stats``/telemetry; ``close()``
    stops accepting and drains in-flight sessions.

    Introspection (docs/OBSERVABILITY.md):

    * ``metrics`` is a live :class:`~repro.telemetry.MetricsRegistry`
      (session counters and error codes, in-flight gauge, exact
      p50/p99 latency and queue-wait histograms, per-backend element
      throughput) — exposed read-only to any client via a
      ``{"type": "stats"}`` first frame (see :func:`fetch_stats` and
      ``repro top``) and over HTTP by ``repro serve --metrics-port``.
    * with ``trace_sessions`` on (the default), a client whose
      ``hello`` carries a ``trace`` context gets this session's span
      records back in the final ``answers`` frame — recorded into a
      private per-session tracer under the client's ``trace_id``, and
      size-bounded by ``max_trace_bytes`` (past the budget only the
      session root span ships, with a ``trace_truncated`` attr).
    """

    def __init__(
        self,
        program: CompiledProgram,
        config: ArgumentConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_sessions: int = 8,
        deadlines: Deadlines | None = None,
        drain_timeout: float = 10.0,
        trace_sessions: bool = True,
        max_trace_bytes: int = _MAX_TRACE_BYTES,
        metrics_seed: int = 0,
    ):
        self.program = program
        self.config = config or ArgumentConfig()
        self.max_sessions = max_sessions
        self.deadlines = deadlines or Deadlines(read=120.0)
        self.drain_timeout = drain_timeout
        self.trace_sessions = trace_sessions
        self.max_trace_bytes = max_trace_bytes
        self._sock = socket.create_server((host, port), backlog=max(max_sessions, 8))
        self.address = self._sock.getsockname()
        #: jitters shutdown-refusal retry hints so a herd of clients
        #: retrying against a restarting prover desynchronizes
        self._refusal_rng = random.Random(metrics_seed)
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._poke_addr: tuple | None = None
        self._slots = threading.BoundedSemaphore(max_sessions)
        self._sessions_lock = threading.Lock()
        self._sessions: set[threading.Thread] = set()
        self._session_ids = itertools.count(1)
        self._stats: Counter = Counter()
        self.metrics = metrics_mod.MetricsRegistry(
            seed=metrics_seed,
            program=program.name,
            program_hash=program_hash(program)[:16],
            field=program.field.name,
            backend=getattr(program.field.backend, "name", "?"),
            max_sessions=max_sessions,
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ProverServer":
        """Begin accepting sessions on a background thread."""
        self._thread = threading.Thread(
            target=self._serve, name="prover-accept", daemon=True
        )
        self._thread.start()
        return self

    def close(self, *, drain: bool = True) -> None:
        """Stop accepting; optionally drain in-flight sessions, then join.

        Ordering matters: the accept loop (woken by the poke) and this
        method both refuse any connection still queued in the kernel's
        accept backlog with a structured ``shutting-down`` frame
        *before* the listener closes — closing first would answer
        queued clients with a bare RST.
        """
        self._stop.set()
        poke = None
        try:
            # a blocked accept() is not interrupted by closing the
            # listening socket from another thread; poke it awake.  The
            # poke's local address is recorded *before* connecting so
            # the accept loop can tell it apart from a real client
            # racing the shutdown.
            poke, self._poke_addr, target = _bound_poke(
                self._sock.family, self.address
            )
            poke.connect(target)
        except OSError:
            if poke is not None:
                poke.close()
            poke = None
        if self._thread is not None:
            self._thread.join(timeout=5)
        if poke is not None:
            poke.close()
        self._drain_backlog()
        self._sock.close()
        if drain:
            deadline = time.monotonic() + self.drain_timeout
            for thread in self.active_sessions():
                thread.join(timeout=max(deadline - time.monotonic(), 0))

    def active_sessions(self) -> list[threading.Thread]:
        """Threads currently running a session (snapshot)."""
        with self._sessions_lock:
            return list(self._sessions)

    @property
    def stats(self) -> dict[str, int]:
        """Session counters: started / ok / errors / rejected."""
        with self._sessions_lock:
            return dict(self._stats)

    def _bump(self, key: str) -> None:
        with self._sessions_lock:
            self._stats[key] += 1

    def __enter__(self) -> "ProverServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- accept loop -------------------------------------------------------

    def _serve(self) -> None:
        while True:
            try:
                conn, peer = self._sock.accept()
            except OSError:
                return  # socket closed
            _tune_socket(conn)
            if self._stop.is_set():
                # close() raced us.  This connection is either its
                # wake-up poke (identified by address) or a real client
                # that slipped in after _stop was set — the latter gets
                # a structured shutting-down frame, never a silent
                # close.  Then refuse whatever else the kernel queued.
                if peer == getattr(self, "_poke_addr", None):
                    conn.close()
                else:
                    self._refuse_shutdown(conn)
                self._drain_backlog()
                return
            if not self._slots.acquire(blocking=False):
                self._reject_busy(conn)
                continue
            session_id = next(self._session_ids)
            thread = threading.Thread(
                target=self._session_entry,
                args=(conn, session_id, time.monotonic()),
                name=f"prover-session-{session_id}",
                daemon=True,
            )
            with self._sessions_lock:
                self._sessions.add(thread)
            thread.start()

    def _reject_busy(self, conn: socket.socket) -> None:
        self._bump("sessions_rejected")
        telemetry.count("net.sessions_rejected")
        self.metrics.inc("sessions_rejected")
        try:
            with conn:
                conn.settimeout(1.0)
                send_frame(
                    conn,
                    {
                        "type": "error",
                        "code": "busy",
                        "message": f"prover at capacity ({self.max_sessions} sessions)",
                    },
                )
        except OSError:
            pass

    def _refuse_shutdown(self, conn: socket.socket) -> None:
        """Best-effort ``shutting-down`` frame to a late-arriving client."""
        self._bump("sessions_refused_shutdown")
        self.metrics.inc("sessions_refused_shutdown")
        telemetry.count("net.sessions_refused_shutdown")
        try:
            with conn:
                conn.settimeout(1.0)
                send_frame(
                    conn,
                    {
                        "type": "error",
                        "code": "shutting-down",
                        "message": "prover is shutting down; retry another endpoint",
                        # jittered so a reconnect herd against a
                        # restarting prover spreads out instead of
                        # stampeding the replacement in lockstep
                        "retry_after": round(
                            0.1 + 0.4 * self._refusal_rng.random(), 3
                        ),
                    },
                )
        except OSError:
            pass

    def _drain_backlog(self) -> None:
        """Refuse every connection still queued in the accept backlog.

        The kernel completes handshakes on the listener's behalf, so by
        the time ``close()`` runs there may be fully-connected clients
        no ``accept()`` ever claimed; closing the listener would answer
        them with a bare RST.  Accept each one non-blocking and send
        the structured frame instead.
        """
        try:
            self._sock.settimeout(0)
        except OSError:
            return  # listener already closed
        while True:
            try:
                conn, peer = self._sock.accept()
            except OSError:  # includes BlockingIOError: backlog empty
                return
            if peer == self._poke_addr:
                conn.close()
            else:
                self._refuse_shutdown(conn)

    def _session_entry(
        self, conn: socket.socket, session_id: int, accepted_at: float
    ) -> None:
        started = time.monotonic()
        # the wire-stats counter and the metrics counter move together
        # here, before anything can fail, so the {"type": "stats"}
        # reply and the Prometheus exposition can never disagree
        self._bump("sessions_started")
        telemetry.count("net.sessions_started")
        self.metrics.inc("sessions_started")
        self.metrics.observe("session_queue_wait_seconds", started - accepted_at)
        self.metrics.add_gauge("sessions_in_flight", 1)
        try:
            with conn, metrics_mod.use(self.metrics):
                self._session(conn, session_id)
        finally:
            self.metrics.add_gauge("sessions_in_flight", -1)
            self.metrics.observe(
                "session_latency_seconds", time.monotonic() - started
            )
            self._slots.release()
            with self._sessions_lock:
                self._sessions.discard(threading.current_thread())

    # -- one session -------------------------------------------------------------

    def _session(self, conn: socket.socket, session_id: int) -> None:
        conn.settimeout(self.deadlines.read)
        budget = None
        if self.deadlines.session is not None:
            budget = time.monotonic() + self.deadlines.session
        try:
            self._run_session(conn, budget, session_id)
        except ProtocolViolation as exc:
            self._fail(conn, session_id, exc.code, str(exc))
        except TimeoutError as exc:
            self._fail(conn, session_id, "deadline", f"read deadline exceeded: {exc}")
        except OSError as exc:
            self._fail(conn, session_id, "io", f"transport failure: {exc}")
        except Exception as exc:  # noqa: BLE001 - a bad session must never
            # take the service down; report it and keep serving
            self._fail(
                conn, session_id, "internal", f"{type(exc).__name__}: {exc}"
            )
        else:
            self._bump("sessions_ok")
            telemetry.count("net.sessions_ok")
            self.metrics.inc("sessions_ok")

    def _fail(self, conn: socket.socket, session_id: int, code: str, message: str) -> None:
        """Best-effort structured error frame, then count the failure."""
        self._bump("session_errors")
        telemetry.count("net.session_errors")
        telemetry.count(f"net.session_errors.{code}")
        self.metrics.inc("session_errors")
        self.metrics.inc(f"session_errors.{code}")
        try:
            conn.settimeout(1.0)
            send_frame(
                conn,
                {"type": "error", "code": code, "message": message, "session": session_id},
            )
        except OSError:
            pass  # the peer may already be gone

    @staticmethod
    def _budget_check(budget: float | None) -> None:
        if budget is not None and time.monotonic() > budget:
            raise ProtocolViolation(
                "session wall-clock budget exhausted", code="deadline"
            )

    def _run_session(
        self, conn: socket.socket, budget: float | None, session_id: int
    ) -> None:
        first = recv_frame(conn)
        if first.get("type") == "stats":
            # read-only introspection: answer the metrics snapshot and
            # end the session without touching the protocol machinery
            self.metrics.inc("stats_requests")
            send_frame(
                conn,
                {
                    "type": "stats",
                    "server": {
                        "program": self.program.name,
                        "program_hash": program_hash(self.program),
                        "address": list(self.address),
                        "max_sessions": self.max_sessions,
                        "stats": self.stats,
                    },
                    "metrics": self.metrics.snapshot(),
                },
            )
            return
        hello = _expect(first, "hello")
        if _get(hello, "program") != program_hash(self.program):
            raise ProtocolViolation(
                "program hash mismatch: this prover serves a different program",
                code="unknown-program",
            )
        params, seed = parse_hello_params(hello)
        qap_mode = hello.get("qap_mode", "arithmetic")

        # cross-process trace propagation: a hello carrying a trace
        # context gets this session recorded into a private tracer
        # under the client's trace_id, its records returned in the
        # final frame (and the session span stitches in as a child of
        # the client's span on adoption)
        session_tracer: telemetry.Tracer | None = None
        trace_req = hello.get("trace")
        if self.trace_sessions and isinstance(trace_req, dict):
            session_tracer = telemetry.Tracer(
                trace_id=str(trace_req.get("trace_id", "") or telemetry.new_trace_id())
            )

        if session_tracer is not None:
            with telemetry.thread_tracer(session_tracer):
                answers_payload = self._serve_proofs(
                    conn, budget, hello, params, seed, qap_mode, session_id
                )
            frame = {"type": "answers", "instances": answers_payload}
            frame["trace"] = self._bounded_trace(session_tracer)
        else:
            answers_payload = self._serve_proofs(
                conn, budget, hello, params, seed, qap_mode, session_id
            )
            frame = {"type": "answers", "instances": answers_payload}
        send_frame(conn, frame)

    def _bounded_trace(self, tracer: telemetry.Tracer) -> list[dict]:
        """This session's span records, capped at ``max_trace_bytes``.

        Spans finish in post-order, so the session root is the last
        record; when the serialized records overflow the budget, only
        the root ships, annotated with how many spans were dropped.
        """
        records = tracer.records_since(0)
        if len(json.dumps(records)) > self.max_trace_bytes:
            root = records[-1]
            root.setdefault("attrs", {})["trace_truncated"] = len(records) - 1
            records = [root]
        return records

    def _serve_proofs(
        self,
        conn: socket.socket,
        budget: float | None,
        hello: dict,
        params: SoundnessParams,
        seed: bytes,
        qap_mode: str,
        session_id: int,
    ) -> list[dict]:
        """The commit → inputs → outputs → challenge exchange, under
        the session span; returns the final answers payload (sent by
        the caller, so the session span is closed before the trace
        records are collected for the trailing frame)."""
        span = telemetry.start_span("wire.prover_session", session=session_id)
        try:
            return self._prove_exchange(conn, budget, params, seed, qap_mode)
        finally:
            telemetry.end_span(span)

    def _prove_exchange(
        self,
        conn: socket.socket,
        budget: float | None,
        params: SoundnessParams,
        seed: bytes,
        qap_mode: str,
    ) -> list[dict]:
        self._budget_check(budget)
        send_frame(conn, {"type": "hello-ok"})
        self._budget_check(budget)
        prover = SessionProver(self.program, self.config, params, seed, qap_mode)

        commit = _expect(recv_frame(conn), "commit")
        prover.commit(_get(commit, "enc_r"))
        inputs_msg = _expect(recv_frame(conn), "inputs")
        batch_spec = _get(inputs_msg, "batch")
        if isinstance(batch_spec, list):
            self.metrics.observe("session_batch_size", len(batch_spec))
        outputs_payload = prover.prove(
            batch_spec,
            budget_check=lambda: self._budget_check(budget),
        )
        send_frame(conn, {"type": "outputs", "instances": outputs_payload})

        challenge_msg = _expect(recv_frame(conn), "challenge")
        self._budget_check(budget)
        return prover.answer(_get(challenge_msg, "t"))


# -- verifier client ---------------------------------------------------------------


@dataclass
class NetworkBatchResult:
    instances: list[InstanceResult]
    bytes_sent: int
    bytes_received: int
    #: connection attempts this session took (1 = no retries)
    attempts: int = 1
    #: reconnect attempts that presented a gateway resume token instead
    #: of a fresh hello (0 = the session never needed to resume)
    resumed: int = 0

    @property
    def all_accepted(self) -> bool:
        """True iff every instance verified."""
        return all(r.accepted for r in self.instances)


@dataclass
class _ResumeState:
    """Cross-attempt resume bookkeeping for one ``verify_remote`` call.

    ``token`` is the gateway-issued resume token from the last
    ``hello-ok``/``resume-ok``; ``use_resume`` arms the next connection
    attempt to open with a ``resume`` frame instead of a fresh
    ``hello``; ``challenge_sent`` marks the hard floor past which no
    disconnect is ever resumable (the consistency query t may have
    reached the prover).
    """

    token: str | None = None
    use_resume: bool = False
    challenge_sent: bool = False


class _CountingSocket:
    """Socket wrapper tallying traffic in both directions."""

    def __init__(self, sock):
        self._sock = sock
        self.sent = 0
        self.received = 0

    def sendall(self, data: bytes) -> None:
        self.sent += len(data)
        self._sock.sendall(data)

    def recv(self, n: int) -> bytes:
        data = self._sock.recv(n)
        self.received += len(data)
        return data

    def close(self) -> None:
        self._sock.close()


def verify_remote(
    program: CompiledProgram,
    batch_inputs: list[list[int]],
    address: tuple[str, int],
    config: ArgumentConfig | None = None,
    *,
    retry: RetryPolicy | None = None,
    deadlines: Deadlines | None = None,
    socket_wrapper: Callable | None = None,
    collect_trace: bool | None = None,
    max_trace_bytes: int = _MAX_CLIENT_TRACE_BYTES,
) -> NetworkBatchResult:
    """Drive a full batched session against a remote ProverServer.

    ``deadlines.connect`` bounds connection establishment only; once
    connected, the socket switches to the (much longer)
    ``deadlines.read`` so a prover grinding through a big batch is not
    killed spuriously.  Connect and transient failures are retried
    under ``retry`` — but only while the ``commit`` frame has not been
    sent: the commitment material is drawn once per call, and a
    commit-then-query exchange must never be replayed (a prover that
    saw the consistency query t once could answer adaptively on a
    rerun).  Any post-commit failure raises ``ProtocolViolation``.

    ``socket_wrapper`` (e.g. ``FaultPlan.wrap`` from
    ``repro.argument.faults``) wraps each new connection — the
    fault-injection hook.

    ``collect_trace`` controls cross-process trace stitching: the
    ``hello`` frame carries ``{trace_id, parent_span}`` and the
    server's per-session span records come back in the final frame,
    adopted under this call's ``wire.verify_remote`` span so ``repro
    trace --remote`` renders one tree across both processes.  The
    default (None) turns it on exactly when telemetry is enabled
    here.  A returned ``trace`` payload larger than
    ``max_trace_bytes`` (or structurally malformed) is rejected as
    ``ProtocolViolation[bad-frame]``.
    """
    config = config or ArgumentConfig()
    retry = retry or RetryPolicy()
    deadlines = deadlines or Deadlines()
    field = program.field
    with telemetry.span("verifier.query_setup"):
        qap = build_qap(program.quadratic, mode=config.qap_mode)
        with telemetry.span("verifier.pcp_queries"):
            schedule = zaatar_pcp.generate_schedule(
                qap, config.params, FieldPRG(field, config.seed, "queries")
            )
        with telemetry.span("verifier.encrypt_r"):
            commitment_verifier = CommitmentVerifier(
                field,
                config.group(field),
                len(schedule.queries[0]),
                FieldPRG(field, config.seed, "commitment"),
            )
            request = commitment_verifier.commit_request()
        challenge = commitment_verifier.decommit_challenge(schedule.queries)

    delays = retry.delays()
    attempts = 0
    resumes = 0
    total_sent = total_received = 0
    session = _ResumeState()
    while True:
        attempts += 1
        committed = [False]
        sock = None
        try:
            raw = socket.create_connection(address, timeout=deadlines.connect)
            _tune_socket(raw)
            raw.settimeout(deadlines.read)
            if socket_wrapper is not None:
                raw = socket_wrapper(raw)
            sock = _CountingSocket(raw)
            with telemetry.span(
                "wire.verify_remote", batch_size=len(batch_inputs), attempt=attempts
            ) as remote_span:
                results = _drive_session(
                    program,
                    batch_inputs,
                    config,
                    schedule,
                    commitment_verifier,
                    request,
                    challenge,
                    sock,
                    committed,
                    remote_span=remote_span,
                    collect_trace=collect_trace,
                    max_trace_bytes=max_trace_bytes,
                    resume=session,
                )
            return NetworkBatchResult(
                instances=results,
                bytes_sent=total_sent + sock.sent,
                bytes_received=total_received + sock.received,
                attempts=attempts,
                resumed=resumes,
            )
        except (ProtocolViolation, OSError) as exc:
            # a gateway-issued resume token makes an *io-flavored*
            # post-commit disconnect recoverable: the gateway parks a
            # session only while it is still awaiting the commit frame,
            # so a successful resume proves no commit was ever
            # processed and re-sending the identical commit is not a
            # replay.  Anything past the challenge send stays final —
            # the prover may have seen t.
            resumable = (
                session.token is not None
                and not session.challenge_sent
                and (
                    not isinstance(exc, ProtocolViolation)
                    or exc.code == "io"
                )
            )
            if committed[0] and not resumable:
                # the commit-then-query order must never be replayed
                if isinstance(exc, ProtocolViolation):
                    raise
                raise ProtocolViolation(
                    f"connection lost after commit (not retryable): {exc}",
                    code="io",
                ) from exc
            if isinstance(exc, ProtocolViolation) and not exc.retryable:
                raise
            delay = next(delays, None)
            if delay is None:
                # policy exhausted: surface the last failure, uniformly
                # as a ProtocolViolation
                if isinstance(exc, ProtocolViolation):
                    raise
                raise ProtocolViolation(
                    f"retries exhausted after {attempts} attempts: {exc}",
                    code="io",
                ) from exc
            hint = getattr(exc, "retry_after", None)
            if hint is not None:
                # server-supplied load-shedding hint (the gateway's
                # busy frames estimate when a slot frees up): trust it
                # over the blind exponential backoff, capped by the
                # policy so a hostile server cannot park the client
                delay = min(float(hint), retry.max_delay)
            if resumable:
                # once armed, the session only ever reconnects by
                # resume: the commit is on the wire somewhere, and a
                # fresh hello would draw the gateway into a second
                # exchange against the same (r, α, t)
                session.use_resume = True
                resumes += 1
                telemetry.count("net.client_resumes")
            telemetry.count("net.client_retries")
            time.sleep(delay)
        finally:
            if sock is not None:
                total_sent += sock.sent
                total_received += sock.received
                sock.close()


def _drive_session(
    program: CompiledProgram,
    batch_inputs: Sequence[Sequence[int]],
    config: ArgumentConfig,
    schedule,
    commitment_verifier: CommitmentVerifier,
    request: CommitRequest,
    challenge: DecommitChallenge,
    sock,
    committed: list[bool],
    remote_span=None,
    collect_trace: bool | None = None,
    max_trace_bytes: int = _MAX_CLIENT_TRACE_BYTES,
    resume: _ResumeState | None = None,
) -> list[InstanceResult]:
    """One connection's worth of the client protocol (no retry logic)."""
    field = program.field
    tracer = telemetry.current()
    if collect_trace is None:
        collect_trace = tracer is not None
    if resume is not None and resume.use_resume and resume.token is not None:
        # reconnect into the parked gateway session: the same exchange
        # continues, so commit and inputs are re-sent into a session
        # that provably never processed them
        send_frame(sock, {"type": "resume", "token": resume.token})
        reply = _expect(recv_frame(sock), "resume-ok")
    else:
        hello = {
            "type": "hello",
            "program": program_hash(program),
            "params": {
                "delta": config.params.delta,
                "rho_lin": config.params.rho_lin,
                "rho": config.params.rho,
            },
            "qap_mode": config.qap_mode,
            "seed": config.seed.hex(),
        }
        if collect_trace and tracer is not None:
            hello["trace"] = {
                "trace_id": tracer.trace_id,
                "parent_span": remote_span.span_id if remote_span is not None else None,
            }
        send_frame(sock, hello)
        reply = _expect(recv_frame(sock), "hello-ok")
    if resume is not None:
        token = reply.get("resume")
        if isinstance(token, str) and token:
            resume.token = token
    # point of no return: once any part of the commit frame may be on
    # the wire, a replay would reuse (r, α, t) against a prover that
    # might have seen them — never retry past here (a resume token
    # relaxes this to resume-only reconnects; see verify_remote)
    committed[0] = True
    send_frame(
        sock,
        {
            "type": "commit",
            "enc_r": [
                [format(ct.c1, "x"), format(ct.c2, "x")]
                for ct in request.ciphertexts
            ],
        },
    )
    send_frame(
        sock,
        {"type": "inputs", "batch": [_hex_list(x) for x in batch_inputs]},
    )
    outputs = _get(_expect(recv_frame(sock), "outputs"), "instances")
    if not isinstance(outputs, list) or len(outputs) != len(batch_inputs):
        raise ProtocolViolation("instance count mismatch in outputs")
    # queries are seed-derived on both sides; only t ships.  Past this
    # send the prover may have seen t, so no disconnect — resume token
    # or not — is ever recoverable again.
    if resume is not None:
        resume.challenge_sent = True
    send_frame(
        sock, {"type": "challenge", "t": _hex_list(challenge.queries[-1])}
    )
    answers_frame = _expect(recv_frame(sock), "answers")
    answers_msg = _get(answers_frame, "instances")
    if not isinstance(answers_msg, list) or len(answers_msg) != len(batch_inputs):
        raise ProtocolViolation("instance count mismatch in answers")
    _adopt_session_trace(
        answers_frame.get("trace"), tracer, remote_span, max_trace_bytes
    )

    results: list[InstanceResult] = []
    verify_span = telemetry.start_span(
        "verifier.per_instance", instances=len(batch_inputs)
    )
    try:
        for input_values, out_entry, answer_hex in zip(
            batch_inputs, outputs, answers_msg
        ):
            y = _unhex_list(_get(out_entry, "y"), what="outputs y", p=field.p)
            commitment = _unhex_ciphertexts(
                [_get(out_entry, "commitment")], what="instance commitment"
            )[0]
            answers = _unhex_list(answer_hex, what="answers", p=field.p)
            x = [v % field.p for v in input_values]
            try:
                commit_ok = commitment_verifier.verify(
                    commitment, DecommitResponse(answers)
                )
                pcp = zaatar_pcp.check_answers(schedule, answers[:-1], x, y)
            except (ValueError, IndexError) as exc:
                raise ProtocolViolation(
                    f"malformed answers: {exc}", code="bad-frame"
                ) from exc
            results.append(
                InstanceResult(
                    accepted=commit_ok and pcp.accepted,
                    commitment_ok=commit_ok,
                    pcp_ok=pcp.accepted,
                    output_values=y,
                    prover_stats=ProverStats(),
                )
            )
    finally:
        telemetry.end_span(verify_span)
    return results


def _adopt_session_trace(
    trace_payload, tracer, remote_span, max_trace_bytes: int
) -> None:
    """Stitch server-returned span records under the client's span.

    The payload is peer-supplied: structurally malformed or oversized
    trace data is a ``bad-frame`` violation, never a crash — a server
    must not be able to smuggle an unbounded blob past the protocol
    checks inside an optional diagnostic field.
    """
    if trace_payload is None:
        return
    if not isinstance(trace_payload, list):
        raise ProtocolViolation(
            "answers 'trace' must be a list of span records", code="bad-frame"
        )
    if len(json.dumps(trace_payload)) > max_trace_bytes:
        raise ProtocolViolation(
            f"oversized trace payload ({len(trace_payload)} spans over "
            f"{max_trace_bytes}-byte limit)",
            code="bad-frame",
        )
    if tracer is None:
        return
    parent_id = remote_span.span_id if remote_span is not None else None
    try:
        tracer.adopt(trace_payload, parent_id=parent_id)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolViolation(
            f"malformed trace payload: {exc}", code="bad-frame"
        ) from exc


def fetch_stats(
    address: tuple[str, int],
    *,
    connect_timeout: float = 5.0,
    read_timeout: float = 10.0,
) -> dict:
    """One ``{"type": "stats"}`` round trip against a ProverServer.

    Returns the server's reply payload: ``server`` (program identity,
    address, capacity, lifetime session counts) and ``metrics`` (the
    registry snapshot — counters, gauges, histogram summaries with
    p50/p90/p99).  This is the poll ``repro top`` renders.
    """
    sock = socket.create_connection(address, timeout=connect_timeout)
    try:
        _tune_socket(sock)
        sock.settimeout(read_timeout)
        send_frame(sock, {"type": "stats"})
        return _expect(recv_frame(sock), "stats")
    finally:
        sock.close()
