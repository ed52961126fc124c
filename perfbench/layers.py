"""Per-layer tracing for the traced run (``--trace 1``).

:func:`install` wraps the public entry points of each layer with spans
recorded into the program's own tracer (``repro.telemetry``), so they
nest with the program's existing ``prover.*``, ``verifier.*``, ``qap.*``
and ``wire.*`` spans and travel back from forked workers and gateway
shards through the program's trace stitching.  Each name is patched
where its caller looks it up: ``argument/protocol.py`` imports
``compute_h_batch`` by name, so that binding is the one replaced.
A wrapper costs one tracer lookup when no tracer is bound.  The
function :func:`install` returns removes the wrappers again: a traced
run ends with a plain phase, which its ``trace.overhead_ratio`` is
measured against.

:func:`analyze` turns the spans of the traced verdicts into the
per-layer metrics.  A span's self time is its duration minus the time
its children cover.  Children on the same thread run one after another,
so that is the sum of their durations; spans adopted from another
process (a fork-pool worker, a gateway shard) ran concurrently with the
local thread and never count as covering it.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict

from repro import compiler, telemetry
from repro.apps import base as apps_base
from repro.argument import net, parallel, protocol, serve
from repro.compiler.program import CompiledProgram
from repro.crypto import chacha
from repro.crypto.commitment import CommitmentProver, CommitmentVerifier
from repro.crypto.elgamal import ElGamalKeypair, ElGamalPublicKey
from repro.crypto.prg import FieldPRG
from repro.pcp import zaatar

#: the root span of one verdict (a batch or a session)
ROOT = "bench.verdict"

#: protocol glue: orchestration between layers, not a layer of its own
GLUE_PREFIXES = ("bench.", "argument.", "prover.", "verifier.")


def _fold_terms(args, result):
    return {"crypto.commitment.fold_terms": sum(1 for w in args[0].u if w)}


def _encryptions(args, result):
    return {"crypto.elgamal.encryptions": len(args[1])}


def _queries(args, result):
    return {"pcp.queries": len(result.queries)}


def _vector_len(args, result):
    return {"qap.proof_vector_len": args[0].proof_vector_length}


def _constraints(args, result):
    return {"compiler.constraints": len(result.quadratic.constraints)}


def _cache_hit(args, result):
    return {"serve.schedule_cache_hits": int(result[1]), "serve.schedule_lookups": 1}


#: (owner, attribute, span name, counters from (args, result))
TARGETS = (
    (FieldPRG, "next_vector", "crypto.prg", None),
    (ElGamalPublicKey, "encrypt_vector", "crypto.elgamal.encrypt", _encryptions),
    (ElGamalKeypair, "decrypt_to_group", "crypto.elgamal.decrypt", None),
    (ElGamalKeypair, "generate", "crypto.elgamal.keygen", None),
    (CommitmentVerifier, "commit_request", "crypto.commitment.request", None),
    (CommitmentVerifier, "decommit_challenge", "crypto.commitment.challenge", None),
    (CommitmentVerifier, "verify", "crypto.commitment.verify", None),
    (CommitmentProver, "commit", "crypto.commitment.fold", _fold_terms),
    (CommitmentProver, "answer", "crypto.commitment.answer", None),
    (zaatar, "generate_schedule", "pcp.schedule", _queries),
    (zaatar, "check_answers", "pcp.check", None),
    (net, "build_qap", "qap.build", None),
    (protocol, "compute_h_batch", "qap.construct_u", _vector_len),
    (protocol, "build_proof_vector", "qap.construct_u", _vector_len),
    (net, "build_proof_vector", "qap.construct_u", _vector_len),
    (apps_base, "compile_program", "compiler.compile", _constraints),
    (compiler, "compile_program", "compiler.compile", _constraints),
    (CompiledProgram, "solve", "compiler.solve", None),
    (parallel._Engine, "run_pool", "parallel.fanout", None),
    (net, "send_frame", "net.send", None),
    (net, "recv_frame", "net.recv", None),
    (serve, "send_frame", "net.send", None),
    (serve, "recv_frame", "net.recv", None),
    (serve.RegisteredProgram, "schedule", "serve.schedule", _cache_hit),
)


def _spanned(fn, name, counters):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = telemetry.current()
        if tracer is None:
            return fn(*args, **kwargs)
        span = tracer.start(name)
        try:
            result = fn(*args, **kwargs)
            if counters is not None:
                for key, value in counters(args, result).items():
                    span.count(key, value)
            return result
        finally:
            tracer.end(span)

    return wrapper


def _counted_block(fn):
    # a ChaCha block is too small and too frequent for a span of its
    # own: count it on the enclosing span (the PRG's)
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        telemetry.count("crypto.prg.blocks")
        return fn(*args, **kwargs)

    return wrapper


def install():
    """Patch every target; returns the function that restores them."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for owner, attr, name, counters in TARGETS:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            patch(owner, attr, classmethod(_spanned(original.__func__, name, counters)))
        else:
            patch(owner, attr, _spanned(original, name, counters))
    patch(chacha, "chacha20_block", _counted_block(chacha.chacha20_block))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# -- analysis -------------------------------------------------------------------


def _is_local(span) -> bool:
    # spans adopted from another process are rebuilt from records and
    # never had a start time in this process
    return span._t0_wall != 0.0


def _is_glue(name: str) -> bool:
    return name.startswith(GLUE_PREFIXES)


class SpanForest:
    """The finished spans of one tracer, indexed for the metrics."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.span_id: s for s in self.spans}
        self.children = defaultdict(list)
        for s in self.spans:
            if s.parent_id is not None:
                self.children[s.parent_id].append(s)

    def subtree(self, root) -> list:
        out, stack = [], [root]
        while stack:
            span = stack.pop()
            out.append(span)
            stack.extend(self.children.get(span.span_id, ()))
        return out

    def root_of(self, span):
        while span.parent_id is not None and span.parent_id in self.by_id:
            span = self.by_id[span.parent_id]
        return span

    def self_seconds(self, span) -> float:
        local = _is_local(span)
        covered = sum(
            c.wall_seconds
            for c in self.children.get(span.span_id, ())
            if _is_local(c) == local
        )
        return max(span.wall_seconds - covered, 0.0)

    def roots(self) -> list:
        return sorted(
            (s for s in self.spans if s.name == ROOT), key=lambda s: s.attrs["id"]
        )

    def records(self) -> list[dict]:
        """Every span as a JSON record with its start, end and verdict id."""
        out = []
        for s in self.spans:
            root = self.root_of(s)
            start = s._t0_wall if _is_local(s) else None
            out.append(
                {
                    "name": s.name,
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "verdict": root.attrs.get("id") if root.name == ROOT else None,
                    "start": start,
                    "end": start + s.wall_seconds if start is not None else None,
                    "wall_s": s.wall_seconds,
                    "cpu_s": s.cpu_seconds,
                    "self_s": self.self_seconds(s),
                    "remote": not _is_local(s),
                    "counters": dict(s.counters),
                    "attrs": {k: v for k, v in s.attrs.items() if _plain(v)},
                }
            )
        return out


def _plain(value) -> bool:
    return isinstance(value, (int, float, str, bool)) or value is None


#: inclusive per-instance seconds: metric name -> span name
INCLUSIVE = {
    "crypto.prg.s": "crypto.prg",
    "crypto.elgamal.encrypt_s": "crypto.elgamal.encrypt",
    "crypto.elgamal.decrypt_s": "crypto.elgamal.decrypt",
    "crypto.commitment.fold_s": "crypto.commitment.fold",
    "crypto.commitment.answer_s": "crypto.commitment.answer",
    "crypto.commitment.challenge_s": "crypto.commitment.challenge",
    "crypto.commitment.verify_s": "crypto.commitment.verify",
    "pcp.check_s": "pcp.check",
    "qap.construct_u_s": "qap.construct_u",
    "qap.interpolate_s": "qap.interpolate",
    "qap.multiply_s": "qap.multiply",
    "qap.divide_s": "qap.divide",
    "qap.circuit_queries_s": "qap.circuit_queries",
    "compiler.solve_s": "compiler.solve",
    # the program's own span: ZaatarArgument.verifier_setup and
    # verify_remote both time their query set-up under it
    "argument.verifier_setup_s": "verifier.query_setup",
}

#: exact per-verdict counts, summed over the first traced verdict
COUNTS = (
    "crypto.prg.blocks",
    "crypto.elgamal.encryptions",
    "crypto.commitment.fold_terms",
    "pcp.queries",
)


def analyze(forest: SpanForest, instances_per_root: dict[int, int], workers: int = 0) -> dict:
    """Per-layer raw metrics (seconds unnormalized) from traced verdicts.

    ``instances_per_root`` maps each traced verdict id to its instance
    count; per-instance seconds divide by their sum.
    """
    roots = [r for r in forest.roots() if r.attrs["id"] in instances_per_root]
    instances = sum(instances_per_root[r.attrs["id"]] for r in roots) or 1
    root_wall = sum(r.wall_seconds for r in roots) or 1.0
    inclusive = defaultdict(float)
    glue_self = root_self = schedule_self = 0.0
    fanout = worker_busy = client_setup = server_wait = 0.0
    cache_hits = cache_lookups = 0
    for root in roots:
        for span in forest.subtree(root):
            inclusive[span.name] += span.wall_seconds
            parent = forest.by_id.get(span.parent_id)
            if span.name == "pcp.schedule":
                schedule_self += forest.self_seconds(span)
            if _is_local(span) and _is_glue(span.name):
                glue_self += forest.self_seconds(span)
                if span is root:
                    root_self += forest.self_seconds(span)
            if span.name == "parallel.fanout":
                fanout += span.wall_seconds
            if span.name == "prover.instance" and not _is_local(span):
                if parent is not None and parent.name == "argument.run_parallel_batch":
                    worker_busy += span.wall_seconds
            if span.name == "verifier.query_setup" and parent is root:
                client_setup += span.wall_seconds
            if span.name == "net.recv" and parent is not None and parent.name == "wire.verify_remote":
                server_wait += span.wall_seconds
            cache_hits += span.counters.get("serve.schedule_cache_hits", 0)
            cache_lookups += span.counters.get("serve.schedule_lookups", 0)
    metrics = {name: inclusive[span] / instances for name, span in INCLUSIVE.items()}
    metrics["pcp.schedule_s"] = schedule_self / instances
    metrics["argument.self_s"] = (glue_self - root_self) / instances
    metrics["trace.attributed_ratio"] = 1.0 - glue_self / root_wall
    metrics["parallel.fanout_s"] = fanout / instances
    metrics["net.client_setup_s"] = client_setup / instances
    metrics["net.server_wait_s"] = server_wait / instances
    metrics["parallel.fanout_share"] = fanout / root_wall
    metrics["parallel.worker_busy_ratio"] = (
        worker_busy / (fanout * workers) if fanout and workers else 0.0
    )
    metrics["net.client_setup_share"] = client_setup / root_wall
    metrics["net.server_wait_share"] = server_wait / root_wall
    metrics["serve.schedule_cache_hit_ratio"] = (
        cache_hits / cache_lookups if cache_lookups else 0.0
    )
    first = forest.subtree(roots[0]) if roots else []
    for key in COUNTS:
        metrics[key] = sum(s.counters.get(key, 0) for s in first)
    metrics["qap.proof_vector_len"] = max(
        (s.counters.get("qap.proof_vector_len", 0) for s in first), default=0
    )
    return metrics


def setup_metrics(forest: SpanForest) -> dict:
    """Set-up layers, from spans outside any verdict (raw seconds)."""
    outside = [s for s in forest.spans if forest.root_of(s).name != ROOT]
    compiles = [s for s in outside if s.name == "compiler.compile"]
    builds = [s for s in forest.spans if s.name == "qap.build"]
    return {
        "compiler.compile_s": sum(s.wall_seconds for s in compiles),
        "compiler.constraints": sum(
            s.counters.get("compiler.constraints", 0) for s in compiles
        ),
        "qap.build_s": statistics.mean(s.wall_seconds for s in builds) if builds else 0.0,
    }
