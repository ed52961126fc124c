"""The benchmark's four workloads: what each pins, and how one verdict runs.

A *verdict* is the unit every end-to-end timing is taken over: one
batch through the argument (``paper-b1``, ``b8``, ``b8-workers``) or one
remote session against the gateway (``served``).  Every workload is a
closed loop: the next verdict starts only when the previous one is in.

Each workload pins what defines its work — app, sizes, field, explicit
``SoundnessParams``, commitment group size, batch size β, commitment on
— and leaves implementation choices (``qap_mode``, ``batch_prover``, the
field backend) at the program's defaults, so an implementation change
shows up in the numbers in either direction.

Sound-verifier traffic: every batch or session gets a fresh protocol
seed derived from the workload seed, as a sound verifier must, so
caching queries or ``Enc(r)`` across verdicts cannot count as a gain.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass

from repro.apps import SCENARIO_APPS
from repro.argument import AdversarialProver, ArgumentConfig, ZaatarArgument
from repro.argument import run_parallel_batch, verify_remote, wire
from repro import compiler, telemetry
from repro.field import GOLDILOCKS, P128, FieldParams, PrimeField
from repro.pcp import SoundnessParams

#: the mutations the untimed soundness canary must see rejected
CANARY_MUTATIONS = ("substitute-commitment", "wrong-h")


@dataclass(frozen=True)
class BatchSpec:
    """A batch workload: one app instance run through the argument."""

    app: str
    sizes: dict
    field: FieldParams
    params: SoundnessParams
    paper_scale_crypto: bool
    beta: int
    #: None: ``ZaatarArgument.run_batch``; N: ``run_parallel_batch`` with
    #: exactly N workers (the library default, cpu_count-1, is 1 on a
    #: 2-core host and would silently run inline)
    workers: int | None = None


_BISECTION = dict(
    app="root_finding_bisection",
    sizes={"m": 8, "L": 6, "num_bits": 8, "den_bits": 5},
    field=P128,
    params=SoundnessParams(delta=0.0294, rho_lin=4, rho=2),
    paper_scale_crypto=False,
    beta=8,
)

BATCH_WORKLOADS: dict[str, BatchSpec] = {
    # verifier set-up at the paper's soundness (ρ_lin=20, ρ=8) with the
    # 1024-bit group: the PRG and Enc(r) do most of the work
    "paper-b1": BatchSpec(
        app="matrix_multiplication",
        sizes={"m": 3, "value_bits": 8},
        field=P128,
        params=SoundnessParams(delta=0.0294, rho_lin=20, rho=8),
        paper_scale_crypto=True,
        beta=1,
    ),
    # the prover-bound amortized batch (batched H(t) prover)
    "b8": BatchSpec(**_BISECTION),
    # the same inputs through the fork pool (per-instance H(t) path)
    "b8-workers": BatchSpec(**_BISECTION, workers=2),
}

SERVED = "served"
WORKLOADS = (*BATCH_WORKLOADS, SERVED)

#: the served workload's pinned protocol parameters (goldilocks field)
SERVED_PARAMS = SoundnessParams(delta=0.0294, rho_lin=4, rho=2)
SERVED_CLIENTS = 2
SERVED_GATEWAY = dict(shards=1, max_sessions=SERVED_CLIENTS, accept_queue=2 * SERVED_CLIENTS)


def one_cpu(name: str) -> bool:
    """Whether a workload runs pinned to one CPU, with its calibration.

    Everything but ``b8-workers`` does: on a shared host each core drifts
    on its own, so the calibration kernel only tracks the workload's
    speed when both run on the same core.  ``b8-workers`` needs both
    cores for its two workers.  ``served`` keeps its gateway, shard and
    verifier threads on one core too: it used about one core unpinned,
    and pinned it measures the program's work rather than the host's
    cross-CPU wake-up latency.
    """
    return name == SERVED or BATCH_WORKLOADS[name].workers is None


def derive_seed(*parts) -> bytes:
    """A 16-byte protocol seed from the workload seed and a verdict id."""
    return hashlib.sha256(":".join(map(str, parts)).encode()).digest()[:16]


def derive_rng(*parts) -> random.Random:
    """The input generator for one verdict (same parts, same inputs)."""
    return random.Random(":".join(map(str, parts)))


# -- batch workloads ----------------------------------------------------------


def warm_qap(qap) -> None:
    """Touch the QAP's lazily built artifacts (the same set
    ``RegisteredProgram.warm`` touches), moving their cost into set-up."""
    qap.subproduct_tree
    qap.divisor_poly
    qap.barycentric_weights
    qap.divisor_inverse_series


def batch_config(spec: BatchSpec, seed: bytes) -> ArgumentConfig:
    """The pinned protocol configuration, with one verdict's seed."""
    return ArgumentConfig(
        params=spec.params,
        paper_scale_crypto=spec.paper_scale_crypto,
        use_commitment=True,
        seed=seed,
    )


@dataclass
class BatchContext:
    """Everything set-up builds once per process for a batch workload."""

    spec: BatchSpec
    field: PrimeField
    program: object
    argument: ZaatarArgument

    def expected(self, inputs) -> list[int]:
        """The reference outputs of one instance, reduced into the field."""
        app = SCENARIO_APPS[self.spec.app]
        return [v % self.field.p for v in app.reference(inputs, self.spec.sizes)]

    def inputs(self, *parts) -> list[list[int]]:
        """β seed-derived input vectors for one batch."""
        app = SCENARIO_APPS[self.spec.app]
        rng = derive_rng(*parts)
        return [app.generate_inputs(rng, self.spec.sizes) for _ in range(self.spec.beta)]

    def prove(self, argument: ZaatarArgument, inputs, seed: bytes):
        """Run one batch through the workload's path; returns
        ``(BatchResult, ParallelBatchResult | None)``."""
        argument.config = dataclasses.replace(argument.config, seed=seed)
        if self.spec.workers is None:
            return argument.run_batch(inputs), None
        parallel = run_parallel_batch(argument, inputs, num_workers=self.spec.workers)
        return parallel.result, parallel


def setup_batch(name: str) -> BatchContext:
    """Compile, build the QAP and warm its lazy artifacts.

    This is what a user pays once per process before the first batch;
    ``setup_s`` times exactly this call in fresh processes.
    """
    spec = BATCH_WORKLOADS[name]
    field = PrimeField(spec.field)
    program = SCENARIO_APPS[spec.app].compile(field, spec.sizes)
    with telemetry.span("qap.build"):
        argument = ZaatarArgument(program, batch_config(spec, b"setup"))
        warm_qap(argument.qap)
    return BatchContext(spec, field, program, argument)


def wire_bytes_per_instance(ctx: BatchContext, seed: int) -> float:
    """Bytes per instance that ``repro.argument.wire``'s seeded transport
    serializes for one untimed batch of fresh inputs: ``Enc(r)``, the
    seed and the consistency query once, then each instance's inputs,
    outputs, commitment and answers."""
    inputs = ctx.inputs(ctx.spec.app, seed, "wire")
    argument = ctx.argument
    argument.config = dataclasses.replace(argument.config, seed=derive_seed("wire", seed))
    tally, accepted = wire.transport_costs(argument, inputs, mode="seeded")
    if not accepted:
        raise RuntimeError("the honest batch sent through the wire transport was rejected")
    return tally.total / ctx.spec.beta


class _Canary(AdversarialProver):
    """One adversarial batch carrying every canary mutation: each
    instance's inputs select the mutation its proof applies, so the
    instances can be proved in any process (fork-pool workers too)."""

    def __init__(self, program, config, plan: dict, seed: int):
        super().__init__(program, config, mutation=CANARY_MUTATIONS[0], seed=seed)
        self.plan = plan

    def prove_instance(self, input_values, setup, stats):
        self.mutation = self.plan[tuple(input_values)]
        return super().prove_instance(input_values, setup, stats)


def run_canary(ctx: BatchContext, seed: int) -> list[str]:
    """Untimed soundness canary: every mutation must be rejected.

    One batch through the workload's own path, one instance per
    mutation in :data:`CANARY_MUTATIONS`.  Returns the mutations whose
    instance was *accepted* — any entry means a check was weakened.
    """
    app = SCENARIO_APPS[ctx.spec.app]
    rng = derive_rng("canary", seed)
    inputs = [app.generate_inputs(rng, ctx.spec.sizes) for _ in CANARY_MUTATIONS]
    plan = dict(zip(map(tuple, inputs), CANARY_MUTATIONS))
    if len(plan) != len(CANARY_MUTATIONS):
        raise RuntimeError("canary inputs collided; pick another seed")
    canary = _Canary(ctx.program, batch_config(ctx.spec, b"canary"), plan, seed)
    canary.qap = ctx.argument.qap
    result, _ = ctx.prove(canary, inputs, derive_seed("canary", seed))
    return [plan[tuple(x)] for x, r in zip(inputs, result.instances) if r.accepted]


# -- the served workload ------------------------------------------------------


def _dotp(b):
    xs = b.inputs(4)
    b.output(xs[0] * xs[1] + xs[2] * xs[3])


def _horner(b):
    x = b.input()
    acc = b.constant(1)
    for _ in range(4):
        acc = acc * x + x
    b.output(acc)


def _cube(b):
    x, y = b.inputs(2)
    b.output(x * x * x + y)


def _sumsq(b):
    xs = b.inputs(3)
    b.output(xs[0] * xs[0] + xs[1] * xs[1] + xs[2] * xs[2])


def _horner_ref(v):
    acc = 1
    for _ in range(4):
        acc = acc * v[0] + v[0]
    return acc


#: (name, builder, input count, the benchmark's own evaluation)
SERVED_PROGRAMS = (
    ("dotp", _dotp, 4, lambda v: v[0] * v[1] + v[2] * v[3]),
    ("horner", _horner, 1, _horner_ref),
    ("cube", _cube, 2, lambda v: v[0] ** 3 + v[1]),
    ("sumsq", _sumsq, 3, lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2),
)


def served_field() -> PrimeField:
    """The served programs' field (goldilocks)."""
    return PrimeField(GOLDILOCKS)


def served_config(seed: bytes) -> ArgumentConfig:
    """The served workload's pinned configuration, with one session's seed."""
    return ArgumentConfig(params=SERVED_PARAMS, use_commitment=True, seed=seed)


def compile_served(field: PrimeField) -> list:
    """Compile the hosted programs (looked up on ``repro.compiler`` so a
    traced run's wrapper sees the call)."""
    return [
        compiler.compile_program(field, build, name=name)
        for name, build, _, _ in SERVED_PROGRAMS
    ]


def run_served_canary(program, address, seed: int) -> list[str]:
    """Untimed soundness canary for ``served``: one session of the first
    program against a prover that substitutes its commitment
    (``probe.py cheater``).  Returns the mutations ``verify_remote``
    *accepted* — any entry means a check on the client path was
    weakened."""
    _, _, arity, _ = SERVED_PROGRAMS[0]
    rng = derive_rng("served-canary", seed)
    inputs = [rng.randrange(1 << 16) for _ in range(arity)]
    config = served_config(derive_seed("served-canary", seed))
    outcome = verify_remote(program, [inputs], address, config)
    return ["substitute-commitment"] if outcome.instances[0].accepted else []


def served_session(session_id: int, seed: int, p: int):
    """The deterministic rotation: (program index, inputs, expected, seed)."""
    index = session_id % len(SERVED_PROGRAMS)
    _, _, arity, evaluate = SERVED_PROGRAMS[index]
    rng = derive_rng("served", seed, session_id)
    inputs = [rng.randrange(1 << 16) for _ in range(arity)]
    return index, inputs, [evaluate(inputs) % p], derive_seed("served", seed, session_id)
