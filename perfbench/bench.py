"""The repository benchmark: two closed-loop workloads over the public API.

Each workload is a *round* — build an overlay, then drive it through a
fixed schedule — repeated while the run's time allows. One caller issues
everything back to back: a churn epoch
(``SteadyStateChurnEngine.run_epoch``) and then that epoch's serve
batches (``ServeEngine.serve_batch``). A workload may run several
independent *instances*, each a round at its own seed derived from
``--seed``; rounds cycle through the instances. Requests are generated
outside the timed calls from streams derived from the instance seed, so
one seed always produces the same simulated outcomes: every round of an
instance must agree, traced rounds must agree with untraced ones, and at
a seed listed in ``digests.json`` the outcome digest must match the
committed one. Any disagreement, or a broken serving invariant, makes
the run report ``correct: false``.

A plain run (``trace=False``) reports the end-to-end metrics in
:data:`END_TO_END`. A traced run alternates untraced and traced rounds
and reports the per-layer metrics in :data:`PER_LAYER`, measured by
wrapping the program's public calls (see ``tracer.py``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro import OscarConfig, OscarOverlay
from repro.churn.sessions import make_sessions
from repro.degree import ConstantDegrees
from repro.engine import BatchQueryEngine, ServeEngine, ServeSnapshot, SteadyStateChurnEngine
from repro.errors import ReproError
from repro.index import ReplicatedStore
from repro.membership import (
    DetectorConfig,
    GossipMembership,
    OracleView,
    ProbeView,
    ScalarDetectorBank,
    VectorizedDetectorBank,
)
from repro.ring import Ring
from repro.rng import split
from repro.workloads import FlashCrowdSchedule, GnutellaLikeDistribution, ServingWorkload

from tracer import Instrumented, Probe, Tracer

HERE = Path(__file__).resolve().parent
TRACE_DIR = HERE.parent / ".perfbench"
DIGESTS = HERE / "digests.json"
clock = time.perf_counter
REPLICAS = 3
PROBE_LOSS = 0.05
REFERENCE_S = 0.060
"""About the median time of :func:`reference_task` on the 2-core x86-64
host the benchmark was defined on: the host speed that the end-to-end
times are scaled to."""
REFERENCE_REPEATS = 3

# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SimSpec:
    """A simulator workload: churned Oscar overlay serving replicated items.

    Attributes:
        peers: Initial and steady-state population.
        membership: ``"oracle"`` or ``"probe"`` (``ProbeView``).
        half_life: Median session length in epochs.
        repair_every: Epochs between link repair + re-replication.
        epochs: Churn epochs per round.
        batches: Serve batches issued after each epoch.
        batch_size: Requests per serve batch.
        exponent: Zipf popularity skew of requested items.
        flash: Redirect 80% of requests to a hot arc in the middle third.
        probes: Routed probes per churn epoch (the engine's own check).
        instances: Independent simulations per run, at seeds
            ``seed * instances + i``. A run's metrics cover all of them,
            so they depend less on what one seed happens to draw.
    """

    peers: int
    membership: str
    half_life: float
    repair_every: int
    epochs: int
    batches: int
    batch_size: int
    exponent: float
    flash: bool = False
    probes: int = 256
    instances: int = 1


WORKLOADS: dict[str, dict[str, SimSpec]] = {
    "full": {
        "serve-hot": SimSpec(
            peers=20_000, membership="oracle", half_life=256.0, repair_every=6,
            epochs=9, batches=32, batch_size=4096, exponent=1.0, flash=True,
        ),
        "probe-churn": SimSpec(
            peers=2_000, membership="probe", half_life=8.0, repair_every=4,
            epochs=8, batches=5, batch_size=512, exponent=0.9, instances=5,
        ),
    },
    "tiny": {
        "serve-hot": SimSpec(
            peers=300, membership="oracle", half_life=256.0, repair_every=2,
            epochs=3, batches=4, batch_size=64, exponent=1.0, flash=True, probes=32,
        ),
        "probe-churn": SimSpec(
            peers=200, membership="probe", half_life=8.0, repair_every=2,
            epochs=8, batches=4, batch_size=64, exponent=0.9, probes=32, instances=2,
        ),
    },
}

# ----------------------------------------------------------------------
# metric registry: name -> (unit, better)
# ----------------------------------------------------------------------

END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "epochs_per_s": ("1/s", "higher"),
    "serve_qps": ("req/s", "higher"),
    "serve_batch_ms_p50": ("ms", "lower"),
    "serve_batch_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "hops_p50": ("hops", "lower"),
    "hops_p99": ("hops", "lower"),
    "probe_success_rate": ("fraction", "higher"),
    "probe_mean_hops": ("hops", "lower"),
}

LAYERS = (
    "construct", "ring", "churn", "membership", "replication",
    "batch", "serve", "workload",
)

PER_LAYER: dict[str, tuple[str, str]] = {
    "construct.grow_batch_s": ("s", "lower"),
    "construct.rewire_batch_s": ("s", "lower"),
    "construct.rewire_calls": ("count", "lower"),
    "construct.links_placed": ("count", "higher"),
    "construct.draws_per_link": ("ratio", "lower"),
    "construct.conflicts": ("count", "lower"),
    "construct.slots_given_up": ("count", "lower"),
    "ring.leave_batch_s": ("s", "lower"),
    "ring.pointer_fixes": ("count", "lower"),
    "ring.remove_many_s": ("s", "lower"),
    "ring.compacted": ("count", "higher"),
    "churn.run_epoch_s": ("s", "lower"),
    "churn.arrivals": ("count", "higher"),
    "churn.departures": ("count", "lower"),
    "churn.stale_links_max": ("count", "lower"),
    "membership.advance_s": ("s", "lower"),
    "membership.gossip_spread_s": ("s", "lower"),
    "membership.detector_round_s": ("s", "lower"),
    "membership.evictions": ("count", "higher"),
    "membership.false_evictions": ("count", "lower"),
    "membership.detection_lag_p50": ("epochs", "lower"),
    "membership.detection_lag_p90": ("epochs", "lower"),
    "replication.seed_items_s": ("s", "lower"),
    "replication.rereplicate_s": ("s", "lower"),
    "replication.placed": ("count", "higher"),
    "replication.phantom_replicas": ("count", "lower"),
    "replication.under_k_max": ("count", "lower"),
    "replication.lookup_s": ("s", "lower"),
    "batch.measure_s": ("s", "lower"),
    "batch.probes": ("count", "higher"),
    "batch.faulty_share": ("fraction", "lower"),
    "serve.serve_batch_s": ("s", "lower"),
    "serve.snapshot_s": ("s", "lower"),
    "serve.snapshot_rebuilds": ("count", "lower"),
    "serve.cache_hit_rate": ("fraction", "higher"),
    "serve.cache_hits": ("count", "higher"),
    "serve.cache_misses": ("count", "lower"),
    "serve.cache_evictions": ("count", "lower"),
    "serve.cache_invalidations": ("count", "lower"),
    "serve.routed_requests": ("count", "lower"),
    "serve.stale_serves": ("count", "lower"),
    "workload.generate_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.share": ("fraction", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_frac": ("fraction", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}

# ----------------------------------------------------------------------
# one round
# ----------------------------------------------------------------------


@dataclass
class Round:
    """Timings, simulated outcome and invariant breaches of one round.

    ``outcome`` holds only simulated quantities (no times): it is what
    the digest covers and what must repeat across rounds. ``layer`` holds
    per-layer counts read off the engines when the round ends, so the
    round keeps no engine alive.
    """

    instance: int = 0
    reference_s: list[float] = field(default_factory=list)
    setup_s: float = 0.0
    wall_s: float = 0.0
    epoch_s: list[float] = field(default_factory=list)
    batch_s: list[float] = field(default_factory=list)
    requests: int = 0
    failed: int = 0
    outcome: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)


def _hist_add(hist: list[int], counts: np.ndarray) -> None:
    if len(hist) < counts.size:
        hist.extend([0] * (counts.size - len(hist)))
    for hops, count in enumerate(counts.tolist()):
        hist[hops] += int(count)


@dataclass
class SimSystem:
    """The objects one simulator round drives."""

    overlay: OscarOverlay
    view: OracleView | ProbeView
    store: ReplicatedStore
    engine: SteadyStateChurnEngine
    serve: ServeEngine
    workload: ServingWorkload
    seeded: int


def sim_setup(spec: SimSpec, seed: int) -> SimSystem:
    """Build the overlay, seed the catalog and construct the engines."""
    keys, degrees = GnutellaLikeDistribution(), ConstantDegrees()
    overlay = OscarOverlay(OscarConfig(), seed=seed)
    overlay.grow_batch(spec.peers, keys, degrees)
    overlay.rewire_batch()
    if spec.membership == "probe":
        view: OracleView | ProbeView = ProbeView(
            overlay.ring, DetectorConfig(loss=PROBE_LOSS), seed=seed
        )
    else:
        view = OracleView(overlay.ring)
    store = ReplicatedStore(overlay.ring, k=REPLICAS)
    seeded = store.seed_items(split(seed, "perfbench-items").random(spec.peers), view)
    sessions = make_sessions("exponential", spec.half_life)
    engine = SteadyStateChurnEngine(
        overlay, keys, degrees, sessions,
        arrival_rate=spec.peers / sessions.mean,
        repair_every=spec.repair_every,
        n_probes=spec.probes,
        seed=seed,
        membership=view,
        replication=store,
    )
    flash = None
    if spec.flash:
        flash = FlashCrowdSchedule(
            start=spec.epochs // 3 + 1, stop=2 * spec.epochs // 3 + 1, fraction=0.8
        )
    return SimSystem(
        overlay=overlay,
        view=view,
        store=store,
        engine=engine,
        serve=ServeEngine(overlay, store, view),
        workload=ServingWorkload(exponent=spec.exponent, flash=flash),
        seeded=seeded,
    )


def sim_round(spec: SimSpec, seed: int) -> Round:
    """Build, churn and serve one simulator round at ``seed``."""
    out = Round()
    started = clock()
    system = sim_setup(spec, seed)
    out.setup_s = clock() - started
    overlay, view, store = system.overlay, system.view, system.store
    engine, serve, workload = system.engine, system.serve, system.workload

    hist: list[int] = []
    totals = dict.fromkeys(("hits", "found", "successes", "stale"), 0)
    probe_routes = probe_success = 0
    probe_hops: list[float] = []
    epochs: list[list[int]] = []
    for __ in range(spec.epochs):
        t0 = clock()
        stats = engine.run_epoch()
        out.epoch_s.append(clock() - t0)
        e = stats.epoch
        probe_routes += stats.probes.n_routes
        probe_success += stats.probes.n_success
        probe_hops.append(stats.probes.mean_hops)
        epochs.append([stats.arrivals, stats.departures, stats.live, stats.stale_links])
        believed = view.live_ids()
        truth = overlay.ring.ids_array(live_only=True)
        pool = believed[np.isin(believed, truth, assume_unique=True)]
        for batch in range(spec.batches):
            rng = split(seed, "perfbench-requests", e, batch)
            sources, targets = workload.generate_arrays(
                pool, store.item_keys, rng, spec.batch_size, epoch=e
            )
            n = int(sources.size)
            out.requests += n
            t0 = clock()
            try:
                result = serve.serve_batch(sources, targets)
            except ReproError as exc:
                out.batch_s.append(clock() - t0)
                out.failed += n
                out.problems.append(f"epoch {e}: serve batch raised {exc!r}")
                continue
            out.batch_s.append(clock() - t0)
            _check_batch(spec, result, believed, e, out.problems)
            routed = ~result.hit
            _hist_add(hist, np.bincount(result.hops[routed]))
            totals["hits"] += int(result.hit.sum())
            totals["found"] += int(result.found.sum())
            totals["successes"] += int(result.success.sum())
            totals["stale"] += int(result.stale.sum())
    out.outcome = {
        "hops_hist": hist,
        "requests": out.requests,
        "failed": out.failed,
        **totals,
        "items_seeded": system.seeded,
        "items_lost": store.items_lost_total,
        "items_final": store.item_count,
        "probe_routes": probe_routes,
        "probe_success": probe_success,
        "probe_hops": probe_hops,
        "epochs": epochs,
        "evictions": int(getattr(view, "evictions", 0)),
        "false_evictions": int(getattr(view, "false_evictions", 0)),
    }
    cache = serve.result_cache
    lags = getattr(view, "detection_lags", [])
    out.layer = {
        "serve.cache_hits": cache.hits,
        "serve.cache_misses": cache.misses,
        "serve.cache_evictions": cache.evictions,
        "serve.cache_invalidations": cache.invalidations,
    }
    if lags:
        out.layer["membership.detection_lag_p50"] = float(np.percentile(lags, 50))
        out.layer["membership.detection_lag_p90"] = float(np.percentile(lags, 90))
    return out


def _check_batch(spec: SimSpec, result, believed: np.ndarray, epoch: int, problems: list[str]) -> None:
    """Serving invariants every batch must hold."""
    if not np.isin(result.owners, believed).all():
        problems.append(f"epoch {epoch}: served owner not believed live")
    if np.any(result.hops[result.hit] != 0):
        problems.append(f"epoch {epoch}: cache hit charged hops")
    if spec.membership == "oracle" and result.stale.any():
        problems.append(f"epoch {epoch}: stale serve under oracle membership")


def run_round(spec: SimSpec, seed: int, instance: int) -> Round:
    """One round of ``instance``, with its wall time and the reference
    task's times just before it. Every round starts with no garbage left
    by the rounds before it."""
    gc.collect()
    reference_s = reference_times()
    started = clock()
    out = sim_round(spec, seed * spec.instances + instance)
    out.wall_s = clock() - started
    out.instance = instance
    out.reference_s = reference_s
    return out


def by_instance(rounds: list[Round]) -> list[list[Round]]:
    """The rounds of each instance, in instance order."""
    groups: dict[int, list[Round]] = {}
    for r in rounds:
        groups.setdefault(r.instance, []).append(r)
    return [groups[i] for i in sorted(groups)]


def best_of(repeats: list[list[float]]) -> list[float]:
    """Per position, the fastest of an instance's repeats of one call.

    Repeats of an instance do identical work, so the fastest is the one
    least slowed by other load on the host."""
    return np.min(np.array(repeats), axis=0).tolist()


def digest(outcome: Any) -> str:
    """Stable hash of a simulated outcome (or a list of them)."""
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------


def reference_task() -> None:
    """Fixed work in the benchmark's own code, shaped like the program's
    hot paths: Python-int set updates from numpy draws (as in gossip),
    then sorted-array membership, searches and a sort (as in routing and
    construction). The program never runs it, so a change to the program
    cannot change its time."""
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 1 << 40, size=20_000)
    informed: set[int] = set()
    for chunk in np.array_split(ids, 40):
        informed.update(int(x) for x in chunk)
    members = np.fromiter(sorted(informed), dtype=np.int64, count=len(informed))
    np.isin(ids, members)
    np.searchsorted(members, rng.integers(0, 1 << 40, size=200_000))
    np.argsort(rng.random(200_000))


def reference_times() -> list[float]:
    """Seconds per :func:`reference_task`, a few runs back to back."""
    times = []
    for __ in range(REFERENCE_REPEATS):
        t0 = clock()
        reference_task()
        times.append(clock() - t0)
    return times


def slowness(rounds: list[Round]) -> float:
    """The host's slowness over a run: the median time of every
    :func:`reference_task` run in it over :data:`REFERENCE_S`, above 1
    when the host ran slower than when the benchmark was defined.

    The host's speed drifts by up to 60% over minutes, in CPU time as
    well as wall time, and the drift moves the program and the reference
    task alike (on ``probe-churn`` their round-by-round times correlate
    at 0.84), so the end-to-end times are divided by it."""
    return statistics.median(t for r in rounds for t in r.reference_s) / REFERENCE_S


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def hist_quantile(hist: list[int], q: float) -> float:
    """Quantile of integer hop counts, each count spread evenly over
    ``[h - 0.5, h + 0.5)`` so the result moves smoothly with the mix."""
    total = sum(hist)
    if total == 0:
        return 0.0
    goal = q * total
    below = 0
    for hops, count in enumerate(hist):
        if count and below + count >= goal:
            return hops - 0.5 + (goal - below) / count
        below += count
    return len(hist) - 0.5


def best_batch_s(rounds: list[Round]) -> list[float]:
    """Best-of-repeats time of every serve batch of every instance."""
    return [s for group in by_instance(rounds) for s in best_of([r.batch_s for r in group])]


def outcomes(rounds: list[Round]) -> list[dict[str, Any]]:
    """The simulated outcome of each instance, in instance order."""
    return [group[0].outcome for group in by_instance(rounds)]


def total(rounds: list[Round], key: str) -> int:
    """``key`` summed over the instances' outcomes."""
    return sum(o[key] for o in outcomes(rounds))


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """The end-to-end metrics of a plain run.

    Rates and latencies use each call's best-of-repeats time (see
    :func:`best_of`), summed or pooled over every instance. Every time
    is divided by the run's :func:`slowness`, so it reads as on a host
    at the reference speed."""
    host = slowness(rounds)
    epoch_s = [s for group in by_instance(rounds) for s in best_of([r.epoch_s for r in group])]
    batch_s = best_batch_s(rounds)
    hist: list[int] = []
    for o in outcomes(rounds):
        _hist_add(hist, np.array(o["hops_hist"], dtype=np.int64))
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds) / host,
        "epochs_per_s": len(epoch_s) / sum(epoch_s) * host,
        "serve_qps": total(rounds, "requests") / sum(batch_s) * host,
        "serve_batch_ms_p50": float(np.percentile(batch_s, 50)) * 1e3 / host,
        "serve_batch_ms_p90": float(np.percentile(batch_s, 90)) * 1e3 / host,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "hops_p50": hist_quantile(hist, 0.50),
        "hops_p99": hist_quantile(hist, 0.99),
        "probe_success_rate": total(rounds, "probe_success") / total(rounds, "probe_routes"),
        "probe_mean_hops": float(np.mean([h for o in outcomes(rounds) for h in o["probe_hops"]])),
    }


def extras(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    """Figures printed beside the end-to-end metrics: the ones that are
    zero on some workloads, so they cannot be gated."""
    requests = total(rounds, "requests")
    return {
        "error_rate": (1.0 - total(rounds, "successes") / requests, "fraction"),
        "items_lost": (float(total(rounds, "items_lost")), "items"),
        "items_seeded": (float(total(rounds, "items_seeded")), "items"),
        "cache_hit_rate": (total(rounds, "hits") / requests, "fraction"),
    }


# Counts read off call results while tracing.


def _link_stats(name: str):
    def harvest(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        c = tracer.counters
        c[f"{name}.calls"] += 1
        c["construct.links_placed"] += result.links_placed
        c["construct.draws"] += result.draws
        c["construct.conflicts"] += result.conflicts
        c["construct.slots_given_up"] += result.slots_given_up
    return harvest


def _epoch_stats(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    c = tracer.counters
    c["churn.arrivals"] += result.arrivals
    c["churn.departures"] += result.departures
    c["churn.stale_links_max"] = max(c["churn.stale_links_max"], result.stale_links)


def _pointer_fixes(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["ring.pointer_fixes"] += int(result)


def _compacted(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["ring.compacted"] += len(args[1])


def _measure(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["batch.probes"] += result.n_routes
    tracer.counters["batch.faulty_calls"] += int(bool(kwargs.get("faulty", False)))


def _rereplicate(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    c = tracer.counters
    c["replication.placed"] += result.placed
    c["replication.phantom_replicas"] += result.phantom_replicas
    c["replication.under_k_max"] = max(c["replication.under_k_max"], result.under_k)


def _served(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["serve.routed_requests"] += int((~result.hit).sum())
    tracer.counters["serve.stale_serves"] += int(result.stale.sum())


def probes() -> list[Probe]:
    """Every public call the traced run wraps, by layer."""
    return [
        Probe(OscarOverlay, "grow_batch", "construct.grow_batch", _link_stats("construct.grow_batch")),
        Probe(OscarOverlay, "rewire_batch", "construct.rewire_batch", _link_stats("construct.rewire_batch")),
        Probe(OscarOverlay, "leave_batch", "ring.leave_batch", _pointer_fixes),
        Probe(Ring, "remove_many", "ring.remove_many", _compacted),
        Probe(SteadyStateChurnEngine, "run_epoch", "churn.run_epoch", _epoch_stats),
        Probe(OracleView, "advance", "membership.advance"),
        Probe(ProbeView, "advance", "membership.advance"),
        Probe(GossipMembership, "spread", "membership.gossip_spread"),
        Probe(VectorizedDetectorBank, "round", "membership.detector_round"),
        Probe(ScalarDetectorBank, "round", "membership.detector_round"),
        Probe(ReplicatedStore, "seed_items", "replication.seed_items"),
        Probe(ReplicatedStore, "rereplicate", "replication.rereplicate", _rereplicate),
        Probe(ReplicatedStore, "lookup_rows", "replication.lookup_rows"),
        Probe(ReplicatedStore, "truth_live_mask", "replication.truth_live_mask"),
        Probe(BatchQueryEngine, "measure", "batch.measure", _measure),
        Probe(ServeEngine, "serve_batch", "serve.serve_batch", _served),
        Probe(ServeSnapshot, "capture", "serve.snapshot"),
        Probe(ServingWorkload, "generate_arrays", "workload.generate"),
    ]


def per_layer(
    tracer: Tracer, traced: list[Round], untraced: list[Round]
) -> dict[str, float]:
    """The per-layer metrics, per traced round."""
    k = len(traced)
    c = tracer.counters
    wall = sum(r.wall_s for r in traced)

    def mean(values) -> float:
        return float(sum(values)) / k

    hits = sum(r.layer["serve.cache_hits"] for r in traced)
    cache_requests = hits + sum(r.layer["serve.cache_misses"] for r in traced)
    links = c["construct.links_placed"]
    measure_calls = tracer.calls["batch.measure"]
    self_total = sum(tracer.self_s[layer] for layer in LAYERS)
    values: dict[str, float] = {
        "construct.grow_batch_s": tracer.seconds("construct.grow_batch") / k,
        "construct.rewire_batch_s": tracer.seconds("construct.rewire_batch") / k,
        "construct.rewire_calls": c["construct.rewire_batch.calls"] / k,
        "construct.links_placed": links / k,
        "construct.draws_per_link": c["construct.draws"] / links if links else 0.0,
        "construct.conflicts": c["construct.conflicts"] / k,
        "construct.slots_given_up": c["construct.slots_given_up"] / k,
        "ring.leave_batch_s": tracer.seconds("ring.leave_batch") / k,
        "ring.pointer_fixes": c["ring.pointer_fixes"] / k,
        "ring.remove_many_s": tracer.seconds("ring.remove_many") / k,
        "ring.compacted": c["ring.compacted"] / k,
        "churn.run_epoch_s": tracer.seconds("churn.run_epoch") / k,
        "churn.arrivals": c["churn.arrivals"] / k,
        "churn.departures": c["churn.departures"] / k,
        "churn.stale_links_max": float(c["churn.stale_links_max"]),
        "membership.advance_s": tracer.seconds("membership.advance") / k,
        "membership.gossip_spread_s": tracer.seconds("membership.gossip_spread") / k,
        "membership.detector_round_s": tracer.seconds("membership.detector_round") / k,
        "membership.evictions": mean(r.outcome["evictions"] for r in traced),
        "membership.false_evictions": mean(r.outcome["false_evictions"] for r in traced),
        "replication.seed_items_s": tracer.seconds("replication.seed_items") / k,
        "replication.rereplicate_s": tracer.seconds("replication.rereplicate") / k,
        "replication.placed": c["replication.placed"] / k,
        "replication.phantom_replicas": c["replication.phantom_replicas"] / k,
        "replication.under_k_max": float(c["replication.under_k_max"]),
        "replication.lookup_s": (
            tracer.seconds("replication.lookup_rows", "serve.serve_batch")
            + tracer.seconds("replication.truth_live_mask", "serve.serve_batch")
        ) / k,
        "batch.measure_s": tracer.seconds("batch.measure") / k,
        "batch.probes": c["batch.probes"] / k,
        "batch.faulty_share": c["batch.faulty_calls"] / measure_calls if measure_calls else 0.0,
        "serve.serve_batch_s": tracer.seconds("serve.serve_batch") / k,
        "serve.snapshot_s": tracer.seconds("serve.snapshot") / k,
        "serve.snapshot_rebuilds": tracer.calls["serve.snapshot"] / k,
        "serve.cache_hit_rate": hits / cache_requests if cache_requests else 0.0,
        "serve.routed_requests": c["serve.routed_requests"] / k,
        "serve.stale_serves": c["serve.stale_serves"] / k,
        "workload.generate_s": tracer.seconds("workload.generate") / k,
        "trace.wall_s": wall / k,
        "trace.unattributed_frac": 1.0 - self_total / wall,
        "trace.overhead_frac": (
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in untraced) - 1.0
        ),
    }
    for name in PER_LAYER:
        values.setdefault(name, mean(r.layer.get(name, 0) for r in traced))
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.self_s[layer] / k
        values[f"{layer}.share"] = tracer.self_s[layer] / wall
    return values


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


@dataclass
class Report:
    """Everything one run measured and checked."""

    workload: str
    seed: int
    trace: bool
    rounds: list[Round]
    metrics: dict[str, float]
    extras: dict[str, tuple[float, str]]
    digest: str
    problems: list[str]

    @property
    def correct(self) -> bool:
        return not self.problems

    def result(self) -> dict[str, Any]:
        """The run's JSON result line."""
        units = PER_LAYER if self.trace else END_TO_END
        return {
            "correct": self.correct,
            "attempted": sum(r.requests for r in self.rounds),
            "failed": sum(r.failed for r in self.rounds),
            "metrics": {
                name: {"value": self.metrics[name], "unit": units[name][0]} for name in units
            },
        }


def load_digests() -> dict[str, Any]:
    """The committed outcome digests, ``{scale: {workload: {seed: hex}}}``."""
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    digests: dict[str, Any] | None = None,
) -> Report:
    """Run ``workload`` for about ``seconds`` and check its outcomes.

    A plain run cycles through the instances, one round each, to fill
    the time (at least one round per instance). A traced run gives each
    instance in turn an untraced and then a traced round (at least one
    pair per instance).
    """
    spec = WORKLOADS[scale][workload]
    per_instance = 2 if trace else 1
    tracer = Tracer()
    rounds: list[Round] = []
    traced: list[Round] = []
    untraced: list[Round] = []
    started = clock()
    while True:
        elapsed = clock() - started
        # Start another round only if, at the mean round time so far, it
        # ends at most a quarter round past ``seconds``.
        if len(rounds) >= per_instance * spec.instances:
            mean_round = elapsed / len(rounds)
            if elapsed + 0.75 * mean_round > seconds:
                break
        instance = len(rounds) // per_instance % spec.instances
        if trace and len(rounds) % 2 == 1:
            with Instrumented(tracer, probes()):
                current = run_round(spec, seed, instance)
            traced.append(current)
        else:
            current = run_round(spec, seed, instance)
            untraced.append(current)
        rounds.append(current)

    problems = [p for r in rounds for p in r.problems]
    for group in by_instance(rounds):
        digests_seen = {digest(r.outcome) for r in group}
        if len(digests_seen) > 1:
            problems.append(
                f"rounds of instance {group[0].instance} disagree on the simulated "
                f"outcome: {sorted(digests_seen)}"
            )
    observed = digest(outcomes(rounds))
    table = load_digests() if digests is None else digests
    expected = table.get(scale, {}).get(workload, {}).get(str(seed))
    if expected is not None and expected != observed:
        problems.append(f"outcome digest {observed} != committed {expected}")

    if trace:
        metrics = per_layer(tracer, traced, untraced)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write_jsonl(TRACE_DIR / f"trace-{workload}-seed{seed}.jsonl")
    else:
        metrics = end_to_end(rounds)
    return Report(
        workload=workload,
        seed=seed,
        trace=trace,
        rounds=rounds,
        metrics=metrics,
        extras=extras(rounds),
        digest=observed,
        problems=problems,
    )


def print_report(report: Report, out=sys.stdout) -> None:
    """Human-readable summary; the JSON result line comes last."""
    rounds = report.rounds
    instances = len(by_instance(rounds))
    samples = len(best_batch_s(rounds))
    print(
        f"# {report.workload} seed={report.seed} trace={int(report.trace)} "
        f"rounds={len(rounds)} instances={instances} "
        f"batch latency samples={samples} digest={report.digest}",
        file=out,
    )
    registry = PER_LAYER if report.trace else END_TO_END
    for name, (unit, better) in registry.items():
        print(f"{name:32s} {report.metrics[name]:>16.6g} {unit:9s} ({better} is better)", file=out)
    for name, (value, unit) in report.extras.items():
        print(f"{name:32s} {value:>16.6g} {unit:9s} (not gated)", file=out)
    print(
        f"{'host_slowness':32s} {slowness(rounds):>16.6g} {'ratio':9s} "
        "(end-to-end times are divided by it)",
        file=out,
    )
    if report.trace:
        shares = {layer: report.metrics[f"{layer}.share"] for layer in LAYERS}
        top = max(shares, key=shares.get)
        print(f"dominant layer: {top} ({shares[top]:.1%} of traced wall time)", file=out)
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}", file=out)
    print(json.dumps(report.result()), file=out)
