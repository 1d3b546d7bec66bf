"""Detector-churn extension: steady-state churn on probe-derived liveness.

``steady-churn`` runs the churn engine against the omniscient
:class:`~repro.membership.views.OracleView` — every death is known the
instant it happens. This spec swaps in the
:class:`~repro.membership.probe.ProbeView`: the engine keeps killing
peers through ground truth (session expiry), but everything it *reads*
— stale-link counts, compaction, probe targets — answers with what the
failure detectors and gossip epidemics have actually learned. Three
quantities fall out, none observable under the oracle:

* **detection lag** — epochs between a recorded death and its quorum
  eviction (the believed-live set lags truth by exactly this);
* **false evictions** — truth-live peers voted out under probe loss;
* **lag-window routing** — the success rate of probe batches issued
  while undetected dead peers still poison routes (epochs where
  believed-live > truth-live), versus the overall mean.

The registered ``detector-grid`` sweep crosses detector aggressiveness
(probe rounds per epoch) x probe loss x churn half-life — the scenario
family ``docs/membership.md`` analyzes. ``scripts/bench_ci.py``
snapshots this spec into ``BENCH_detector.json``.
"""

from __future__ import annotations

import time

import numpy as np

from ..churn.sessions import make_sessions
from ..engine import SteadyStateChurnEngine
from ..errors import ConfigError
from ..membership import DetectorConfig, ProbeView
from .base import ExperimentResult, scaled_sizes
from .growth import make_overlay
from .scenario import DEGREE_DISTRIBUTIONS, KEY_DISTRIBUTIONS
from .spec import SweepSpec, experiment, register_sweep

__all__ = ["run"]


@experiment(
    "detector-churn",
    title="Failure detection under churn: lag, false evictions, routing",
    tags=("extension",),
    help={
        "substrate": "overlay kind: oscar | chord | mercury",
        "size": "steady-state population target (scaled by --scale)",
        "epochs": "lock-step churn epochs to simulate",
        "half_life": "median session length in epochs",
        "sessions": "session-time shape: exponential | pareto | trace",
        "keys": "key distribution: uniform | clustered | zipf | gnutella",
        "degrees": "cap distribution: constant | realistic | stepped",
        "repair_every": "epochs between full link repairs (1 = every epoch)",
        "n_queries": "routed probes per epoch (0 = one per live peer)",
        "rounds": "probe rounds per epoch (detector aggressiveness)",
        "threshold": "consecutive probe failures before suspicion (K)",
        "quorum": "distinct suspecting monitors per eviction",
        "monitors": "clockwise successors probing each peer",
        "loss": "per-probe loss probability in [0, 1)",
        "fanout": "gossip push fanout per round",
        "backend": "detector bank: vectorized | scalar (bit-identical)",
    },
)
def run(
    scale: float = 1.0,
    seed: int = 42,
    substrate: str = "oscar",
    size: int = 10_000,
    epochs: int = 20,
    half_life: float = 8.0,
    sessions: str = "exponential",
    keys: str = "gnutella",
    degrees: str = "constant",
    repair_every: int = 4,
    n_queries: int = 256,
    rounds: int = 2,
    threshold: int = 3,
    quorum: int = 2,
    monitors: int = 3,
    loss: float = 0.0,
    fanout: int = 2,
    backend: str = "vectorized",
) -> ExperimentResult:
    """Epoch time series of churn routed over probe-derived knowledge."""
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if keys not in KEY_DISTRIBUTIONS:
        raise ValueError(f"unknown key distribution {keys!r}; known: {sorted(KEY_DISTRIBUTIONS)}")
    if degrees not in DEGREE_DISTRIBUTIONS:
        raise ValueError(
            f"unknown degree distribution {degrees!r}; known: {sorted(DEGREE_DISTRIBUTIONS)}"
        )
    session_times = make_sessions(sessions, half_life)  # validates the name
    detector = DetectorConfig(
        failure_threshold=threshold,
        quorum=quorum,
        n_monitors=monitors,
        loss=loss,
        rounds_per_epoch=rounds,
        gossip_fanout=fanout,
    )

    (target,) = scaled_sizes((size,), scale)
    key_distribution = KEY_DISTRIBUTIONS[keys]()
    degree_distribution = DEGREE_DISTRIBUTIONS[degrees]()
    overlay = make_overlay(substrate, seed=seed)  # type: ignore[arg-type]

    build_started = time.perf_counter()  # repro: allow[CLK001] measured wall-time series
    overlay.grow_batch(target, key_distribution, degree_distribution)
    overlay.rewire_batch()
    build_seconds = time.perf_counter() - build_started  # repro: allow[CLK001] measured wall-time series

    membership = ProbeView(overlay.ring, detector, seed=seed, backend=backend)
    engine = SteadyStateChurnEngine(
        overlay,
        key_distribution,
        degree_distribution,
        session_times,
        arrival_rate=target / session_times.mean,
        repair_every=repair_every,
        n_probes=n_queries,
        seed=seed,
        membership=membership,
    )

    success: list[tuple[float, float]] = []
    cost: list[tuple[float, float]] = []
    believed: list[tuple[float, float]] = []
    truth: list[tuple[float, float]] = []
    undetected: list[tuple[float, float]] = []
    evictions: list[tuple[float, float]] = []
    epoch_seconds: list[tuple[float, float]] = []
    # (epoch success, in-lag-window?) pairs: an epoch is in the lag
    # window when its probe batch ran with undetected dead peers still
    # believed alive — the regime the oracle never enters.
    lag_window: list[tuple[float, bool]] = []
    churn_started = time.perf_counter()  # repro: allow[CLK001] measured wall-time series
    for __ in range(epochs):
        t0 = time.perf_counter()  # repro: allow[CLK001] measured wall-time series
        stats = engine.run_epoch()
        elapsed = time.perf_counter() - t0  # repro: allow[CLK001] measured wall-time series
        x = float(stats.epoch)
        gap = membership.live_count - overlay.ring.live_count
        success.append((x, stats.probes.success_rate))
        cost.append((x, stats.probes.mean_cost))
        believed.append((x, float(membership.live_count)))
        truth.append((x, float(stats.live)))
        undetected.append((x, float(gap)))
        evictions.append((x, float(membership.evictions)))
        epoch_seconds.append((x, elapsed))
        lag_window.append((stats.probes.success_rate, gap > 0))
    churn_seconds = time.perf_counter() - churn_started  # repro: allow[CLK001] measured wall-time series

    history = engine.history
    lags = np.asarray(membership.detection_lags, dtype=float)
    in_window = [s for s, lagged in lag_window if lagged]
    clean = [s for s, lagged in lag_window if not lagged]
    return ExperimentResult(
        experiment_id="detector-churn",
        title="Failure detection under churn: lag, false evictions, routing",
        series={
            "success rate": success,
            "mean search cost": cost,
            "believed live": believed,
            "truth live": truth,
            "undetected dead": undetected,
            "evictions (cumulative)": evictions,
            "epoch seconds": epoch_seconds,
        },
        scalars={
            "mean_success_rate": sum(s.probes.success_rate for s in history) / len(history),
            "final_success_rate": history[-1].probes.success_rate,
            "mean_cost": sum(s.probes.mean_cost for s in history) / len(history),
            # The lag window: epochs probed while >= 1 death was still
            # undetected. Empty window (e.g. zero churn) reports 1.0 —
            # "no lagged probes failed" is vacuously true.
            "lag_window_epochs": float(len(in_window)),
            "lag_window_success": (sum(in_window) / len(in_window)) if in_window else 1.0,
            "clean_window_success": (sum(clean) / len(clean)) if clean else 1.0,
            "detection_lag_mean": float(lags.mean()) if lags.size else 0.0,
            "detection_lag_p50": float(np.percentile(lags, 50)) if lags.size else 0.0,
            "detection_lag_p99": float(np.percentile(lags, 99)) if lags.size else 0.0,
            "evictions": float(membership.evictions),
            "false_evictions": float(membership.false_evictions),
            "false_eviction_rate": (
                membership.false_evictions / membership.evictions
                if membership.evictions
                else 0.0
            ),
            "max_undetected_dead": max(y for __, y in undetected),
            "final_live": float(history[-1].live),
            "total_departures": float(sum(s.departures for s in history)),
            "build_seconds": build_seconds,
            "churn_seconds": churn_seconds,
            "epochs_per_second": epochs / max(churn_seconds, 1e-9),
        },
        metadata={
            "scale": scale,
            "seed": seed,
            "substrate": substrate,
            "size": target,
            "epochs": epochs,
            "half_life": half_life,
            "sessions": sessions,
            "keys": keys,
            "degrees": degrees,
            "repair_every": repair_every,
            "n_queries": n_queries,
            "rounds": rounds,
            "threshold": threshold,
            "quorum": quorum,
            "monitors": monitors,
            "loss": loss,
            "fanout": fanout,
            "backend": backend,
        },
    )


# The detector scenario family: aggressiveness x probe loss x churn
# speed, each point one full epoch time series.
# `repro sweep detector-grid --scale 0.02 --jobs 4`.
register_sweep(
    SweepSpec(
        id="detector-grid",
        spec_id="detector-churn",
        title="Detector aggressiveness x probe loss x churn half-life",
        axes=(
            ("rounds", (1, 2, 4)),
            ("loss", (0.0, 0.05, 0.15)),
            ("half_life", (2.0, 8.0, 32.0)),
        ),
    )
)
