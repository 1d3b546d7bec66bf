"""Steady-state churn extension: surviving continuous turnover.

The paper's Figure 2 measures one-shot crash waves; its heterogeneity
argument, though, is about *long-running* operation in wide-area
environments where membership turns over continuously. This spec runs
the :class:`~repro.engine.churn.SteadyStateChurnEngine` — lock-step
epochs of Poisson arrivals, session-expiry departures, periodic repair
and routed probes — and records the resulting time series: success
rate, mean search cost, stale-link count and population size per epoch,
plus the wall time each epoch took (what ``scripts/bench_ci.py``
snapshots into ``BENCH_churn.json``).

The arrival rate is derived from the session distribution so the
population holds steady around the configured size (Little's law:
``N = arrival_rate x mean session``); the registered ``churn-grid``
sweep crosses churn half-life x substrate x cap distribution — the
grid the docs call the steady-churn scenario family.
"""

from __future__ import annotations

import time

from ..churn.sessions import SESSION_DISTRIBUTIONS, make_sessions
from ..engine import SteadyStateChurnEngine
from ..errors import ConfigError
from .base import ExperimentResult, scaled_sizes
from .growth import make_overlay
from .scenario import DEGREE_DISTRIBUTIONS, KEY_DISTRIBUTIONS
from .spec import SweepSpec, experiment, register_sweep

__all__ = ["run"]


@experiment(
    "steady-churn",
    title="Steady-state churn: routing under continuous turnover",
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
) -> ExperimentResult:
    """Epoch time series of an overlay under steady-state churn."""
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if keys not in KEY_DISTRIBUTIONS:
        raise ValueError(f"unknown key distribution {keys!r}; known: {sorted(KEY_DISTRIBUTIONS)}")
    if degrees not in DEGREE_DISTRIBUTIONS:
        raise ValueError(
            f"unknown degree distribution {degrees!r}; known: {sorted(DEGREE_DISTRIBUTIONS)}"
        )
    session_times = make_sessions(sessions, half_life)  # validates the name

    (target,) = scaled_sizes((size,), scale)
    key_distribution = KEY_DISTRIBUTIONS[keys]()
    degree_distribution = DEGREE_DISTRIBUTIONS[degrees]()
    overlay = make_overlay(substrate, seed=seed)  # type: ignore[arg-type]

    build_started = time.perf_counter()  # repro: allow[CLK001] measured wall-time series
    overlay.grow_batch(target, key_distribution, degree_distribution)
    overlay.rewire_batch()
    build_seconds = time.perf_counter() - build_started  # repro: allow[CLK001] measured wall-time series

    engine = SteadyStateChurnEngine(
        overlay,
        key_distribution,
        degree_distribution,
        session_times,
        arrival_rate=target / session_times.mean,
        repair_every=repair_every,
        n_probes=n_queries,
        seed=seed,
    )

    success: list[tuple[float, float]] = []
    cost: list[tuple[float, float]] = []
    stale: list[tuple[float, float]] = []
    live: list[tuple[float, float]] = []
    epoch_seconds: list[tuple[float, float]] = []
    churn_started = time.perf_counter()  # repro: allow[CLK001] measured wall-time series
    for __ in range(epochs):
        t0 = time.perf_counter()  # repro: allow[CLK001] measured wall-time series
        stats = engine.run_epoch()
        elapsed = time.perf_counter() - t0  # repro: allow[CLK001] measured wall-time series
        x = float(stats.epoch)
        success.append((x, stats.probes.success_rate))
        cost.append((x, stats.probes.mean_cost))
        stale.append((x, float(stats.stale_links)))
        live.append((x, float(stats.live)))
        epoch_seconds.append((x, elapsed))
    churn_seconds = time.perf_counter() - churn_started  # repro: allow[CLK001] measured wall-time series

    history = engine.history
    return ExperimentResult(
        experiment_id="steady-churn",
        title="Steady-state churn: routing under continuous turnover",
        series={
            "success rate": success,
            "mean search cost": cost,
            "stale links": stale,
            "live peers": live,
            "epoch seconds": epoch_seconds,
        },
        scalars={
            "mean_success_rate": sum(s.probes.success_rate for s in history) / len(history),
            "final_success_rate": history[-1].probes.success_rate,
            "mean_cost": sum(s.probes.mean_cost for s in history) / len(history),
            "max_stale_links": float(max(s.stale_links for s in history)),
            "final_live": float(history[-1].live),
            "total_arrivals": float(sum(s.arrivals for s in history)),
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
            "session_distributions": sorted(SESSION_DISTRIBUTIONS),
        },
    )


# The steady-churn scenario family: churn speed x substrate x cap
# distribution, each point one full epoch time series.
# `repro sweep churn-grid --scale 0.02 --jobs 4`.
register_sweep(
    SweepSpec(
        id="churn-grid",
        spec_id="steady-churn",
        title="Churn half-life x substrate x cap distribution",
        axes=(
            ("half_life", (2.0, 8.0, 32.0)),
            ("substrate", ("oscar", "chord", "mercury")),
            ("degrees", ("constant", "realistic")),
        ),
    )
)
