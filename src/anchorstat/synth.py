"""Synthetic paired-dataset generators and the Monte Carlo harness.

Each scenario draws one latent label vector and builds an anchor plus
non-anchor datasets as Gaussian mixtures around dataset-specific random
community means, so the datasets share a partition of the index set
while living in unrelated coordinate frames. The "null" scenario keeps
one label vector for everything; the "alt" scenario redraws labels for
the second non-anchor. "quad" and "drift" are the collections of the
battery pattern study and of the divergence curves.

`monte_carlo` tests replicate m of a study with seed s as the anchored
cell at K of `anchorstat battery --seed (s, m, 1)` tests the triple
`anchorstat synth --seed (s, m, 0)` writes: the replicate is that
one-cell `battery.run_battery`; (s, m, i) is
`stattests._child_seed(s, m, i)`. So a study is a prefix of any longer
one with the same seed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .battery import run_battery
from .corpus import (
    EmbeddingMatrix, ExperimentGrid, PairedCollection, _require_int, _require_real,
    validate_pairing,
)
from .errors import AnchorstatError, GuardError, ParameterError
from .sharding import run_sharded
from .stattests import _child_seed

# Community means are placed at pairwise distance
# _BOUNDARY_CONTRAST * community_separation * noise_sd. The factor keeps a
# small boundary-overlap fraction at the default separation of 8, so the
# estimated partitions of two same-structure datasets agree on the bulk of
# points without being bitwise identical; cranking separation up drives
# the overlap to zero.
_BOUNDARY_CONTRAST = 0.6

_REDRAW_ATTEMPTS = 100


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry of one synthetic triple."""

    n: int = 300
    dim: int = 2
    K_true: int = 2
    community_separation: float = 8.0
    noise_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n", None), ("dim", 1), ("K_true", 1)):
            object.__setattr__(self, name, _require_int(name, getattr(self, name), least))
        if self.n < 2 * self.K_true:
            raise ParameterError(
                f"need n >= 2*K_true, got n={self.n}, K_true={self.K_true}"
            )
        separation = _require_real("community_separation", self.community_separation)
        if not math.isfinite(separation) or separation < 0:
            raise ParameterError("community_separation must be finite and >= 0")
        noise_sd = _require_real("noise_sd", self.noise_sd)
        if not (math.isfinite(noise_sd) and noise_sd > 0):
            raise ParameterError(f"noise_sd must be finite and > 0, got {self.noise_sd}")
        object.__setattr__(self, "community_separation", separation)
        object.__setattr__(self, "noise_sd", noise_sd)
        object.__setattr__(self, "seed", _require_int("seed", self.seed, 0))


def _place_community_means(
    K: int, dim: int, separation: float, noise_sd: float, rng: np.random.Generator
) -> np.ndarray:
    """Randomly oriented community means with min pairwise distance
    _BOUNDARY_CONTRAST * separation * noise_sd."""
    if K == 1 or separation == 0.0:
        return np.zeros((K, dim))
    target = _BOUNDARY_CONTRAST * separation * noise_sd
    for _ in range(_REDRAW_ATTEMPTS):
        raw = rng.normal(size=(K, dim))
        gaps = [
            np.linalg.norm(raw[a] - raw[b]) for a in range(K) for b in range(a + 1, K)
        ]
        dmin = min(gaps)
        if dmin > 0:
            return raw * (target / dmin)
    raise GuardError("could not draw distinct community means")


def _mixture(
    z: np.ndarray, cfg: ScenarioConfig, rng: np.random.Generator, label: str
) -> EmbeddingMatrix:
    means = _place_community_means(cfg.K_true, cfg.dim, cfg.community_separation, cfg.noise_sd, rng)
    values = means[z] + cfg.noise_sd * rng.normal(size=(cfg.n, cfg.dim))
    return EmbeddingMatrix(values=values, label=label)


def _collection(
    cfg: ScenarioConfig, rng: np.random.Generator, labels: dict[str, np.ndarray]
) -> PairedCollection:
    """One mixture member per role of ``labels`` on that role's label
    vector, drawn from ``rng`` in the mapping's order."""
    return validate_pairing({role: _mixture(z, cfg, rng, role) for role, z in labels.items()})


def generate_null_triple(cfg: ScenarioConfig) -> PairedCollection:
    """Anchor and two non-anchors built on one shared label vector."""
    rng = np.random.default_rng(cfg.seed)
    z = rng.integers(0, cfg.K_true, cfg.n)
    return _collection(cfg, rng, {"anchor": z, "nonanchor_1": z, "nonanchor_2": z})


def generate_alt_triple(cfg: ScenarioConfig) -> PairedCollection:
    """As the null triple, but the second non-anchor gets independently
    redrawn labels, so the two non-anchor partitions disagree."""
    rng = np.random.default_rng(cfg.seed)
    z = rng.integers(0, cfg.K_true, cfg.n)
    z2 = None
    for _ in range(_REDRAW_ATTEMPTS):
        cand = rng.integers(0, cfg.K_true, cfg.n)
        if rand_index(cand, z) < 1.0:  # 1.0 exactly when the partitions are equal
            z2 = cand
            break
    if z2 is None:
        raise GuardError(
            "independent label redraw kept colliding with the shared labels"
        )
    return _collection(cfg, rng, {"anchor": z, "nonanchor_1": z, "nonanchor_2": z2})


# the temperatures of the "drift" scenario, each with drift fraction rho/2
DRIFT_RHO_FRACTIONS = tuple((rho, rho / 2) for rho in (0.1, 0.4, 0.7, 1.0, 1.5))

# scenario name -> its collection. Each entry calls its generator by the
# module-level name, so a replaced generator (a test's patch, a tracer's
# wrapper) is the one that runs.
SCENARIOS = {
    "null": lambda cfg: generate_null_triple(cfg),
    "alt": lambda cfg: generate_alt_triple(cfg),
    "quad": lambda cfg: generate_battery_quad(cfg),
    "drift": lambda cfg: generate_drift_family(cfg, DRIFT_RHO_FRACTIONS),
}

# the scenarios whose collection is one pair, the only ones `monte_carlo` tests
TRIPLE_SCENARIOS = ("null", "alt")


def generate_scenario(scenario: str, cfg: ScenarioConfig) -> PairedCollection:
    """The collection of ``scenario``, a name in `SCENARIOS`: "null"
    (shared labels), "alt" (independent labels for the second
    non-anchor), "quad" (`generate_battery_quad`) or "drift"
    (`generate_drift_family` at `DRIFT_RHO_FRACTIONS`)."""
    if scenario not in SCENARIOS:
        raise ParameterError(f"unknown scenario '{scenario}'")
    return SCENARIOS[scenario](cfg)


def generate_battery_quad(cfg: ScenarioConfig) -> PairedCollection:
    """Four-member collection for battery pattern studies.

    The anchor and two "aligned" non-anchors share one label vector; the
    "drifted" non-anchor gets independent labels. Every member has its
    own random community means, so direct paired comparisons between any
    two members differ even when their label structure matches.
    """
    rng = np.random.default_rng(cfg.seed)
    z = rng.integers(0, cfg.K_true, cfg.n)
    z_drift = rng.integers(0, cfg.K_true, cfg.n)
    return _collection(cfg, rng, {
        "anchor": z, "nonanchor_aligned_1": z, "nonanchor_aligned_2": z,
        "nonanchor_drifted": z_drift,
    })


def generate_drift_family(
    cfg: ScenarioConfig, rho_fractions: Sequence[tuple[float, float]]
) -> PairedCollection:
    """Anchor, one baseline non-anchor, and one non-anchor per (rho,
    fraction) pair whose labels are the shared vector with ``fraction``
    of entries resampled. Larger fractions drift the community structure
    further from the baseline.
    """
    rng = np.random.default_rng(cfg.seed)
    z = rng.integers(0, cfg.K_true, cfg.n)
    members = {
        "anchor": _mixture(z, cfg, rng, "anchor"),
        "nonanchor_base": _mixture(z, cfg, rng, "nonanchor_base"),
    }
    temperatures: dict[str, float | None] = {"anchor": None, "nonanchor_base": None}
    for rho, fraction in rho_fractions:
        role = f"nonanchor_rho_{rho:g}"
        if role in members:
            raise ParameterError(f"temperature {rho!r} repeats the member '{role}'")
        if not 0.0 <= fraction <= 1.0:
            raise ParameterError(f"drift fraction must be in [0,1], got {fraction}")
        z_rho = z.copy()
        moved = rng.random(cfg.n) < fraction
        z_rho[moved] = rng.integers(0, cfg.K_true, int(moved.sum()))
        members[role] = _mixture(z_rho, cfg, rng, role)
        temperatures[role] = float(rho)
    return validate_pairing(members, temperatures=temperatures)


def rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of index pairs on which two partitions agree (both
    together or both apart)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ParameterError("partitions must cover the same indices")
    # agreeing pairs follow from the K x K contingency table of the labels
    _, ia = np.unique(a, return_inverse=True)
    labels_b, ib = np.unique(b, return_inverse=True)

    def together(counts):  # pairs that share a cell
        return int((counts * (counts - 1)).sum()) // 2

    n = a.shape[0]
    pairs = n * (n - 1) // 2
    both = together(np.bincount(ia * labels_b.shape[0] + ib))
    agree = pairs - together(np.bincount(ia)) - together(np.bincount(ib)) + 2 * both
    return agree / pairs if pairs else float("nan")


@dataclass(frozen=True)
class MonteCarloReport:
    """Rejection-rate summary over M independently seeded replicates.
    ``mean_runtime_s`` is the mean wall time of one replicate, measured
    in the process that ran it."""

    scenario: str
    M: int
    rejections: int
    vacuous: int
    rate: float
    ci_low: float
    ci_high: float
    degenerate_ci: bool
    mean_runtime_s: float
    alpha: float
    K: int
    replicates: int
    seed: int

    def to_dict(self) -> dict:
        """Every field but the wall-clock ``mean_runtime_s``, so the
        document is byte-reproducible across reruns."""
        doc = asdict(self)
        del doc["mean_runtime_s"]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _wilson_ci(successes: int, total: int, z: float = 1.959963984540054) -> tuple[float, float]:
    if total == 0:
        return (0.0, 1.0)
    phat = successes / total
    denom = 1 + z**2 / total
    center = (phat + z**2 / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z**2 / (4 * total**2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _replicate(
    scenario: str, cfg: ScenarioConfig, grid: ExperimentGrid, m: int
) -> tuple[str, float]:
    """Replicate m's outcome ("reject", "accept" or "vacuous") and wall
    time in seconds, from the battery of the one-K ``grid``; it depends
    on (seed, m) alone, not on M, the process or the order. A failed cell
    raises its error's message."""
    start = time.perf_counter()
    triple = generate_scenario(scenario, replace(cfg, seed=_child_seed(cfg.seed, m, 0)))
    result = run_battery(triple, f"synth-{scenario}",
                         replace(grid, seed=_child_seed(cfg.seed, m, 1)), baselines=())
    (row,) = result.rows
    (cell,) = row.anchored.values()
    if cell.error is not None:
        raise AnchorstatError(cell.error)
    outcome = "vacuous" if cell.vacuous else "reject" if cell.reject else "accept"
    return outcome, time.perf_counter() - start


def monte_carlo(
    scenario: str,
    cfg: ScenarioConfig,
    M: int,
    K: int | None = None,
    R: int = ExperimentGrid.permutations,
    alpha: float = ExperimentGrid.alpha,
) -> MonteCarloReport:
    """Run the anchored test on M independently seeded triples of a
    scenario in `TRIPLE_SCENARIOS`, replicate m as the module docstring
    says.

    A replicate whose mapped structures come out identical contributes a
    non-rejection (identical mappings are the strongest agreement with
    the null); such replicates are tallied in ``vacuous``.

    ``sharding.run_sharded`` spreads the replicates over the usable
    CPUs (this process included); the report, apart from
    ``mean_runtime_s``, is the same for every process count. Worker
    processes see changes made to this process's modules at run time
    only under the ``fork`` start method.
    """
    if scenario not in TRIPLE_SCENARIOS:  # a replicate's battery has one row
        raise ParameterError(
            f"monte_carlo tests one pair: scenario must be one of "
            f"{', '.join(TRIPLE_SCENARIOS)}, got '{scenario}'"
        )
    M = _require_int("M", M, 1)
    K_test = _require_int("K", K if K is not None else cfg.K_true)
    if not 2 <= K_test <= cfg.n:  # kmeans's own check, before any replicate runs
        raise ParameterError(f"K={K_test} out of range [2, n={cfg.n}]")
    grid = ExperimentGrid((K_test,), alpha, R)  # refuses a bad alpha or R
    results = run_sharded(_replicate, (scenario, cfg, grid), range(M), "replicates")
    outcomes = [outcome for outcome, _ in results]
    rejections = outcomes.count("reject")
    rate = rejections / M
    ci_low, ci_high = _wilson_ci(rejections, M)
    return MonteCarloReport(
        scenario=scenario,
        M=M,
        rejections=rejections,
        vacuous=outcomes.count("vacuous"),
        rate=rate,
        ci_low=ci_low,
        ci_high=ci_high,
        degenerate_ci=(M * rate * (1 - rate) == 0),
        mean_runtime_s=sum(wall for _, wall in results) / M,
        alpha=grid.alpha,
        K=grid.k_values[0],
        replicates=grid.permutations,
        seed=cfg.seed,
    )
