"""Synthetic paired-dataset generators and the size/power harness.

Each scenario draws one latent label vector and builds an anchor plus two
non-anchor datasets as Gaussian mixtures around dataset-specific random
community means, so the three datasets share a partition of the index
set while living in unrelated coordinate frames. The "null" scenario
keeps one label vector for everything; the "alt" scenario redraws labels
for the second non-anchor.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import EmbeddingMatrix, PairedCollection, validate_pairing
from .errors import GuardError, ParameterError, VacuousTestError
from .sharding import run_sharded, usable_cpus  # noqa: F401  (usable_cpus: re-exported)
from .stattests import DEFAULT_ALPHA, DEFAULT_PERMUTATIONS, _child_seed, anchored_test

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
        if self.n < 2 * self.K_true:
            raise ParameterError(
                f"need n >= 2*K_true, got n={self.n}, K_true={self.K_true}"
            )
        if self.K_true < 1:
            raise ParameterError(f"K_true must be >= 1, got {self.K_true}")
        if self.dim < 1:
            raise ParameterError(f"dim must be >= 1, got {self.dim}")
        if not math.isfinite(self.community_separation) or self.community_separation < 0:
            raise ParameterError("community_separation must be finite and >= 0")
        if self.noise_sd <= 0:
            raise ParameterError(f"noise_sd must be > 0, got {self.noise_sd}")


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


def _canonical_labels(z: np.ndarray) -> tuple:
    """Relabel so cluster ids appear in first-occurrence order; two label
    vectors describe the same set partition iff their canonical forms match."""
    mapping: dict[int, int] = {}
    out = []
    for v in z.tolist():
        if v not in mapping:
            mapping[v] = len(mapping)
        out.append(mapping[v])
    return tuple(out)


def generate_null_triple(cfg: ScenarioConfig) -> PairedCollection:
    """Anchor and two non-anchors built on one shared label vector."""
    rng = np.random.default_rng(cfg.seed)
    z = rng.integers(0, cfg.K_true, cfg.n)
    members = {
        "anchor": _mixture(z, cfg, rng, "anchor"),
        "nonanchor_1": _mixture(z, cfg, rng, "nonanchor_1"),
        "nonanchor_2": _mixture(z, cfg, rng, "nonanchor_2"),
    }
    return validate_pairing(members)


def generate_alt_triple(cfg: ScenarioConfig) -> PairedCollection:
    """As the null triple, but the second non-anchor gets independently
    redrawn labels, so the two non-anchor partitions disagree."""
    rng = np.random.default_rng(cfg.seed)
    z = rng.integers(0, cfg.K_true, cfg.n)
    z2 = None
    for _ in range(_REDRAW_ATTEMPTS):
        cand = rng.integers(0, cfg.K_true, cfg.n)
        if _canonical_labels(cand) != _canonical_labels(z):
            z2 = cand
            break
    if z2 is None:
        raise GuardError(
            "independent label redraw kept colliding with the shared labels"
        )
    members = {
        "anchor": _mixture(z, cfg, rng, "anchor"),
        "nonanchor_1": _mixture(z, cfg, rng, "nonanchor_1"),
        "nonanchor_2": _mixture(z2, cfg, rng, "nonanchor_2"),
    }
    return validate_pairing(members)


def generate_scenario(scenario: str, cfg: ScenarioConfig) -> PairedCollection:
    """The triple of ``scenario``: "null" (shared labels) or "alt"
    (independent labels for the second non-anchor)."""
    if scenario == "null":
        return generate_null_triple(cfg)
    if scenario == "alt":
        return generate_alt_triple(cfg)
    raise ParameterError(f"unknown scenario '{scenario}'")


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
    members = {
        "anchor": _mixture(z, cfg, rng, "anchor"),
        "nonanchor_aligned_1": _mixture(z, cfg, rng, "nonanchor_aligned_1"),
        "nonanchor_aligned_2": _mixture(z, cfg, rng, "nonanchor_aligned_2"),
        "nonanchor_drifted": _mixture(z_drift, cfg, rng, "nonanchor_drifted"),
    }
    return validate_pairing(members)


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
        if not 0.0 <= fraction <= 1.0:
            raise ParameterError(f"drift fraction must be in [0,1], got {fraction}")
        z_rho = z.copy()
        moved = rng.random(cfg.n) < fraction
        z_rho[moved] = rng.integers(0, cfg.K_true, int(moved.sum()))
        role = f"nonanchor_rho_{rho:g}"
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

    def to_dict(self, volatile: bool = True) -> dict:
        """``volatile=False`` drops the wall-clock field so the document
        is byte-reproducible across reruns."""
        doc = {
            "scenario": self.scenario,
            "M": self.M,
            "rejections": self.rejections,
            "vacuous": self.vacuous,
            "rate": self.rate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "degenerate_ci": self.degenerate_ci,
            "alpha": self.alpha,
            "K": self.K,
            "replicates": self.replicates,
            "seed": self.seed,
        }
        if volatile:
            doc["mean_runtime_s"] = self.mean_runtime_s
        return doc

    def to_json(self, volatile: bool = True) -> str:
        return json.dumps(self.to_dict(volatile=volatile), indent=2, sort_keys=True)


def _wilson_ci(successes: int, total: int, z: float = 1.959963984540054) -> tuple[float, float]:
    if total == 0:
        return (0.0, 1.0)
    phat = successes / total
    denom = 1 + z**2 / total
    center = (phat + z**2 / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z**2 / (4 * total**2)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _replicate(
    scenario: str, cfg: ScenarioConfig, M: int, K: int, R: int, alpha: float, m: int
) -> tuple[str, float]:
    """Replicate m of an M-replicate study: its outcome ("reject",
    "accept" or "vacuous") and its wall time in seconds. The data seed
    is (seed, m) and the test seed (seed, M + m), so the outcome does
    not depend on which process runs it or in what order."""
    start = time.perf_counter()
    triple = generate_scenario(scenario, replace(cfg, seed=_child_seed(cfg.seed, m)))
    try:
        report = anchored_test(
            triple.member("anchor"),
            triple.member("nonanchor_1"),
            triple.member("nonanchor_2"),
            K=K,
            R=R,
            seed=_child_seed(cfg.seed, M + m),
            alpha=alpha,
        )
        outcome = "reject" if report.reject else "accept"
    except VacuousTestError:
        outcome = "vacuous"
    return outcome, time.perf_counter() - start


def _replicates(args: tuple, ms: range) -> list[tuple[str, float]]:
    """Replicates ``ms`` in order; the first error ends the chunk."""
    return [_replicate(*args, m) for m in ms]


def monte_carlo(
    scenario: str,
    cfg: ScenarioConfig,
    M: int,
    K: int | None = None,
    R: int = DEFAULT_PERMUTATIONS,
    alpha: float = DEFAULT_ALPHA,
    jobs: int = 1,
) -> MonteCarloReport:
    """Run the anchored test on M independently seeded triples.

    A replicate whose mapped structures come out identical contributes a
    non-rejection (identical mappings are the strongest agreement with
    the null); such replicates are tallied in ``vacuous``.

    ``jobs > 1`` spreads the replicates over that many processes (this
    one included); the report, apart from ``mean_runtime_s``, is the
    same for every ``jobs``. Replicates then run in worker processes,
    which see changes made to this process's modules at run time only
    under the ``fork`` start method.
    """
    if M < 1:
        raise ParameterError(f"M must be >= 1, got {M}")
    if R < 1:
        raise ParameterError(f"permutation count must be >= 1, got {R}")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0,1), got {alpha}")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    K_test = K if K is not None else cfg.K_true
    args = (scenario, cfg, M, K_test, R, alpha)
    jobs = min(jobs, M)
    bounds = [M * j // jobs for j in range(jobs + 1)]
    chunks = [range(bounds[j], bounds[j + 1]) for j in range(jobs)]
    shares = run_sharded(_replicates, (args,), chunks, "replicates")
    results = [r for share in shares for r in share]
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
        alpha=alpha,
        K=K_test,
        replicates=R,
        seed=cfg.seed,
    )
