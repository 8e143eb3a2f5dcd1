"""The battery: the anchored test over every non-anchor pair and K, next
to the paired baselines, and the divergence curves over a temperature
family.

Every cell of the battery, and the single cell of `anchorstat test`,
runs through `run_cell` with a seed derived from (seed, dataset, pair,
K or baseline name), so the two commands agree on the same inputs and
results do not depend on scheduling.
"""

from __future__ import annotations

import itertools
import json
import re
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

from . import divergence
from .anchor import mapped_distances
from .cluster import kmeans
from .corpus import ANCHOR_ROLE, PairedCollection
from .errors import AnchorstatError, ManifestError, ParameterError, VacuousTestError
from .stattests import (
    DEFAULT_ALPHA,
    DEFAULT_PERMUTATIONS,
    TestReport,
    _child_seed,
    anchored_test,
    energy_test,
    hotelling_paired,
    nploc_mean_test,
)

# baseline name -> test of two paired members, called as (m1, m2, R, seed, alpha)
BASELINES = {
    "hotelling": lambda m1, m2, R, seed, alpha: hotelling_paired(m1, m2, alpha=alpha, seed=seed),
    "nploc": lambda m1, m2, R, seed, alpha: nploc_mean_test(m1, m2, R=R, seed=seed, alpha=alpha),
    "energy": lambda m1, m2, R, seed, alpha: energy_test(m1, m2, R=R, seed=seed, alpha=alpha),
}
BASELINE_NAMES = tuple(BASELINES)


@dataclass(frozen=True)
class BatteryCell:
    p_value: float | None
    reject: bool | None
    display: str
    statistic: float | None = None
    vacuous: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BatteryRow:
    hypothesis: str
    pair: tuple[str, str]
    anchored: dict[int, BatteryCell]
    baselines: dict[str, BatteryCell]


@dataclass(frozen=True)
class BatteryResult:
    dataset: str
    k_values: tuple[int, ...]
    alpha: float
    permutations: int
    seed: int
    baselines: tuple[str, ...]
    rows: tuple[BatteryRow, ...] = field(default_factory=tuple)


def format_p(p: float, R: int, alpha: float) -> str:
    """Render a p-value the way the battery tables print them: the
    smallest achievable value shows as a "< floor" cell, and significant
    cells carry a trailing star."""
    star = "*" if p < alpha else ""
    floor = 1.0 / (R + 1)
    if p <= floor:
        short = re.sub(r"e([+-])0*(\d)", r"e\1\2", f"{floor:.0e}")
        return f"< {short}{star}"
    return f"{p:.3f}{star}"


def _cell_seed(seed: int, *names) -> int:
    return _child_seed(seed, *(zlib.crc32(str(n).encode()) for n in names))


def run_cell(
    collection: PairedCollection,
    dataset: str,
    pair: tuple[str, str],
    method: int | str,
    R: int = DEFAULT_PERMUTATIONS,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
    baseline_collection: PairedCollection | None = None,
) -> TestReport:
    """One battery cell: the anchored test at K = ``method`` on the pair,
    or the baseline named ``method``. Baselines read their members from
    ``baseline_collection`` when given (a common space for the paired
    tests). Errors propagate; `run_battery` turns them into cells."""
    r1, r2 = pair
    cell_seed = _cell_seed(seed, dataset, r1, r2, method)
    if not isinstance(method, str):
        return anchored_test(
            collection.anchor,
            collection.member(r1).with_label(r1),
            collection.member(r2).with_label(r2),
            K=method,
            R=R,
            seed=cell_seed,
            alpha=alpha,
        )
    if method not in BASELINES:
        raise ManifestError(f"unknown baseline '{method}'")
    members = baseline_collection if baseline_collection is not None else collection
    return BASELINES[method](members.member(r1), members.member(r2), R, cell_seed, alpha)


def _error_cell(exc: Exception) -> BatteryCell:
    if isinstance(exc, VacuousTestError):
        return BatteryCell(
            p_value=None, reject=False, display="identical", vacuous=True
        )
    return BatteryCell(
        p_value=None, reject=None, display=f"ERROR: {exc}", error=str(exc)
    )


def run_battery(
    collection: PairedCollection,
    dataset: str,
    k_values: tuple[int, ...],
    R: int = DEFAULT_PERMUTATIONS,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
    baselines: tuple[str, ...] = BASELINE_NAMES,
    baseline_collection: PairedCollection | None = None,
    jobs: int = 1,
) -> BatteryResult:
    """Run the anchored test over every non-anchor pair and K, plus each
    enabled baseline once per pair (the baselines do not depend on K).

    ``baseline_collection`` supplies a common-space version of the
    members for the paired baselines; by default the main collection is
    used. Failed cells render diagnostics without aborting the battery.
    """
    unknown = set(baselines) - set(BASELINE_NAMES)
    if unknown:
        raise ManifestError(f"unknown baselines: {sorted(unknown)}")
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    pairs = list(itertools.combinations(collection.nonanchor_roles, 2))
    if not pairs:
        raise ManifestError("battery needs at least two non-anchor members")
    tasks = [(pair, method) for pair in pairs for method in (*k_values, *baselines)]

    def compute(task) -> BatteryCell:
        pair, method = task
        try:
            report = run_cell(
                collection, dataset, pair, method, R, alpha, seed, baseline_collection
            )
        except AnchorstatError as exc:
            return _error_cell(exc)
        return BatteryCell(
            p_value=report.p_value,
            reject=report.reject,
            display=format_p(report.p_value, R, alpha),
            statistic=report.statistic,
        )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            cells = dict(zip(tasks, pool.map(compute, tasks)))
    else:
        cells = dict(zip(tasks, map(compute, tasks)))

    rows = tuple(
        BatteryRow(
            hypothesis=f"H0({ANCHOR_ROLE}; {pair[0]} vs {pair[1]})",
            pair=pair,
            anchored={K: cells[(pair, K)] for K in k_values},
            baselines={b: cells[(pair, b)] for b in baselines},
        )
        for pair in pairs
    )
    return BatteryResult(
        dataset=dataset,
        k_values=tuple(k_values),
        alpha=alpha,
        permutations=R,
        seed=seed,
        baselines=tuple(baselines),
        rows=rows,
    )


def battery_csv(result: BatteryResult) -> str:
    header = ["dataset", "hypothesis"]
    header += [f"anchored_K{k}" for k in result.k_values]
    header += list(result.baselines)
    header += ["ball_external"]  # reserved for externally computed results
    lines = [",".join(header)]
    for row in result.rows:
        cells = [result.dataset, row.hypothesis]
        cells += [row.anchored[k].display for k in result.k_values]
        cells += [row.baselines[b].display for b in result.baselines]
        cells += [""]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def battery_json(result: BatteryResult) -> str:
    doc = {
        "dataset": result.dataset,
        "k_values": list(result.k_values),
        "alpha": result.alpha,
        "permutations": result.permutations,
        "seed": result.seed,
        "rows": [
            {
                "hypothesis": row.hypothesis,
                "pair": list(row.pair),
                "anchored": {str(k): c.to_dict() for k, c in row.anchored.items()},
                "baselines": {b: c.to_dict() for b, c in row.baselines.items()},
            }
            for row in result.rows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_distance_curves(
    collection: PairedCollection,
    k_values: tuple[int, ...],
    seed: int = 0,
    bins: int = divergence.DEFAULT_BINS,
    smoothing: float = divergence.DEFAULT_SMOOTHING,
) -> list[dict]:
    """KL and order-1 transport distance between the baseline member's
    mapped distances and each temperature-tagged member's, per K."""
    temps = dict(collection.temperatures)
    nonanchors = collection.nonanchor_roles
    tagged = [r for r in nonanchors if temps.get(r) is not None]
    untagged = [r for r in nonanchors if temps.get(r) is None]
    if not tagged:
        raise ManifestError(
            "distance curves need temperature metadata on the non-anchor family"
        )
    if len(untagged) > 1:
        raise ManifestError(
            f"ambiguous baseline: several non-anchors lack a temperature: {untagged}"
        )
    if untagged:
        base_role = untagged[0]
        varying = sorted(tagged, key=lambda r: temps[r])
    else:
        by_temp = sorted(tagged, key=lambda r: temps[r])
        base_role = by_temp[0]
        varying = by_temp[1:]
    if not varying:
        raise ManifestError("distance curves need at least one varying member")

    def mapped(role, K):
        part = kmeans(collection.member(role), K, seed=_cell_seed(seed, "curve", role, K))
        return mapped_distances(collection.anchor, part, source=role)

    rows = []
    for K in k_values:
        set_base = mapped(base_role, K)
        for role in varying:
            set_rho = mapped(role, K)
            kl = divergence.kl_divergence(
                set_base.distances, set_rho.distances, bins=bins, smoothing=smoothing
            )
            w1 = divergence.wasserstein1(set_base.distances, set_rho.distances)
            rows.append(
                {
                    "K": K,
                    "rho": temps[role],
                    "kl": kl.value,
                    "kl_degenerate": kl.degenerate,
                    "wasserstein": w1,
                    "hypothesis_tag": f"H0({ANCHOR_ROLE}; {base_role} vs {role})",
                }
            )
    return rows


def curves_csv(rows: list[dict]) -> str:
    lines = ["K,rho,kl,wasserstein,hypothesis_tag"]
    for r in rows:
        lines.append(
            f"{r['K']},{r['rho']:g},{r['kl']:.12g},{r['wasserstein']:.12g},{r['hypothesis_tag']}"
        )
    return "\n".join(lines) + "\n"
