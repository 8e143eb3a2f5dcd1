"""The battery: the anchored test over every non-anchor pair and K, next
to the paired baselines, and the divergence curves over a temperature
family.

A member has one partition at each K: `member_partition` clusters it
with a seed derived from (seed, role, K). `run_battery` and the
divergence curves compute every (member, K) partition up front, spread
over worker processes when the stage is large enough to pay for them
(`_SHARD_WORK`), and the battery shares each partition across
every pair the member is in. Each cell then runs in this process: it
maps its two partitions onto the anchor and draws the sign flips or
the baseline with a seed derived from (seed, dataset, pair, K or
baseline name), so results do not depend on scheduling. A Monte Carlo
replicate is a one-cell battery: `run_battery` on the generated triple
at one K without baselines. A cell keeps its test's whole
`TestReport`, which the JSON table writes out.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
import zlib
from dataclasses import asdict, dataclass, field
from typing import Mapping, MutableMapping

from . import divergence, preprocess
from .anchor import mapped_distances
from .cluster import Partition, kmeans
from .corpus import (
    ANCHOR_ROLE, EmbeddingMatrix, ExperimentGrid, PairedCollection, validate_pairing,
)
from .errors import AnchorstatError, ManifestError, ParameterError, VacuousTestError
from .sharding import run_sharded
from .stattests import (
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


def _check_baselines(names: tuple[str, ...]) -> None:
    """A ManifestError for a repeated or an unknown baseline name."""
    for name in names:
        if names.count(name) > 1:
            raise ManifestError(f"baseline '{name}' is repeated in '{','.join(names)}'")
    unknown = sorted(set(names) - set(BASELINE_NAMES))
    if unknown:
        raise ManifestError(f"unknown baselines: {unknown}")


# (member, K) stages of less work than this (the sum over the tasks of
# the member's values.size times K) run in the calling process: below
# it a worker costs more than it saves (the break-even table under each
# start method is in README)
_SHARD_WORK = 1 << 17


@dataclass(frozen=True)
class BatteryCell:
    """One cell's table text and its test's report. A cell with neither a
    report nor an error is vacuous: it accepts, while a failed cell
    neither accepts nor rejects."""

    display: str
    report: TestReport | None = None
    error: str | None = None

    @property
    def vacuous(self) -> bool:
        return self.report is None and self.error is None

    @property
    def p_value(self) -> float | None:
        return None if self.report is None else self.report.p_value

    @property
    def statistic(self) -> float | None:
        return None if self.report is None else self.report.statistic

    @property
    def reject(self) -> bool | None:
        if self.report is None:
            return False if self.vacuous else None
        return self.report.reject

    def to_dict(self) -> dict:
        return {"display": self.display, "error": self.error,
                "report": self.report and self.report.to_dict(), "p_value": self.p_value,
                "reject": self.reject, "statistic": self.statistic, "vacuous": self.vacuous}


@dataclass(frozen=True)
class BatteryRow:
    pair: tuple[str, str]
    anchored: dict[int, BatteryCell]
    baselines: dict[str, BatteryCell]

    @property
    def hypothesis(self) -> str:
        return f"H0({ANCHOR_ROLE}; {self.pair[0]} vs {self.pair[1]})"


@dataclass(frozen=True)
class BatteryResult:
    dataset: str
    grid: ExperimentGrid
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


def member_partition(
    collection: PairedCollection, role: str, K: int, seed: int
) -> Partition:
    """Member ``role``'s partition at K: the one partition of that member
    at K for a given seed, whichever row, cell or curve uses it."""
    return kmeans(collection.member(role), K, seed=_cell_seed(seed, role, K))


def _member_partition_or_error(collection: PairedCollection, seed: int, task: tuple):
    """`member_partition` for ``task`` = (role, K), or the
    `AnchorstatError` it fails with."""
    try:
        return member_partition(collection, *task, seed)
    except AnchorstatError as exc:
        return exc


def _member_partitions(collection: PairedCollection, roles: list, k_values, seed: int):
    """``partition(role, K)`` for every role and K, computed up front over
    the role-major task list: in this process when the tasks' work is
    below `_SHARD_WORK`, else by `run_sharded`. The lookup raises the
    error of a member that could not be clustered, each time it is asked
    for it."""
    tasks = [(role, K) for role in roles for K in k_values]
    args = (collection, seed)
    if sum(collection.member(role).values.size * K for role, K in tasks) < _SHARD_WORK:
        results = [_member_partition_or_error(*args, task) for task in tasks]
    else:
        results = run_sharded(_member_partition_or_error, args, tasks, "(member, K) tasks")
    parts = dict(zip(tasks, results))

    def partition(role: str, K: int) -> Partition:
        found = parts[(role, K)]
        if isinstance(found, AnchorstatError):
            raise found
        return found

    return partition


def _error_cell(exc: Exception) -> BatteryCell:
    if isinstance(exc, VacuousTestError):
        return BatteryCell(display="identical")
    return BatteryCell(display=f"ERROR: {exc}", error=str(exc))


def reduce_members(
    members: MutableMapping[str, EmbeddingMatrix], p: int,
    temperatures: Mapping[str, float | None], baselines: tuple[str, ...],
) -> tuple[PairedCollection, PairedCollection | None]:
    """Reduce the members to p dimensions, taking them over (``members``
    is empty on return). The anchored cells and the curves see a member
    only through its mapped partition, so each is reduced on its own
    (``own``); the paired baselines compare coordinates, so when one of
    ``baselines`` runs the members are also reduced jointly (``joint``,
    else None). Unequal widths are refused before any fit."""
    if baselines:
        preprocess.joint_width(members)
    own = validate_pairing(
        {role: preprocess.apply_pca(preprocess.fit_pca(m, p), m)
         for role, m in sorted(members.items())},
        temperatures=temperatures,
    )
    joint = preprocess.reduce_jointly(members, p, temperatures) if baselines else None
    members.clear()
    return own, joint


def run_battery(
    collection: PairedCollection | tuple[PairedCollection, PairedCollection | None],
    dataset: str,
    grid: ExperimentGrid,
    baselines: tuple[str, ...] = BASELINE_NAMES,
) -> BatteryResult:
    """Run the anchored test over every non-anchor pair and K of
    ``grid``, plus each enabled baseline once per pair (the baselines do
    not depend on K), at the grid's level, permutation count and seed.

    ``collection`` is the unreduced members, which every cell uses, or
    the (own, joint) pair of `reduce_members`: the anchored cells cluster
    ``own`` and the baselines compare ``joint``. The grid has checked its
    settings when it was built; failed cells render diagnostics without
    aborting the battery.
    """
    own, joint = collection if isinstance(collection, tuple) else (collection, collection)
    _check_baselines(baselines)
    if baselines and joint is None:
        raise ParameterError(f"baselines {list(baselines)} need the joint reduction")
    pairs = list(itertools.combinations(own.nonanchor_roles, 2))
    if not pairs:
        raise ManifestError("battery needs at least two non-anchor members")
    R, alpha, seed = grid.permutations, grid.alpha, grid.seed
    tasks = [(pair, method) for pair in pairs for method in (*grid.k_values, *baselines)]

    # one partition per (member, K), shared by the member's rows; a
    # member that cannot be clustered shows its error in each of its cells
    partition = _member_partitions(own, own.nonanchor_roles, grid.k_values, seed)

    def compute(task) -> BatteryCell:
        (r1, r2), method = task
        cell_seed = _cell_seed(seed, dataset, r1, r2, method)
        try:
            if isinstance(method, str):
                report = BASELINES[method](joint.member(r1), joint.member(r2), R, cell_seed, alpha)
            else:
                report = anchored_test(own.anchor, (r1, partition(r1, method)),
                                       (r2, partition(r2, method)),
                                       R=R, seed=cell_seed, alpha=alpha)
        except AnchorstatError as exc:
            return _error_cell(exc)
        return BatteryCell(display=format_p(report.p_value, R, alpha), report=report)

    cells = {task: compute(task) for task in tasks}
    rows = tuple(
        BatteryRow(
            pair=pair,
            anchored={K: cells[(pair, K)] for K in grid.k_values},
            baselines={b: cells[(pair, b)] for b in baselines},
        )
        for pair in pairs
    )
    return BatteryResult(dataset=dataset, grid=grid, baselines=tuple(baselines), rows=rows)


def _csv(rows) -> str:
    """``rows`` as CSV; a cell that holds a comma (an ``ERROR: …`` message,
    a label) is quoted, so every row keeps the header's width."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def battery_csv(result: BatteryResult) -> str:
    header = ["dataset", "hypothesis"]
    header += [f"anchored_K{k}" for k in result.grid.k_values]
    header += list(result.baselines)
    header += ["ball_external"]  # reserved for externally computed results
    return _csv([header] + [
        [result.dataset, row.hypothesis,
         *(row.anchored[k].display for k in result.grid.k_values),
         *(row.baselines[b].display for b in result.baselines), ""]
        for row in result.rows
    ])


def battery_json(result: BatteryResult) -> str:
    doc = {
        "dataset": result.dataset,
        **asdict(result.grid),
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
) -> list[dict]:
    """KL and order-1 transport distance between the baseline member's
    mapped distances and each temperature-tagged member's, per K. The
    Ks and the seed are refused where a grid refuses them."""
    grid = ExperimentGrid(tuple(k_values), seed=seed)
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

    partition = _member_partitions(collection, [base_role, *varying], grid.k_values, grid.seed)
    rows = []
    for K in grid.k_values:
        d_base = mapped_distances(collection.anchor, partition(base_role, K))
        for role in varying:
            d_rho = mapped_distances(collection.anchor, partition(role, K))
            kl = divergence.kl_divergence(d_base, d_rho)
            w1 = divergence.wasserstein1(d_base, d_rho)
            rows.append(
                {
                    "K": K,
                    "rho": temps[role],
                    "kl": kl,
                    "wasserstein": w1,
                    "hypothesis_tag": f"H0({ANCHOR_ROLE}; {base_role} vs {role})",
                }
            )
    return rows


def curves_csv(rows: list[dict]) -> str:
    return _csv([["K", "rho", "kl", "wasserstein", "hypothesis_tag"]] + [
        [r["K"], f"{r['rho']:g}", f"{r['kl']:.12g}", f"{r['wasserstein']:.12g}",
         r["hypothesis_tag"]]
        for r in rows
    ])
