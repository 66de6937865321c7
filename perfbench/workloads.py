"""Benchmark workloads: instance universes, per-seed pools and solver settings.

Each workload owns a fixed universe of instances.  A run's ``--seed`` picks
its pool from that universe, the same number of instances from every
stratum (density, plus activity count and degree kind on batch-small), so
every seed gives the same mix of work while the concrete matrices differ.  Because the
universe is finite, the results of the seed commit on every member are
recorded in ``reference.json`` and any seed can be checked against them.

Workload choices:

* ``large-random``: n=16, uniform-real degrees from ``generate_instance``,
  densities 0.1/0.5/1.0, one worker, meeting row 5 (the CLI default), called
  through ``solve()``.  The single-thread baseline; the per-node expand
  kernel does nearly all the work.
* ``large-ties-2core``: n=16 with degrees rated low/medium/high as 1/4,
  1/2 and 3/4, built with ``Dsm.from_rows`` at mixed densities and solved
  with ``cn=min(2, cores)`` and meeting row 7.  Quantised degrees create
  exact value ties, settled by comparing schedule tuples.  The levels are
  quarters, not thirds: 1/3 and 2/3 have no exact binary form, so sums that
  tie in exact arithmetic differ in the last bit depending on the order they
  were added in, and the tie is decided by rounding, not by the tie rule.  With two workers the
  pool runs the two searches side by side, and once the prefix search
  reaches row 7 the suffix search splits its two widest rows (sizes 8 and
  9) into two chunks, so ``partition_row`` and ``restore_and_merge`` of
  several chunks run.  Meeting row 8 would keep one worker per search on
  every row (both searches finish together), so no row would ever split.
* ``batch-small``: 150 matrix files, n=8..12, random and quantised, each
  solved in-process through ``dsmseq.cli.main``.  Solves take milliseconds,
  so fixed per-call and per-row costs (seeding, pool start-up, reading and
  writing files) are a large share.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass

from dsmseq import Dsm, generate_instance

SOLVE = "solve"
CLI = "cli"

RANDOM = "random"
QUANTISED = "quantised"


@dataclass(frozen=True)
class Member:
    """One instance of a workload's universe, fully determined by its fields."""

    index: int
    n: int
    density: float
    kind: str
    gen_seed: int
    stratum: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # SOLVE: call solve() directly; CLI: call dsmseq.cli.main
    cores: int  # requested worker count, capped at the machine's cores
    na: int
    per_stratum: int  # pool instances drawn from each stratum
    universe: tuple[Member, ...]

    @property
    def cn(self) -> int:
        return min(self.cores, os.cpu_count() or 1)

    @property
    def n_max(self) -> int:
        return max(m.n for m in self.universe)


def _large(kind: str, densities: tuple[float, ...], seed_base: int) -> tuple[Member, ...]:
    members = []
    for index in range(8 * len(densities)):
        density = densities[index % len(densities)]
        members.append(Member(index, 16, density, kind, seed_base + index, (density,)))
    return tuple(members)


def _batch() -> tuple[Member, ...]:
    densities = (0.1, 0.3, 0.5, 0.7, 1.0)
    members = []
    for n in range(8, 13):
        for kind_no, kind in enumerate((RANDOM, QUANTISED)):
            for i in range(60):
                gen_seed = 100_000 * n + 10_000 * kind_no + i
                density = densities[i % len(densities)]
                members.append(Member(len(members), n, density, kind, gen_seed, (n, kind, density)))
    return tuple(members)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("large-random", SOLVE, 1, 5, 1, _large(RANDOM, (0.1, 0.5, 1.0), 1000)),
        Workload("large-ties-2core", SOLVE, 2, 7, 1, _large(QUANTISED, (0.25, 0.5, 0.75), 2000)),
        Workload("batch-small", CLI, 1, 5, 3, _batch()),
    )
}


LEVELS = (0.25, 0.5, 0.75)  # low, medium, high; exact in binary, so ties are exact


def quantise(dsm: Dsm) -> Dsm:
    """Rate every nonzero degree low, medium or high by the third of (0, 1] it falls in."""
    return Dsm.from_rows([[LEVELS[math.ceil(v * 3) - 1] if v else 0.0 for v in row] for row in dsm.d])


def build(member: Member) -> Dsm:
    dsm = generate_instance(member.n, member.density, member.gen_seed)
    return quantise(dsm) if member.kind == QUANTISED else dsm


def pool(workload: Workload, seed: int) -> list[Member]:
    """The run's instances: ``per_stratum`` members of every stratum, chosen by ``seed``."""
    rng = random.Random(f"{workload.name}:{seed}")
    strata: dict[tuple, list[Member]] = {}
    for member in workload.universe:
        strata.setdefault(member.stratum, []).append(member)
    chosen = []
    for members in strata.values():
        chosen.extend(rng.sample(members, workload.per_stratum))
    return chosen


def digest(dsm: Dsm) -> str:
    """Short content hash of a matrix, exact to the last bit of every degree."""
    text = ";".join(",".join(v.hex() for v in row) for row in dsm.d)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
