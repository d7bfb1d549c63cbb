"""Differential execution: every registered scheduler vs. every oracle.

One fuzz case = one ``(instance, m)`` pair.  The runner executes every
algorithm in :data:`repro.heuristics.registry.ALGORITHMS` on the case and
cross-checks the results three ways:

1. **per-schedule oracles** — the full pack from
   :mod:`repro.fuzz.oracles` (feasibility, lower bounds, C1/C2
   consistency, ...);
2. **determinism** — an identical (instance, seed) pair must produce a
   bit-identical schedule on a second run;
3. **engine equivalence** — the heap and vector list-scheduling
   engines must produce bit-identical schedules on the case, assigned
   and unassigned, with and without priorities;
4. **cross-engine anomalies** — the minimum makespan over all engines is
   an *upper bound on OPT* (every engine emits a feasible schedule), so
   a "provable" algorithm whose makespan exceeds its proven
   approximation ratio times that minimum has violated its own theorem.
   This is the differential trick: no single run can check an
   O(OPT·log²n) guarantee, but a population of independent feasible
   schedules can.

The proven ratios carry generous slack constants — the point is to catch
broken algorithms (10× regressions, quadratic blow-ups), not to litigate
the paper's constants on 30-cell instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.instance import SweepInstance
from repro.core.schedule import Schedule
from repro.fuzz.oracles import OracleContext, Violation, check_schedule
from repro.fuzz.spec import build_case, spec_label
from repro.heuristics.registry import ALGORITHMS

__all__ = [
    "CaseResult",
    "proven_ratio_bound",
    "run_schedulers",
    "run_instance",
    "run_case",
    "PROVABLE_ALGORITHMS",
]

#: Registry names whose makespan the paper bounds against OPT.
PROVABLE_ALGORITHMS = {
    "random_delay": "theorem1",
    "random_delay_priority": "theorem2",
    "improved_random_delay": "theorem3",
    "improved_random_delay_priority": "theorem3",
}

#: Multiplicative slack on the theory factors (they are O(·) statements;
#: the constants below were chosen ~4x above anything observed across
#: 10^4 fuzz cases so a triggered bound means a real regression).
_SLACK = 4.0


def proven_ratio_bound(algorithm: str, inst: SweepInstance, m: int) -> float | None:
    """Upper bound on ``makespan / OPT`` promised by the paper, with slack.

    Returns ``None`` for heuristics without a guarantee.  Theorems 1 and 2
    promise ``O(log^2 n)`` (n = task count here, a weakening that only
    loosens the check); Theorem 3 / Corollary 1 promise
    ``O(log m · log log log m)``, which we majorise by
    ``(log m + 2)(log log m + 2)`` to stay finite at small m.
    """
    theorem = PROVABLE_ALGORITHMS.get(algorithm)
    if theorem is None:
        return None
    if theorem in ("theorem1", "theorem2"):
        ln = math.log2(max(inst.n_tasks, 2))
        return _SLACK * (ln + 2.0) ** 2
    lm = math.log2(max(m, 2))
    llm = math.log2(lm + 2.0)
    return _SLACK * (lm + 2.0) * (llm + 2.0)


@dataclass
class CaseResult:
    """Everything the differential runner learned about one case."""

    spec: dict
    makespans: dict[str, int] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def best_makespan(self) -> int | None:
        return min(self.makespans.values()) if self.makespans else None

    def describe(self) -> str:
        head = spec_label(self.spec)
        if self.ok:
            return f"{head}: ok ({len(self.makespans)} engines)"
        lines = [f"{head}: {len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def run_schedulers(
    inst: SweepInstance,
    m: int,
    seed: int,
    algorithms: dict | None = None,
) -> tuple[dict[str, Schedule], list[Violation]]:
    """Run every algorithm once; crashes become ``crash`` violations."""
    algorithms = ALGORITHMS if algorithms is None else algorithms
    schedules: dict[str, Schedule] = {}
    violations: list[Violation] = []
    for name, fn in algorithms.items():
        try:
            schedules[name] = fn(inst, m, seed=seed)
        except Exception as exc:  # noqa: BLE001 — crashes are findings, not aborts
            violations.append(
                Violation("crash", name, f"{type(exc).__name__}: {exc}")
            )
    return schedules, violations


def _check_determinism(
    inst: SweepInstance,
    m: int,
    seed: int,
    schedules: dict[str, Schedule],
    algorithms: dict,
) -> list[Violation]:
    out = []
    for name, first in schedules.items():
        try:
            second = algorithms[name](inst, m, seed=seed)
        except Exception as exc:  # noqa: BLE001
            out.append(
                Violation(
                    "determinism", name,
                    f"second run crashed: {type(exc).__name__}: {exc}",
                )
            )
            continue
        if not np.array_equal(first.start, second.start) or not np.array_equal(
            first.assignment, second.assignment
        ):
            out.append(
                Violation(
                    "determinism", name,
                    f"two runs with seed={seed} differ "
                    f"(makespans {first.makespan} vs {second.makespan})",
                )
            )
    return out


def _check_engine_equivalence(
    inst: SweepInstance, m: int, seed: int
) -> list[Violation]:
    """Heap vs vector, bit-for-bit.

    Runs :func:`list_schedule` and :func:`list_schedule_unassigned` on the
    case with uniform and delayed-level priorities, forcing the frontier
    kernel regardless of width, and reports any deviation from the heap
    reference.
    """
    from repro.core.list_scheduler import list_schedule, list_schedule_unassigned
    from repro.core.random_delay import delayed_task_layers, draw_randomness

    out: list[Violation] = []
    delays, assignment = draw_randomness(inst, m, seed)
    gamma = delayed_task_layers(inst, delays)
    for pname, prio in (("uniform", None), ("delayed-level", gamma)):
        try:
            ref = list_schedule(inst, m, assignment, priority=prio, engine="heap")
            uref = list_schedule_unassigned(inst, m, priority=prio, engine="heap")
        except Exception as exc:  # noqa: BLE001 — heap crash is its own finding
            out.append(
                Violation(
                    "engine_equivalence", "heap",
                    f"crash on {pname} priorities: {type(exc).__name__}: {exc}",
                )
            )
            continue
        try:
            got = list_schedule(
                inst, m, assignment, priority=prio, engine="vector"
            )
            ugot = list_schedule_unassigned(
                inst, m, priority=prio, engine="vector"
            )
        except Exception as exc:  # noqa: BLE001
            out.append(
                Violation(
                    "engine_equivalence", "vector",
                    f"crash on {pname} priorities: "
                    f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        if not np.array_equal(got.start, ref.start):
            out.append(
                Violation(
                    "engine_equivalence", "vector",
                    f"assigned schedule differs from heap on {pname} "
                    f"priorities (makespans {got.makespan} vs "
                    f"{ref.makespan})",
                )
            )
        if not np.array_equal(ugot.start, uref.start) or not np.array_equal(
            ugot.machine, uref.machine
        ):
            out.append(
                Violation(
                    "engine_equivalence", "vector",
                    f"unassigned schedule differs from heap on {pname} "
                    f"priorities (makespans {ugot.makespan} vs "
                    f"{uref.makespan})",
                )
            )
    return out


def run_instance(
    inst: SweepInstance,
    m: int,
    seed: int,
    algorithms: dict | None = None,
    check_determinism: bool = True,
    check_engines: bool = True,
    spec: dict | None = None,
) -> CaseResult:
    """Run the differential battery on an already-built ``(instance, m)``.

    This is the engine behind :func:`run_case`; the shrinker and corpus
    replay call it directly on instances that no spec can rebuild.
    """
    algorithms = ALGORITHMS if algorithms is None else algorithms
    result = CaseResult(
        spec=spec
        if spec is not None
        else {"family": "raw", "seed": seed, "m": m, "params": {}}
    )
    schedules, crash_violations = run_schedulers(inst, m, seed, algorithms)
    result.violations.extend(crash_violations)

    ctx = OracleContext(inst, m)
    for name, sched in schedules.items():
        result.makespans[name] = sched.makespan
        result.violations.extend(check_schedule(sched, algorithm=name, ctx=ctx))

    if check_determinism and schedules:
        result.violations.extend(
            _check_determinism(inst, m, seed, schedules, algorithms)
        )

    if check_engines:
        result.violations.extend(_check_engine_equivalence(inst, m, seed))

    # Cross-engine theory check: min makespan is a certified OPT upper bound.
    best = result.best_makespan
    if best is not None and best > 0:
        for name, ms in result.makespans.items():
            bound = proven_ratio_bound(name, inst, m)
            if bound is not None and ms > bound * best:
                result.violations.append(
                    Violation(
                        "theory_bound", name,
                        f"makespan {ms} > {bound:.1f} x best engine makespan "
                        f"{best} — exceeds the proven "
                        f"{PROVABLE_ALGORITHMS[name]} ratio (with slack)",
                    )
                )
    return result


def run_case(
    spec: dict,
    algorithms: dict | None = None,
    check_determinism: bool = True,
) -> CaseResult:
    """Execute one spec through the full differential battery."""
    try:
        inst, m = build_case(spec)
    except Exception as exc:  # noqa: BLE001
        result = CaseResult(spec=spec)
        result.violations.append(
            Violation("generator", "-", f"{type(exc).__name__}: {exc}")
        )
        return result
    return run_instance(
        inst,
        m,
        int(spec.get("seed", 0)),
        algorithms=algorithms,
        check_determinism=check_determinism,
        spec=spec,
    )
