"""The three workloads: inputs made from a seed, the timed operation, its check.

A workload's `setup(seed, work_dir)` makes its inputs and returns the list of
operations one pass runs, in a fixed order. Each operation calls prostar
through module attributes looked up at call time, so the tracer's wrappers
are seen exactly while they are installed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from prostar import cli, crossed, dilation, examples_gen, recipes

# The acceptance grid: algebras, base algebras, module ranks, groups.
GRID = tuple(product(("m2", "m3", "m2+c"), ("c", "m2"), (1, 2), ("trivial", "z2", "z3", "s3")))
CROSSED_PAIRS = tuple(product(("m2", "m3", "m2+c"), ("trivial", "z2", "z3", "s3")))


@dataclass
class Op:
    """One timed operation and the check of its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def instance_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def _label(combo) -> str:
    return "/".join(str(c) for c in combo)


def grid_inputs(seed: int):
    """(combo, (rho, action, rep)) for the 48 grid instances."""
    return [
        (combo, recipes.dilation_instance(*combo, seed=instance_seed(seed, k)))
        for k, combo in enumerate(GRID)
    ]


# -- dilate-grid --------------------------------------------------------------


def _dilate(rho, action, rep, order_seed):
    d1 = dilation.covariant_dilation(rho, action, rep)
    report = dilation.verify_dilation(d1)
    d2 = dilation.covariant_dilation(rho, action, rep, order_seed=order_seed)
    u, u_report = dilation.uniqueness_unitary(d1, d2.as_triple())
    return d1, report, d2, u, u_report


def _check_dilate(rho, action, rep, a, b, out) -> list:
    d1, report, d2, u, u_report = out
    reports = (d1.residuals, report, d2.residuals, u_report)
    failures = [f"prostar {r.subject}: FAIL" for r in reports if not r.passed]
    for d in (d1, d2):
        failures += checks.check_dilation_identity(rho, d, a)
        failures += checks.check_representation(d, a, b)
        failures += checks.check_group_unitaries(d, action, rep)
        failures += checks.check_minimality(rho, d)
    return failures + checks.check_uniqueness(d1, d2, u)


def setup_dilate(seed: int, work_dir: Path) -> list[Op]:
    ops = []
    for k, (combo, (rho, action, rep)) in enumerate(grid_inputs(seed)):
        rng = np.random.default_rng([seed, k])
        sizes = rho.source.block_sizes
        a, b = checks.random_blocks(rng, sizes), checks.random_blocks(rng, sizes)
        run = partial(_dilate, rho, action, rep, instance_seed(seed, k) + 1)
        ops.append(Op(_label(combo), run, partial(_check_dilate, rho, action, rep, a, b)))
    return ops


# -- extend-grid --------------------------------------------------------------


def _extend(d, xp):
    return crossed.extend_covariant_cp(d, xp)


class _CrossedCheck:
    """Checks one crossed product built in set-up, once per run.

    The crossed products are inputs of `extend-grid`, made by the program
    during set-up; each extension's check includes this one, whose outcome
    is kept, so every extension over a faulty crossed product fails.
    """

    def __init__(self, xp, group_name: str, f, h):
        self.args = (xp, group_name, f, h)
        self.failures: list | None = None

    def __call__(self) -> list:
        if self.failures is None:
            xp, group_name, f, h = self.args
            action = xp.system
            reports = (xp.embedding_report, xp.wedderburn.report)
            failures = [f"prostar {r.subject}: FAIL" for r in reports if not r.passed]
            failures += checks.check_dimension(xp, action)
            failures += checks.check_blocks(xp, action, group_name)
            try:
                failures += checks.check_convolution(xp, action, f, h)
            except Exception as err:  # a malformed crossed product fails, it does not stop the run
                failures.append(f"convolution check raised {type(err).__name__}: {err}")
            self.failures = failures
        return self.failures


def _check_extend(rho, rep, xp, xp_check, a, ext) -> list:
    reports = (ext.integrated.report, ext.report)
    failures = xp_check() + [f"prostar {r.subject}: FAIL" for r in reports if not r.passed]
    failures += checks.check_spanning(ext, xp, rho, rep, a)
    failures += checks.check_unital(ext, xp)
    return failures + checks.check_choi(ext)


def setup_extend(seed: int, work_dir: Path) -> list[Op]:
    """The dilations and the 12 crossed products are inputs, built during set-up."""
    xps = {}
    for an, gn in CROSSED_PAIRS:
        action = recipes.standard_action(gn, recipes.named_algebra(an))
        xps[(an, gn)] = crossed.build_crossed_product(action, seed=seed)
    xp_checks = {}
    for k, ((an, gn), xp) in enumerate(xps.items()):
        rng = np.random.default_rng([seed, len(GRID) + k])
        sizes = xp.system.algebra.block_sizes
        f = [checks.random_blocks(rng, sizes) for _ in range(xp.system.group.order)]
        h = [checks.random_blocks(rng, sizes) for _ in range(xp.system.group.order)]
        xp_checks[(an, gn)] = _CrossedCheck(xp, gn, f, h)
    ops = []
    for k, (combo, (rho, action, rep)) in enumerate(grid_inputs(seed)):
        d = dilation.covariant_dilation(rho, action, rep)
        pair = (combo[0], combo[3])
        a = checks.random_blocks(np.random.default_rng([seed, k]), rho.source.block_sizes)
        check = partial(_check_extend, rho, rep, xps[pair], xp_checks[pair], a)
        ops.append(Op(_label(combo), partial(_extend, d, xps[pair]), check))
    return ops


# -- scenario-recipes ---------------------------------------------------------


def _run_cli(scenario: Path, base: Path) -> int:
    # The CLI echoes the text report to stdout; keep the benchmark's stdout clean.
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["run", "--scenario", str(scenario), "--format", "both", "--output", str(base)])


class _ReportCheck:
    """Checks one recipe's report; remembers the first pass's timing-free report."""

    def __init__(self, recipe: str, base: Path):
        self.recipe = recipe
        self.base = base
        self.first: str | None = None

    def __call__(self, status: int) -> list:
        json_text = self.base.with_suffix(".json").read_text(encoding="utf-8")
        text = self.base.with_suffix(".txt").read_text(encoding="utf-8")
        failures = checks.check_report(self.recipe, status, json.loads(json_text))
        stable = checks.without_timing(json_text, text)
        if self.first is None:
            self.first = stable
        elif stable != self.first:
            failures.append("report differs from the first pass outside its timing fields")
        return failures


def setup_scenarios(seed: int, work_dir: Path) -> list[Op]:
    ops = []
    for recipe in examples_gen.RECIPES:
        scenario = work_dir / f"{recipe}.json"
        doc = examples_gen.generate_example(recipe, seed)
        scenario.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        base = work_dir / f"{recipe}-report"
        ops.append(Op(recipe, partial(_run_cli, scenario, base), _ReportCheck(recipe, base)))
    return ops


SETUPS = {
    "dilate-grid": setup_dilate,
    "extend-grid": setup_extend,
    "scenario-recipes": setup_scenarios,
}
