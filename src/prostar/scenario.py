"""Scenario files: declarations of objects plus a list of verification tasks.

A scenario is UTF-8 JSON (schema "prostar-scenario-v1"). Complex scalars are
two-element arrays [re, im]; matrices are nested row arrays; an algebra
element is a list of blocks, each a matrix. All references are resolved and
type-checked before any task runs.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import recipes
from .algebra import FiniteCStarAlgebra, StarHomomorphism
from .cpmaps import CompletelyPositiveMap
from .crossed import build_crossed_product, extend_covariant_cp
from .dilation import covariant_dilation, uniqueness_unitary, verify_dilation
from .errors import NumericalError, PreconditionError, ProstarError, StructuralError
from .groups import (
    FiniteGroup,
    GroupAction,
    UnitaryRepresentation,
    verify_action,
    verify_group,
    verify_unitary_representation,
)
from .modules import AdjointableOperator, HilbertModule
from .report import Report, TaskResult, VERSION
from .tower import (
    AlgebraTower,
    DirectedPoset,
    ModuleTower,
    levelwise_dilation_coherence,
    levelwise_integrated_coherence,
)

SCHEMA = "prostar-scenario-v1"
TASK_KINDS = ("dilate", "crossed-product", "extend", "tower-check", "verify-all")


class ScenarioError(ProstarError):
    """Scenario file does not parse or validate."""


# -- literal decoding --------------------------------------------------------


def _complex_scalar(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ScenarioError(f"bad complex scalar {value!r} (want [re, im])")


def decode_matrix(rows) -> np.ndarray:
    try:
        return np.array([[_complex_scalar(v) for v in row] for row in rows], dtype=np.complex128)
    except (TypeError, ScenarioError) as err:
        raise ScenarioError(f"bad matrix literal: {err}") from err


# -- scenario object store ---------------------------------------------------


@dataclass
class TowerDeclaration:
    algebra_tower: AlgebraTower
    module_tower: ModuleTower | None


@dataclass
class Scenario:
    tolerance: float
    seed: int
    algebras: dict[str, FiniteCStarAlgebra] = field(default_factory=dict)
    groups: dict[str, FiniteGroup] = field(default_factory=dict)
    modules: dict[str, HilbertModule] = field(default_factory=dict)
    actions: dict[str, GroupAction] = field(default_factory=dict)
    representations: dict[str, UnitaryRepresentation] = field(default_factory=dict)
    cp_maps: dict[str, CompletelyPositiveMap] = field(default_factory=dict)
    towers: dict[str, TowerDeclaration] = field(default_factory=dict)
    tasks: list[dict] = field(default_factory=list)

    def _get(self, table: dict, key, kind: str):
        if key not in table:
            raise ScenarioError(f"unknown {kind} reference {key!r}")
        return table[key]


def _object(value, what: str) -> dict:
    """A JSON object, or a ScenarioError naming what had the wrong shape."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _integer(value, what: str, least: int) -> int:
    """A JSON integer >= `least` (0 or 1), or a ScenarioError naming `what`."""
    # bool is an int subclass; JSON true/false is not a number.
    if type(value) is not int or value < least:
        kind = "non-negative" if least == 0 else "positive"
        raise ScenarioError(f"{what} must be a {kind} integer, got {value!r}")
    return value


def _seed(value, what: str) -> int:
    """A seed: a non-negative JSON integer."""
    return _integer(value, what, 0)


def _count(value, what: str) -> int:
    """A rank, an order or a block size: a positive JSON integer."""
    return _integer(value, what, 1)


def _block_sizes(value, what: str) -> tuple[int, ...]:
    """An algebra's block sizes: a JSON list of positive integers."""
    if not isinstance(value, list):
        raise ScenarioError(f"{what} must be a list of block sizes, got {value!r}")
    return tuple(_count(n, f"{what}: block size") for n in value)


def _tolerance(value) -> float:
    """A tolerance: a finite positive JSON number, or a ScenarioError."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and math.isfinite(value) and value > 0):
        raise ScenarioError(f"tolerance must be a finite positive number, got {value!r}")
    return float(value)


def _parse_group(spec) -> FiniteGroup:
    if isinstance(spec, str):
        return recipes.named_group(spec)
    if isinstance(spec, dict) and "cayley" in spec:
        table = spec["cayley"]
        if "order" in spec and _count(spec["order"], "group order") != len(table):
            raise ScenarioError("declared group order does not match the Cayley table")
        return FiniteGroup.from_table(table, tuple(spec.get("names", ())))
    raise ScenarioError(f"bad group literal {spec!r}")


def _parse_cp_map(scn: Scenario, name: str, spec: dict) -> CompletelyPositiveMap:
    source = scn._get(scn.algebras, spec.get("source"), "algebra")
    module = scn._get(scn.modules, spec.get("module"), "module")
    given = [k for k in ("blocks", "shorthand", "generator") if k in spec]
    if len(given) != 1:
        raise ScenarioError(
            f"cp map {name!r} needs exactly one of blocks | shorthand | generator"
        )
    if "blocks" in spec:
        fd = module.flat_dim
        values = []
        for k, n in enumerate(source.block_sizes):
            arr = spec["blocks"][k]
            if len(arr) != n or any(len(row) != n for row in arr):
                raise ScenarioError(f"cp map {name!r}: block {k} is not {n}x{n}")
            for i in range(n):
                for j in range(n):
                    values.append(decode_matrix(arr[i][j]))
        if any(v.shape != (fd, fd) for v in values):
            raise ScenarioError(f"cp map {name!r}: output matrices must be {fd}x{fd}")
        return CompletelyPositiveMap.from_dense_images(source, module, values)
    if "shorthand" in spec:
        sh = spec["shorthand"]
        if sh == "identity":
            return CompletelyPositiveMap.identity_representation(source, module)
        if sh == "trace-state":
            return CompletelyPositiveMap.trace_state(source, module)
        if isinstance(sh, dict) and "conjugation" in sh:
            v = decode_matrix(sh["conjugation"])
            return CompletelyPositiveMap.from_kraus(source, module, [v])
        raise ScenarioError(f"cp map {name!r}: unknown shorthand {sh!r}")
    gen = _object(spec["generator"], f"cp map {name!r}: generator")
    if gen.get("recipe") != "random-covariant":
        raise ScenarioError(f"cp map {name!r}: unknown generator {gen!r}")
    action = scn._get(scn.actions, gen.get("action"), "action")
    rep = scn._get(scn.representations, gen.get("representation"), "representation")
    seed = _seed(gen["seed"], f"cp map {name!r}: generator seed") if "seed" in gen else scn.seed
    return recipes.random_covariant_cp(source, module, action, rep, seed)


def _parse_tower(scn: Scenario, name: str, spec: dict) -> TowerDeclaration:
    levels = spec["levels"]
    if not isinstance(levels, list) or not all(isinstance(x, str) for x in levels):
        raise ScenarioError(f"tower {name!r}: levels must be a list of strings, got {levels!r}")
    algebras = {
        lvl: FiniteCStarAlgebra(_block_sizes(spec["algebras"][lvl], f"tower {name!r}: {lvl!r}"))
        for lvl in levels
    }
    covers = [(str(a), str(b)) for a, b in spec.get("relations", [])]
    if not covers and len(levels) > 1:
        covers = [(levels[i], levels[i + 1]) for i in range(len(levels) - 1)]
    # Transitive closure of the cover relations.
    rels = set(covers)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rels):
            for (c, d) in list(rels):
                if b == c and (a, d) not in rels:
                    rels.add((a, d))
                    changed = True
    poset = DirectedPoset(tuple(levels), frozenset(rels))

    maps = {}
    for key, mat in _object(spec.get("maps", {}), f"tower {name!r}: maps").items():
        upper, lower = [s.strip() for s in key.split(">")]
        maps[(upper, lower)] = StarHomomorphism(
            algebras[upper], algebras[lower], decode_matrix(mat)
        )
    # Fill in composites along cover chains for comparable pairs without a map.
    connecting = dict(maps)

    def compose_path(p: str, q: str) -> StarHomomorphism | None:
        if (p, q) in connecting:
            return connecting[(p, q)]
        for (u, l) in list(maps):
            if u == p:
                rest = compose_path(l, q) if l != q else StarHomomorphism.identity(algebras[q])
                if rest is not None:
                    return rest.compose(maps[(u, l)])
        return None

    for (lo, up) in rels:
        if (up, lo) not in connecting:
            composed = compose_path(up, lo)
            if composed is None:
                raise ScenarioError(f"tower {name!r}: no map path from {up} to {lo}")
            connecting[(up, lo)] = composed
    tower = AlgebraTower(poset, algebras, connecting)

    module_tower = None
    if "module_rank" in spec:
        rank = _count(spec["module_rank"], f"tower {name!r}: module_rank")
        if "top_projection" in spec and spec["top_projection"] is not None:
            top = poset.greatest()
            if top is None:
                raise ScenarioError(f"tower {name!r}: top_projection needs a greatest level")
            top_module = HilbertModule(
                algebras[top], rank, decode_matrix(spec["top_projection"])
            )
            module_tower = ModuleTower.pushed_down(tower, top, top_module)
        else:
            module_tower = ModuleTower.of_free_modules(tower, rank)
    return TowerDeclaration(tower, module_tower)


def parse_scenario(data: dict, *, tolerance: float | None = None, seed: int | None = None) -> Scenario:
    """Build and type-check every declared object; raises ScenarioError on any problem."""
    data = _object(data, "scenario")
    if data.get("schema") != SCHEMA:
        raise ScenarioError(f"scenario schema must be {SCHEMA!r}, got {data.get('schema')!r}")

    def section(key: str) -> dict:
        return _object(data.get(key, {}), f"{key!r}")

    def specs(key: str, kind: str):
        for name, spec in section(key).items():
            yield name, _object(spec, f"{kind} {name!r}")

    try:
        scn = Scenario(
            tolerance=_tolerance(
                tolerance if tolerance is not None else data.get("tolerance", 1e-10)
            ),
            seed=_seed(seed if seed is not None else data.get("seed", 0), "seed"),
        )
        for name, spec in section("algebras").items():
            scn.algebras[name] = (
                recipes.named_algebra(spec) if isinstance(spec, str)
                else FiniteCStarAlgebra(_block_sizes(spec, f"algebra {name!r}"))
            )
        for name, spec in section("groups").items():
            scn.groups[name] = _parse_group(spec)
        for name, spec in specs("modules", "module"):
            algebra = scn._get(scn.algebras, spec.get("algebra"), "algebra")
            rank = _count(spec.get("rank", 1), f"module {name!r}: rank")
            if "projection" in spec and spec["projection"] is not None:
                scn.modules[name] = HilbertModule(algebra, rank, decode_matrix(spec["projection"]))
            else:
                scn.modules[name] = HilbertModule.free(algebra, rank)
        for name, spec in specs("actions", "action"):
            group = scn._get(scn.groups, spec.get("group"), "group")
            algebra = scn._get(scn.algebras, spec.get("algebra"), "algebra")
            if spec.get("kind") == "standard":
                preset_group = spec.get("preset_group")
                if preset_group is None:
                    raise ScenarioError(f"action {name!r}: standard kind needs preset_group")
                action = recipes.standard_action(preset_group, algebra)
                if action.group != group:
                    raise ScenarioError(f"action {name!r}: preset group mismatch")
                scn.actions[name] = action
            elif "automorphisms" in spec:
                autos = tuple(
                    StarHomomorphism(algebra, algebra, decode_matrix(m))
                    for m in spec["automorphisms"]
                )
                scn.actions[name] = GroupAction(group, algebra, autos)
            elif spec.get("kind") == "trivial":
                scn.actions[name] = GroupAction.trivial(group, algebra)
            else:
                raise ScenarioError(f"action {name!r}: need kind or automorphisms")
        for name, spec in specs("representations", "representation"):
            group = scn._get(scn.groups, spec.get("group"), "group")
            module = scn._get(scn.modules, spec.get("module"), "module")
            if spec.get("kind") == "standard":
                preset_group = spec.get("preset_group")
                rep = recipes.standard_representation(preset_group, module)
                if rep.group != group:
                    raise ScenarioError(f"representation {name!r}: preset group mismatch")
                scn.representations[name] = rep
            elif spec.get("kind") == "trivial":
                scn.representations[name] = UnitaryRepresentation.trivial(group, module)
            elif "complex_unitaries" in spec:
                mats = [decode_matrix(m) for m in spec["complex_unitaries"]]
                scn.representations[name] = UnitaryRepresentation.from_complex_matrices(
                    group, module, mats
                )
            elif "unitaries" in spec:
                ops = tuple(
                    AdjointableOperator(module, module, decode_matrix(m))
                    for m in spec["unitaries"]
                )
                scn.representations[name] = UnitaryRepresentation(group, module, ops)
            else:
                raise ScenarioError(f"representation {name!r}: need kind or unitaries")
        for name, spec in specs("cp_maps", "cp map"):
            scn.cp_maps[name] = _parse_cp_map(scn, name, spec)
        for name, spec in specs("towers", "tower"):
            scn.towers[name] = _parse_tower(scn, name, spec)

        tasks = data.get("tasks", [])
        if not isinstance(tasks, list):
            raise ScenarioError("tasks must be a list")
        for i, task in enumerate(tasks):
            kind = _object(task, f"task #{i}").get("kind")
            if kind not in TASK_KINDS:
                raise ScenarioError(f"task #{i}: unknown kind {kind!r}")
            _validate_task_refs(scn, task)
            scn.tasks.append({"name": task.get("name", f"task-{i}"), **task})
    except (
        StructuralError, PreconditionError, KeyError, TypeError, ValueError, OverflowError
    ) as err:
        raise ScenarioError(f"scenario validation failed: {err}") from err
    return scn


def _validate_task_refs(scn: Scenario, task: dict) -> None:
    kind = task["kind"]
    if kind in ("dilate", "extend"):
        rho = scn._get(scn.cp_maps, task.get("cp_map"), "cp map")
        action = scn._get(scn.actions, task.get("action"), "action")
        rep = scn._get(scn.representations, task.get("representation"), "representation")
        if action.algebra != rho.source or rep.module != rho.module:
            raise ScenarioError(f"task {task.get('name')}: triple shapes do not match")
        if action.group != rep.group:
            raise ScenarioError(f"task {task.get('name')}: action and representation groups differ")
        if kind == "dilate":
            for key in ("order_seed", "uniqueness_seed"):
                if key in task:
                    _seed(task[key], f"task {task.get('name')}: {key}")
            if not isinstance(task.get("uniqueness", False), bool):
                raise ScenarioError(f"task {task.get('name')}: uniqueness must be true or false")
    elif kind == "crossed-product":
        scn._get(scn.actions, task.get("action"), "action")
        if "expected_blocks" in task:
            blocks = task["expected_blocks"]
            what = f"task {task.get('name')}: expected_blocks"
            if not isinstance(blocks, list):
                raise ScenarioError(f"{what} must be a list, got {blocks!r}")
            for b in blocks:
                _count(b, f"{what} entry")
    elif kind == "tower-check":
        decl = scn._get(scn.towers, task.get("tower"), "tower")
        coherence = task.get("coherence")
        if coherence is not None:
            if coherence not in ("dilation", "integrated"):
                raise ScenarioError(f"unknown coherence mode {coherence!r}")
            if decl.module_tower is None:
                raise ScenarioError("coherence checks need a tower with module_rank")
            rho = scn._get(scn.cp_maps, task.get("cp_map"), "cp map")
            action = scn._get(scn.actions, task.get("action"), "action")
            rep = scn._get(scn.representations, task.get("representation"), "representation")
            top = decl.module_tower.base.poset.greatest()
            if top is None:
                raise ScenarioError("coherence checks need a greatest tower level")
            if rho.module != decl.module_tower.modules[top]:
                raise ScenarioError("cp map is not defined on the top-level module")


def load_scenario(path: str, *, tolerance: float | None = None, seed: int | None = None) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ScenarioError(f"cannot read scenario {path!r}: {err}") from err
    return parse_scenario(data, tolerance=tolerance, seed=seed)


# -- task execution ----------------------------------------------------------


def _run_dilate(scn: Scenario, task: dict, result: TaskResult) -> None:
    rho = scn.cp_maps[task["cp_map"]]
    action = scn.actions[task["action"]]
    rep = scn.representations[task["representation"]]
    tol = scn.tolerance
    d = covariant_dilation(rho, action, rep, tol=tol, order_seed=task.get("order_seed"))
    report = verify_dilation(d, max(tol, 1e-9))
    result.add_report(report)
    result.dimensions.update(
        {
            "dilation_module_dim": d.module.complex_dim,
            "null_space_dim": d.quotient.null_dim,
            "spanning_size": len(d.quotient.spanning_labels),
        }
    )
    if task.get("uniqueness", False):
        seed = int(task.get("uniqueness_seed", scn.seed + 1))
        other = covariant_dilation(rho, action, rep, tol=tol, order_seed=seed)
        _, urep = uniqueness_unitary(d, other.as_triple(), tol)
        result.add_report(urep, prefix="uniqueness")


def _run_crossed(scn: Scenario, task: dict, result: TaskResult) -> None:
    action = scn.actions[task["action"]]
    xp = build_crossed_product(action, seed=scn.seed, tol=scn.tolerance)
    result.add_report(xp.embedding_report)
    result.add_report(xp.wedderburn.report, prefix="wedderburn")
    blocks = list(xp.standard_algebra.block_sizes)
    result.dimensions.update(
        {
            "crossed_product_blocks": blocks,
            "crossed_product_dim": xp.standard_algebra.linear_dim,
            "ambient_dim": xp.ambient_dim,
        }
    )
    expected = task.get("expected_blocks")
    if expected is not None:
        match = blocks == sorted(expected)
        result.residuals.append(
            {
                "name": "block sizes match expectation",
                "value": 0.0 if match else 1.0,
                "threshold": 0.5,
                "passed": match,
                "detail": f"got {blocks}, expected {sorted(expected)}",
            }
        )


def _run_extend(scn: Scenario, task: dict, result: TaskResult) -> None:
    rho = scn.cp_maps[task["cp_map"]]
    action = scn.actions[task["action"]]
    rep = scn.representations[task["representation"]]
    tol = scn.tolerance
    d = covariant_dilation(rho, action, rep, tol=tol)
    xp = build_crossed_product(action, seed=scn.seed, tol=tol)
    ext = extend_covariant_cp(d, xp, tol)
    result.add_report(d.residuals, prefix="dilation")
    result.add_report(ext.integrated.report, prefix="integrated form")
    result.add_report(ext.report, prefix="extension")
    cert = ext.certificate
    result.dimensions.update(
        {
            "dilation_module_dim": d.module.complex_dim,
            "crossed_product_blocks": list(xp.standard_algebra.block_sizes),
            "choi_min_eigenvalue": float(cert.min_eigenvalue),
        }
    )


def _run_tower_check(scn: Scenario, task: dict, result: TaskResult) -> None:
    decl = scn.towers[task["tower"]]
    tol = scn.tolerance
    result.add_report(decl.algebra_tower.verify(tol), prefix="algebra tower")
    if decl.module_tower is not None:
        result.add_report(decl.module_tower.verify(tol), prefix="module tower")
    coherence = task.get("coherence")
    if coherence is not None:
        rho = scn.cp_maps[task["cp_map"]]
        action = scn.actions[task["action"]]
        rep = scn.representations[task["representation"]]
        if coherence == "dilation":
            co = levelwise_dilation_coherence(rho, action, rep, decl.module_tower, tol=tol)
        else:
            xp = build_crossed_product(action, seed=scn.seed, tol=tol)
            co = levelwise_integrated_coherence(rho, rep, xp, decl.module_tower, tol=tol)
        result.add_report(co.report, prefix=f"{coherence} coherence")
        result.dimensions["level_dimensions"] = dict(sorted(co.level_dimensions.items()))


def _run_verify_all(scn: Scenario, task: dict, result: TaskResult) -> None:
    tol = scn.tolerance
    for name, group in sorted(scn.groups.items()):
        result.add_report(verify_group(group), prefix=f"group {name}")
    for name, action in sorted(scn.actions.items()):
        result.add_report(verify_action(action, tol), prefix=f"action {name}")
    for name, rep in sorted(scn.representations.items()):
        result.add_report(verify_unitary_representation(rep, tol), prefix=f"representation {name}")
    for name, rho in sorted(scn.cp_maps.items()):
        cert = rho.verify_completely_positive(tol)
        result.residuals.append(
            {
                "name": f"cp map {name}: completely positive (Choi)",
                "value": float(max(0.0, -cert.min_eigenvalue)),
                "threshold": tol,
                "passed": bool(cert.is_cp),
                "detail": f"min Choi eigenvalue {cert.min_eigenvalue:.17g}",
            }
        )
        result.add_report(rho.verify_nondegenerate(tol), prefix=f"cp map {name}")
    for name, decl in sorted(scn.towers.items()):
        result.add_report(decl.algebra_tower.verify(tol), prefix=f"tower {name}")
        if decl.module_tower is not None:
            result.add_report(decl.module_tower.verify(tol), prefix=f"module tower {name}")


_RUNNERS = {
    "dilate": _run_dilate,
    "crossed-product": _run_crossed,
    "extend": _run_extend,
    "tower-check": _run_tower_check,
    "verify-all": _run_verify_all,
}


def run_task(scn: Scenario, task: dict) -> TaskResult:
    result = TaskResult(name=task["name"], kind=task["kind"], outcome="pass")
    start = time.perf_counter()
    try:
        _RUNNERS[task["kind"]](scn, task, result)
        if not all(r["passed"] for r in result.residuals):
            result.outcome = "fail"
    except NumericalError as err:
        result.outcome = "error"
        result.message = f"numerical failure: {err}"
    except (PreconditionError, StructuralError) as err:
        result.outcome = "fail"
        result.message = str(err)
    result.timing_s = time.perf_counter() - start
    return result


def run_scenario(scn: Scenario, *, jobs: int | None = None, scenario_path: str = "") -> Report:
    """Execute all tasks and assemble the report.

    Tasks run one after another in declaration order unless `jobs` > 1, which
    runs them on a pool of that many threads.
    """
    workers = jobs if jobs and jobs > 1 else 1
    config = {
        "tolerance": scn.tolerance,
        "seed": scn.seed,
        "version": VERSION,
        "jobs": workers,
    }
    if scenario_path:
        config["scenario"] = scenario_path
    report = Report(config=config)
    if workers == 1:
        results = [run_task(scn, t) for t in scn.tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda t: run_task(scn, t), scn.tasks))
    report.tasks.extend(results)
    return report
