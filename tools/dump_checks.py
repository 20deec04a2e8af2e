"""Print every check of the benchmark's inputs, one line each, to compare two checkouts.

    python tools/dump_checks.py [--decisions] ROOT > dump.txt

ROOT is a checkout (its `src/` and `bench/` are imported). The output covers
`d.residuals` and `verify_dilation(d, 1e-9)` of the 48 grid dilations at
seed 1, the integrated-form and extension reports and the Choi certificate
of the 48 grid extensions, both reports of the 12 grid crossed products and
`verify_action` of their 12 actions, the towers (below), and the
timing-free JSON and text reports of the 6 example recipes. The towers are
a 3-level chain M2⊕C⊕C -> M2⊕C -> M2 of block projections with Z2 acting
on M2: `verify` of the algebra tower, of its free module towers of rank 1
and 2 and of the module tower pushed down from a dilation module (not
free); the levelwise dilation coherence on the rank-1 and the pushed-down
tower and the levelwise integrated coherence on the rank-2 (a ↦ a⊗1) and
the pushed-down tower; and, as a negative control, the chain with its long
map p -> r replaced by zero, whose composition squares fail. Actions and
towers are reported at tol 1e-10 and 1e-16, the second below every
matrix-unit bound, so the all-pairs fallback is dumped too. Each check
line is (subject, name, position, threshold, pass/fail, repr of the
residual, and the witness or detail when the check has one), so two dumps
agree byte for byte only if every certificate does:

    python tools/dump_checks.py OLD > a; python tools/dump_checks.py NEW > b; cmp a b

With `--decisions` every line is printed without its residual or witness:
the check lines keep (subject, name, position, threshold, pass/fail), the
Choi certificate keeps its two decisions and its tol, and the recipe
reports lose each residual's value. Two such dumps agree when every decision does, which
is what a change that reports a proven bound in place of an exact residual
must keep.

The inputs and the timing filter come from `bench/workloads.py` and
`bench/checks.py`, which are imported and left unchanged.
"""

import argparse
import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

SEED = 1
TOLS = (1e-10, 1e-16)
TEXT_VALUE = re.compile(r": [^ ]+ \(threshold")


def emit(tag, report, decisions):
    for k, c in enumerate(report.checks):
        line = (tag, report.subject, c.name, k, c.threshold, c.passed)
        if not decisions:
            line += (repr(c.residual),) + ((c.detail,) if c.detail else ())
        print(repr(line))


def dump_towers(decisions):
    """Every tower check listed in the module docstring."""
    from prostar import crossed, dilation, recipes
    from prostar.algebra import FiniteCStarAlgebra, StarHomomorphism
    from prostar.cpmaps import CompletelyPositiveMap
    from prostar.modules import AdjointableOperator
    from prostar.tower import (
        AlgebraTower,
        ModuleTower,
        levelwise_dilation_coherence,
        levelwise_integrated_coherence,
    )

    b3, b2, b1 = (FiniteCStarAlgebra(sizes) for sizes in ((2, 1, 1), (2, 1), (2,)))
    chain = AlgebraTower.from_covers(
        {"r": b1, "q": b2, "p": b3},
        [("r", "q"), ("q", "p")],
        {
            ("q", "r"): StarHomomorphism.block_projection(b2, [0]),
            ("p", "q"): StarHomomorphism.block_projection(b3, [0, 1]),
        },
    )
    broken_maps = dict(chain.connecting)
    broken_maps[("p", "r")] = StarHomomorphism(b3, b1, np.zeros((4, 6), dtype=complex))
    broken = AlgebraTower(chain.poset, chain.algebras, broken_maps)

    a = recipes.named_algebra("m2")
    action = recipes.standard_action("z2", a)
    xp = crossed.build_crossed_product(action, seed=SEED)
    free1 = ModuleTower.of_free_modules(chain, 1)
    u1 = recipes.standard_representation("z2", free1.modules["p"])
    rho1 = recipes.random_covariant_cp(a, free1.modules["p"], action, u1, SEED)
    free2 = ModuleTower.of_free_modules(chain, 2)
    top2 = free2.modules["p"]
    v2 = recipes.standard_representation("z2", top2)
    values = tuple(AdjointableOperator.from_complex_matrix(top2, top2, b.dense()) for b in a.basis())
    phi2 = CompletelyPositiveMap(a, top2, values)
    d = dilation.covariant_dilation(rho1, action, u1)
    pushed = ModuleTower.pushed_down(chain, "p", d.module)
    rho_pushed = recipes.random_covariant_cp(a, d.module, action, d.group_unitaries, SEED + 1)
    print(repr(("pushed top is free", d.module.is_free)))

    module_towers = {
        "broken": ModuleTower.of_free_modules(broken, 1),
        "free1": free1,
        "free2": free2,
        "pushed": pushed,
    }
    for tol in TOLS:
        emit(f"tower chain {tol}", chain.verify(tol), decisions)
        emit(f"tower broken {tol}", broken.verify(tol), decisions)
        for name, mt in module_towers.items():
            emit(f"module tower {name} {tol}", mt.verify(tol), decisions)
    coherences = {
        "dilation free1": levelwise_dilation_coherence(rho1, action, u1, free1),
        "dilation pushed": levelwise_dilation_coherence(rho_pushed, action, d.group_unitaries, pushed),
        "integrated free2": levelwise_integrated_coherence(phi2, v2, xp, free2),
        "integrated pushed": levelwise_integrated_coherence(
            d.representation, d.group_unitaries, xp, pushed
        ),
    }
    for name, co in coherences.items():
        emit(f"coherence {name}", co.report, decisions)
        print(repr((f"coherence {name}", sorted(co.level_dimensions.items()))))


def without_values(stable):
    """The timing-free JSON and text reports with every residual value removed."""
    json_text, text = stable.split("\n", 1)
    doc = json.loads(json_text)
    for task in doc["tasks"]:
        for r in task["residuals"]:
            r.pop("value")
    return json.dumps(doc, sort_keys=True) + "\n" + TEXT_VALUE.sub(": (threshold", text)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--decisions", action="store_true", help="leave out every residual")
    parser.add_argument("root", type=Path, help="checkout whose src/ and bench/ are imported")
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import checks
    import workloads
    from prostar import cli, crossed, dilation, examples_gen, groups, recipes

    xps = {}
    for an, gn in workloads.CROSSED_PAIRS:
        action = recipes.standard_action(gn, recipes.named_algebra(an))
        for tol in TOLS:
            emit(f"action {an}/{gn} {tol}", groups.verify_action(action, tol), args.decisions)
        xp = crossed.build_crossed_product(action, seed=SEED)
        xps[(an, gn)] = xp
        emit(f"xp {an}/{gn}", xp.embedding_report, args.decisions)
        emit(f"xp {an}/{gn}", xp.wedderburn.report, args.decisions)
    dump_towers(args.decisions)
    for combo, (rho, action, rep) in workloads.grid_inputs(SEED):
        label = "/".join(map(str, combo))
        d = dilation.covariant_dilation(rho, action, rep)
        emit(f"dil {label}", d.residuals, args.decisions)
        emit(f"verify {label}", dilation.verify_dilation(d, 1e-9), args.decisions)
        ext = crossed.extend_covariant_cp(d, xps[(combo[0], combo[3])])
        emit(f"int {label}", ext.integrated.report, args.decisions)
        emit(f"ext {label}", ext.report, args.decisions)
        c = ext.certificate
        if args.decisions:
            print(repr((f"cert {label}", c.is_hermitian_preserving, c.is_cp, c.tol)))
        else:
            print(repr((f"cert {label}", c.is_hermitian_preserving, repr(c.hermitian_residual),
                        tuple(map(repr, c.choi_min_eigenvalues)), c.is_cp, c.tol)))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for recipe in examples_gen.RECIPES:
            scenario, base = tmp / f"{recipe}.json", tmp / f"{recipe}-report"
            doc = examples_gen.generate_example(recipe, SEED)
            scenario.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(
                    ["run", "--scenario", str(scenario), "--format", "both", "--output", str(base)]
                )
            print(repr((f"recipe {recipe}", status)))
            stable = checks.without_timing(
                base.with_suffix(".json").read_text(), base.with_suffix(".txt").read_text()
            )
            if args.decisions:
                stable = without_values(stable)
            print(stable.replace(str(tmp), "TMP"))


if __name__ == "__main__":
    main()
