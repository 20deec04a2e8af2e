"""Print every check of the benchmark's inputs, one line each, to compare two checkouts.

    python tools/dump_checks.py [--decisions] ROOT > dump.txt

ROOT is a checkout (its `src/` and `bench/` are imported). The output covers
`d.residuals` and `verify_dilation(d, 1e-9)` of the 48 grid dilations at
seed 1, the integrated-form and extension reports and the Choi certificate
of the 48 grid extensions, both reports of the 12 grid crossed products, and
the timing-free JSON and text reports of the 6 example recipes. Each check
line is (subject, name, position, threshold, pass/fail, repr of the
residual), so two dumps agree byte for byte only if every certificate does:

    python tools/dump_checks.py OLD > a; python tools/dump_checks.py NEW > b; cmp a b

With `--decisions` every line is printed without its residual: the check
lines keep (subject, name, position, threshold, pass/fail), the Choi
certificate keeps its two decisions and its tol, and the recipe reports lose
each residual's value. Two such dumps agree when every decision does, which
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

SEED = 1
TEXT_VALUE = re.compile(r": [^ ]+ \(threshold")


def emit(tag, report, decisions):
    for k, c in enumerate(report.checks):
        line = (tag, report.subject, c.name, k, c.threshold, c.passed)
        print(repr(line if decisions else line + (repr(c.residual),)))


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
    from prostar import cli, crossed, dilation, examples_gen, recipes

    xps = {}
    for an, gn in workloads.CROSSED_PAIRS:
        action = recipes.standard_action(gn, recipes.named_algebra(an))
        xp = crossed.build_crossed_product(action, seed=SEED)
        xps[(an, gn)] = xp
        emit(f"xp {an}/{gn}", xp.embedding_report, args.decisions)
        emit(f"xp {an}/{gn}", xp.wedderburn.report, args.decisions)
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
