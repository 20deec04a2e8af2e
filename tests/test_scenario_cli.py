import contextlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prostar import scenario
from prostar.cli import main
from prostar.examples_gen import RECIPES, generate_example
from prostar.scenario import (
    ScenarioError,
    load_scenario,
    parse_scenario,
    run_scenario,
)


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def strip_timing(report_dict):
    out = json.loads(json.dumps(report_dict))
    for task in out["tasks"]:
        task.pop("timing_s", None)
    return out


class TestExamples:
    @pytest.mark.parametrize("recipe", RECIPES)
    def test_recipes_validate(self, recipe, tmp_path):
        doc = generate_example(recipe, seed=3)
        path = write_scenario(tmp_path, doc)
        scn = load_scenario(path)
        assert scn.tasks or recipe not in ("z2-swap-crossed",)

    def test_generation_deterministic(self):
        a = json.dumps(generate_example("random-covariant-cp", 42), sort_keys=True)
        b = json.dumps(generate_example("random-covariant-cp", 42), sort_keys=True)
        assert a == b

    def test_unknown_recipe(self):
        from prostar.errors import PreconditionError

        with pytest.raises(PreconditionError):
            generate_example("no-such-recipe")


class TestParsing:
    def test_missing_schema(self):
        with pytest.raises(ScenarioError):
            parse_scenario({"tasks": []})

    def test_unknown_reference(self):
        doc = {
            "schema": "prostar-scenario-v1",
            "algebras": {"A": [2]},
            "tasks": [{"kind": "crossed-product", "action": "nope"}],
        }
        with pytest.raises(ScenarioError):
            parse_scenario(doc)

    def test_bad_task_kind(self):
        doc = {"schema": "prostar-scenario-v1", "tasks": [{"kind": "fly"}]}
        with pytest.raises(ScenarioError):
            parse_scenario(doc)

    def test_literal_matrices_and_cp_blocks(self):
        # 4-d array literal for a CP map on M2 with E = C^2: the identity map
        blocks = [
            [
                [
                    [[[1, 0], [0, 0]], [[0, 0], [0, 0]]] if (i, j) == (0, 0)
                    else [[[0, 0], [0 if (i, j) != (0, 1) else 1, 0]], [[0, 0], [0, 0]]] if (i, j) == (0, 1)
                    else [[[0, 0], [0, 0]], [[1 if (i, j) == (1, 0) else 0, 0], [0, 0]]] if (i, j) == (1, 0)
                    else [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
                    for j in range(2)
                ]
                for i in range(2)
            ]
        ]
        doc = {
            "schema": "prostar-scenario-v1",
            "algebras": {"A": [2], "B": [1]},
            "modules": {"E": {"algebra": "B", "rank": 2}},
            "groups": {"G": "trivial"},
            "actions": {"al": {"group": "G", "algebra": "A", "kind": "trivial"}},
            "representations": {"u": {"group": "G", "module": "E", "kind": "trivial"}},
            "cp_maps": {"rho": {"source": "A", "module": "E", "blocks": blocks}},
            "tasks": [
                {"kind": "dilate", "cp_map": "rho", "action": "al", "representation": "u"}
            ],
        }
        scn = parse_scenario(doc)
        report = run_scenario(scn, jobs=1)
        assert report.outcome == "pass"
        assert report.tasks[0].dimensions["dilation_module_dim"] == 2

    def test_empty_tasks_pass(self):
        scn = parse_scenario({"schema": "prostar-scenario-v1", "tasks": []})
        report = run_scenario(scn)
        assert report.exit_status == 0 and report.tasks == []


class TestRunOutcomes:
    def test_golden_dilation_scenario(self, tmp_path):
        path = write_scenario(tmp_path, generate_example("z2-m2-dilation", 1))
        scn = load_scenario(path)
        report = run_scenario(scn, jobs=1)
        assert report.outcome == "pass" and report.exit_status == 0
        dims = report.tasks[0].dimensions
        assert dims["dilation_module_dim"] == 2

    def test_transpose_declared_cp_fails_with_witness(self, tmp_path):
        # transpose map entered via explicit blocks; verify-all must fail with
        # the Choi witness -1 in the report
        e = np.eye(2)
        blocks = [[[None] * 2 for _ in range(2)] for _ in range(1)]
        for i in range(2):
            for j in range(2):
                m = np.zeros((2, 2))
                m[j, i] = 1.0  # transpose of the matrix unit E_ij
                blocks[0][i][j] = [[[float(m[r, c]), 0.0] for c in range(2)] for r in range(2)]
        doc = {
            "schema": "prostar-scenario-v1",
            "algebras": {"A": [2], "B": [1]},
            "modules": {"E": {"algebra": "B", "rank": 2}},
            "cp_maps": {"rho": {"source": "A", "module": "E", "blocks": blocks}},
            "tasks": [{"name": "certify", "kind": "verify-all"}],
        }
        scn = parse_scenario(doc)
        report = run_scenario(scn, jobs=1)
        assert report.outcome == "fail" and report.exit_status == 1
        choi = [r for r in report.tasks[0].residuals if "Choi" in r["name"]]
        assert choi and not choi[0]["passed"]
        assert "-1" in choi[0]["detail"]

    def test_report_deterministic_modulo_timing(self, tmp_path):
        path = write_scenario(tmp_path, generate_example("random-covariant-cp", 7))
        r1 = run_scenario(load_scenario(path), jobs=1).to_dict()
        r2 = run_scenario(load_scenario(path), jobs=1).to_dict()
        assert strip_timing(r1) == strip_timing(r2)
        # concurrency does not change the results, only the config echo
        r3 = run_scenario(load_scenario(path), jobs=2).to_dict()
        assert strip_timing(r1)["tasks"] == strip_timing(r3)["tasks"]

    def test_failing_uniqueness_fails_the_task(self, tmp_path, monkeypatch):
        """A task fails when any of its residuals fails, not only its first report."""
        doc = generate_example("z2-m2-dilation", 1)
        assert doc["tasks"][0]["uniqueness"]
        real = scenario.uniqueness_unitary

        def failing(d, other, tol):
            u, report = real(d, other, tol)
            worse = replace(report.checks[0], residual=1.0)
            return u, replace(report, checks=(worse,) + report.checks[1:])

        monkeypatch.setattr(scenario, "uniqueness_unitary", failing)
        report = run_scenario(load_scenario(write_scenario(tmp_path, doc)), jobs=1)
        task = report.tasks[0]
        assert [r["passed"] for r in task.residuals if r["name"].startswith("uniqueness")][0] is False
        assert task.outcome == "fail" and report.exit_status == 1

    def test_default_runs_serially(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, generate_example("random-covariant-cp", 7))
        monkeypatch.setattr(scenario, "ThreadPoolExecutor", None)
        report = run_scenario(load_scenario(path))
        assert report.config["jobs"] == 1
        assert [t.name for t in report.tasks] == [t["name"] for t in load_scenario(path).tasks]

    def test_tolerance_override(self, tmp_path):
        path = write_scenario(tmp_path, generate_example("z2-swap-crossed", 0))
        scn = load_scenario(path, tolerance=1e-3)
        assert scn.tolerance == 1e-3
        report = run_scenario(scn)
        assert report.config["tolerance"] == 1e-3


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        path = write_scenario(tmp_path, generate_example("s3-group-algebra", 0))
        code = main(["run", "--scenario", path])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_run_writes_reports(self, tmp_path, capsys):
        path = write_scenario(tmp_path, generate_example("z2-swap-crossed", 0))
        out_base = str(tmp_path / "report")
        code = main(
            ["run", "--scenario", path, "--output", out_base, "--format", "both"]
        )
        assert code == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["outcome"] == "pass"
        assert data["config"]["version"]
        assert (tmp_path / "report.txt").read_text().startswith("prostar report")

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["run", "--scenario", str(bad)]) == 2
        assert main(["validate", "--scenario", str(bad)]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"tasks": ["x"]},
            {"algebras": [1, 2]},
            {"algebras": {"A": [2]}, "modules": {"E": "A"}},
            {"tolerance": "tight"},
            {"seed": float("inf")},
        ],
    )
    def test_malformed_shapes_exit_two(self, doc, tmp_path, capsys):
        path = write_scenario(tmp_path, {"schema": "prostar-scenario-v1", **doc})
        assert main(["validate", "--scenario", path]) == 2
        assert main(["run", "--scenario", path]) == 2
        assert "invalid scenario" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"order_seed": -1, "uniqueness_seed": -1},
            {"order_seed": "x", "uniqueness_seed": "x"},
            {"order_seed": 1.5, "uniqueness_seed": 1.5},
            {"order_seed": True},
            {"uniqueness_seed": False},
            {"uniqueness_seed": None},
            {"uniqueness": "yes"},
            {"uniqueness": 1},
        ],
    )
    def test_malformed_dilation_seeds_exit_two(self, fields, tmp_path, capsys):
        doc = generate_example("z2-m2-dilation", 0)
        dilate = next(task for task in doc["tasks"] if task["kind"] == "dilate")
        dilate.update(fields)
        path = write_scenario(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == 2
        assert main(["run", "--scenario", path]) == 2
        err = capsys.readouterr().err
        assert "invalid scenario" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "fields, flags",
        [
            ({"seed": -1}, []),
            ({"seed": 1.5}, []),
            ({"seed": True}, []),
            ({"seed": "1"}, []),
            ({}, ["--seed", "-1"]),
            ({"generator_seed": -1}, []),
            ({"generator_seed": 1.5}, []),
            ({"generator_seed": False}, []),
        ],
    )
    def test_malformed_seeds_exit_two(self, fields, flags, tmp_path, capsys):
        """The top-level seed, --seed and a generator's seed follow the rule of order_seed."""
        doc = generate_example("random-covariant-cp", 0)
        if "seed" in fields:
            doc["seed"] = fields["seed"]
        if "generator_seed" in fields:
            doc["cp_maps"]["rho"]["generator"]["seed"] = fields["generator_seed"]
        path = write_scenario(tmp_path, doc)
        assert main(["validate", "--scenario", path, *flags]) == 2
        assert main(["run", "--scenario", path, *flags]) == 2
        err = capsys.readouterr().err
        assert "seed must be a non-negative integer" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"algebras": {"A": [1]}, "modules": {"E": {"algebra": "A", "rank": "2"}}},
            {"algebras": {"A": [1]}, "modules": {"E": {"algebra": "A", "rank": 1.5}}},
            {"algebras": {"A": [1]}, "modules": {"E": {"algebra": "A", "rank": True}}},
            {"groups": {"G": {"cayley": [[0, 1], [1, 0]], "order": 2.5}}},
            {"groups": {"G": {"cayley": [[0, 1], [1, 0]], "order": "2"}}},
        ],
    )
    def test_non_integer_rank_or_order_exit_two(self, doc, tmp_path, capsys):
        """A module rank and a Cayley table's order are positive JSON integers."""
        path = write_scenario(tmp_path, {"schema": "prostar-scenario-v1", **doc})
        assert main(["validate", "--scenario", path]) == 2
        assert main(["run", "--scenario", path]) == 2
        err = capsys.readouterr().err
        assert "must be a positive integer" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"module_rank": 1.5}, "must be a positive integer"),
            ({"module_rank": True}, "must be a positive integer"),
            ({"module_rank": 0}, "must be a positive integer"),
            ({"levels": "qp"}, "levels must be a list of strings"),
            ({"levels": ["q", 1]}, "levels must be a list of strings"),
        ],
    )
    def test_malformed_tower_fields_exit_two(self, fields, message, tmp_path, capsys):
        doc = generate_example("tower-two-level", 0)
        doc["towers"]["T"].update(fields)
        path = write_scenario(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == 2
        assert main(["run", "--scenario", path]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("sizes", [[True], [2.0], [1, True], 5])
    @pytest.mark.parametrize("where", ["algebras", "tower"])
    def test_non_integer_block_sizes_exit_two(self, sizes, where, tmp_path, capsys):
        """Block sizes follow the rule of ranks and orders: `[true]` is not M1, nor `[2.0]` M2."""
        doc = generate_example("tower-two-level", 0)
        if where == "algebras":
            doc["algebras"]["A"] = sizes
        else:
            doc["towers"]["T"]["algebras"]["q"] = sizes
        path = write_scenario(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == 2
        assert main(["run", "--scenario", path]) == 2
        err = capsys.readouterr().err
        assert "block size" in err and "Traceback" not in err

    @pytest.mark.parametrize("blocks", ["x", 5, None, [1.5], [True, True], [0], [2, "2"]])
    def test_malformed_expected_blocks_exit_two(self, blocks, tmp_path, capsys):
        """`expected_blocks` is a list of positive JSON integers, checked before any task runs."""
        doc = generate_example("z2-swap-crossed", 0)
        doc["tasks"][0]["expected_blocks"] = blocks
        path = write_scenario(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == 2
        assert main(["run", "--scenario", path]) == 2
        err = capsys.readouterr().err
        assert "expected_blocks" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "fields, flags",
        [
            ({"tolerance": float("nan")}, []),
            ({"tolerance": 0}, []),
            ({"tolerance": -1.0}, []),
            ({"tolerance": float("inf")}, []),
            ({"tolerance": True}, []),
            ({}, ["--tolerance", "nan"]),
            ({}, ["--tolerance", "0"]),
            ({}, ["--tolerance", "-1"]),
        ],
    )
    def test_meaningless_tolerance_exit_two(self, fields, flags, tmp_path, capsys):
        doc = generate_example("random-covariant-cp", 0)
        doc.update(fields)
        path = write_scenario(tmp_path, doc)
        assert main(["validate", "--scenario", path, *flags]) == 2
        assert main(["run", "--scenario", path, *flags]) == 2
        err = capsys.readouterr().err
        assert "tolerance must be a finite positive number" in err and "Traceback" not in err

    def test_overflowing_projection_exit_two(self, tmp_path, capsys):
        doc = {
            "schema": "prostar-scenario-v1",
            "algebras": {"C": [1]},
            "modules": {"E": {"algebra": "C", "rank": 1, "projection": [[1e200]]}},
        }
        path = write_scenario(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == 2
        assert "self-adjoint idempotent" in capsys.readouterr().err

    def test_validate_ok(self, tmp_path, capsys):
        path = write_scenario(tmp_path, generate_example("trivial-group", 0))
        assert main(["validate", "--scenario", path]) == 0

    def test_example_to_stdout_deterministic(self, capsys):
        assert main(["example", "random-covariant-cp", "--seed", "42"]) == 0
        first = capsys.readouterr().out
        assert main(["example", "random-covariant-cp", "--seed", "42"]) == 0
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)

    def test_verification_failure_exit_one(self, tmp_path, capsys):
        # non-covariant data for a dilate task: reported as failure, exit 1
        doc = generate_example("z2-m2-dilation", 0)
        doc["representations"]["u"] = {"group": "G", "module": "E", "kind": "trivial"}
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", path])
        assert code == 1

    def test_tower_recipe_runs(self, tmp_path, capsys):
        path = write_scenario(tmp_path, generate_example("tower-two-level", 2))
        code = main(["run", "--scenario", path, "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dilation coherence" in out

    def test_projective_module_tower_literal(self):
        # rank-2 tower over C+C -> C with a rank-deficient top projection
        doc = {
            "schema": "prostar-scenario-v1",
            "towers": {
                "T": {
                    "levels": ["q", "p"],
                    "algebras": {"q": [1], "p": [1, 1]},
                    "maps": {"p>q": [[[1.0, 0.0], [0.0, 0.0]]]},
                    "module_rank": 2,
                    "top_projection": [
                        [[1, 0], [0, 0], [0, 0], [0, 0]],
                        [[0, 0], [1, 0], [0, 0], [0, 0]],
                        [[0, 0], [0, 0], [1, 0], [0, 0]],
                        [[0, 0], [0, 0], [0, 0], [0, 0]],
                    ],
                }
            },
            "tasks": [{"name": "laws", "kind": "tower-check", "tower": "T"}],
        }
        scn = parse_scenario(doc)
        report = run_scenario(scn, jobs=1)
        assert report.outcome == "pass"
        top = scn.towers["T"].module_tower.modules["p"]
        assert top.complex_dim == 3


# Small sizes only: the fuzz test checks shapes, not memory limits.
_NAMES = st.sampled_from(["A", "B", "G", "E", "m2", "c", "z2", "s3", "trivial", "standard"])
_KEYS = st.sampled_from(
    [
        "A", "algebra", "group", "module", "rank", "kind", "preset_group", "projection",
        "cayley", "order", "source", "shorthand", "blocks", "generator", "recipe", "action",
        "representation", "cp_map", "unitaries", "automorphisms", "levels", "algebras",
        "maps", "relations", "module_rank", "tower", "coherence", "name",
    ]
)
_SCALARS = st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-4, 4) | _NAMES
_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_KEYS, kids, max_size=4),
    max_leaves=12,
)
_SECTIONS = (
    "algebras", "groups", "modules", "actions", "representations", "cp_maps", "towers",
)
_SCENARIOS = st.fixed_dictionaries(
    {"schema": st.just("prostar-scenario-v1")},
    optional={
        **{key: _JSON | st.dictionaries(_NAMES, _JSON, max_size=2) for key in _SECTIONS},
        "tasks": _JSON | st.lists(_JSON, max_size=2),
        "tolerance": _JSON,
        "seed": _JSON,
    },
)


@settings(max_examples=300, deadline=None)
@given(doc=_SCENARIOS)
@example(doc={"schema": "prostar-scenario-v1", "tasks": ["x"]})
@example(doc={"schema": "prostar-scenario-v1", "algebras": [1, 2]})
@example(doc={"schema": "prostar-scenario-v1", "algebras": {"A": "m2"}, "modules": {"E": "A"}})
def test_validate_exits_zero_or_two(doc):
    """Whatever the JSON shape, `validate` answers 0 or 2, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["validate", "--scenario", str(path)])
    assert code in (0, 2)
