"""Frozen objects, read-only arrays, and checks computed once.

A cache is sound only if its inputs cannot change. *-homomorphisms, group
actions, modules, towers and the dilation's core and Gram data are frozen;
every array they hold or cache is read-only; and the residuals of a
*-homomorphism and of a tower are computed once and read at any tol.
"""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from prostar import linalg
from prostar import tower as tower_layer
from prostar.algebra import FiniteCStarAlgebra, StarHomomorphism, verify_star_homomorphism
from prostar.cli import main
from prostar.crossed import build_crossed_product
from prostar.dilation import gram_operator, minimal_dilation
from prostar.examples_gen import generate_example
from prostar.modules import HilbertModule
from prostar.recipes import dilation_instance, standard_action
from prostar.tower import AlgebraTower, ModuleTower

M2 = FiniteCStarAlgebra((2,))
M3 = FiniteCStarAlgebra((3,))


def _tower():
    b3, b2 = FiniteCStarAlgebra((2, 1, 1)), FiniteCStarAlgebra((2, 1))
    return AlgebraTower.from_covers(
        {"r": FiniteCStarAlgebra((2,)), "q": b2, "p": b3},
        [("r", "q"), ("q", "p")],
        {
            ("q", "r"): StarHomomorphism.block_projection(b2, [0]),
            ("p", "q"): StarHomomorphism.block_projection(b3, [0, 1]),
        },
    )


def _core():
    rho, _, _ = dilation_instance("m2", "c", 2, "z2", seed=3)
    return minimal_dilation(rho)


def test_callers_matrix_is_not_held():
    """A complex128 matrix is not copied by `as_complex_matrix`; the homomorphism
    freezes a copy, so writing into the caller's buffer changes nothing."""
    matrix = np.eye(4, dtype=np.complex128)
    hom = StarHomomorphism(M2, M2, matrix)
    before = verify_star_homomorphism(hom)
    matrix[0, 0] = 5.0
    assert hom.action_matrix[0, 0] == 1.0
    assert verify_star_homomorphism(hom) == before
    assert before.passed


FROZEN = {
    "StarHomomorphism": (lambda: StarHomomorphism.identity(M2), "action_matrix"),
    "GroupAction": (lambda: standard_action("z2", M2), "automorphisms"),
    "HilbertModule": (lambda: HilbertModule.free(M2, 1), "projection_flat"),
    "AlgebraTower": (_tower, "connecting"),
    "ModuleTower": (lambda: ModuleTower.of_free_modules(_tower(), 1), "modules"),
    "DilationCore": (_core, "module"),
    "GramData": (lambda: gram_operator(dilation_instance("m2", "c", 1, "z2", seed=3)[0]), "scalar"),
}


@pytest.mark.parametrize("name", list(FROZEN))
def test_attribute_assignment_raises(name):
    build, attribute = FROZEN[name]
    obj = build()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, attribute, getattr(obj, attribute))


def test_tower_maps_are_read_only():
    tower = _tower()
    mt = ModuleTower.of_free_modules(tower, 1)
    with pytest.raises(TypeError):
        tower.connecting[("p", "r")] = tower.connecting[("p", "q")]
    with pytest.raises(TypeError):
        tower.algebras["p"] = M2
    with pytest.raises(TypeError):
        mt.modules["p"] = mt.modules["q"]


HELD_ARRAYS = {
    "action matrix": lambda: StarHomomorphism.identity(M2).action_matrix,
    "transfer matrix": lambda: StarHomomorphism.identity(M2)._transfer_matrix,
    "action tensor": lambda: standard_action("z3", M3)._action_tensor,
    "matrix units": lambda: build_crossed_product(standard_action("z2", M2)).wedderburn.matrix_units,
    "coordinate map": lambda: _core()._coord_map,
    "class embedding": lambda: _core()._class_embed,
    "square root": lambda: _core()._sqrt_flat,
    "coordinate extraction": lambda: _core()._coord_extract,
    "module basis": lambda: _core().module.basis_flats[0],
}


@pytest.mark.parametrize("name", list(HELD_ARRAYS))
def test_held_arrays_are_read_only(name):
    array = HELD_ARRAYS[name]()
    assert array.size > 0
    with pytest.raises(ValueError, match="read-only"):
        array[...] = 0.0


def test_action_tensor_is_stacked_once():
    action = standard_action("s3", M3)
    assert action._action_tensor is action._action_tensor


def test_homomorphism_checks_are_computed_once(monkeypatch):
    """Reports at three tols and `is_bijective` form the bound, the rank and
    (below the bound) the all-pairs residual once each."""
    calls = Counter()
    for name in ("matrix_unit_bound", "max_product_residual", "matrix_rank"):
        original = getattr(linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(linalg, name, counted)
    unitary, _ = np.linalg.qr(linalg.random_complex(np.random.default_rng(5), 3, 3))
    hom = StarHomomorphism.conjugation_by(M3, [unitary])
    bound = hom._homomorphism_data[0]
    assert 0.0 < bound
    reports = [verify_star_homomorphism(hom, tol) for tol in (1e-6, bound / 2, bound / 4)]
    assert hom.is_bijective()
    assert calls == {"matrix_unit_bound": 1, "max_product_residual": 1, "matrix_rank": 1}
    assert reports[0].check("multiplicative").residual == bound
    assert reports[1].check("multiplicative").residual == hom._exact_multiplicative
    assert all(r.check("surjective").passed for r in reports)


def test_tower_recipe_checks_each_tower_once(tmp_path, monkeypatch):
    """One run of `tower-two-level` (a tower check, then the dilation coherence
    whose precondition verifies both towers again) computes each tower's
    residuals once: 7 entrywise pushes (3 for the module tower's checks, 2
    to carry rho and u down, 1 for the class map and 1 for the Gram square)
    and one poset check."""
    calls = Counter()
    push, poset_verify = tower_layer._push_entrywise, tower_layer.DirectedPoset.verify

    def counted_push(*args):
        calls["push"] += 1
        return push(*args)

    def counted_poset(self):
        calls["poset"] += 1
        return poset_verify(self)

    monkeypatch.setattr(tower_layer, "_push_entrywise", counted_push)
    monkeypatch.setattr(tower_layer.DirectedPoset, "verify", counted_poset)
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(generate_example("tower-two-level", 1)), encoding="utf-8")
    assert main(["run", "--scenario", str(path), "--output", str(tmp_path / "report")]) == 0
    assert calls == {"push": 7, "poset": 1}
