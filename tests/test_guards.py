"""Library-input guards: a call the library cannot answer raises its typed
error with its message, never a wrong value."""

import pytest

from coincalc.fgab import (
    FgAbError,
    FgAbGroup,
    GroupElement,
    Homomorphism,
    InputError,
    Subgroup,
    int_det,
    kernel_into_coords,
    subgroup_cmp,
)
from coincalc.invariants import projective_report, sphere_report
from coincalc.projective import COMPLEX, REAL, Field, ProjSpace, decompose_valid, space
from coincalc.selfco import KVector, s_zero, sample_unit_vectors, scalar, selfmap_s

Z = FgAbGroup(1)
Z2 = FgAbGroup(0, (2,))

# (id, call on the bundled tables, exception type, message)
GUARDS = [
    # invariants, spheres, projective
    ("sphere-m-0", lambda t: sphere_report(t, 0, 2, t.zero(3, 2), t.zero(3, 2)),
     FgAbError, "sphere targets need m, n >= 1"),
    ("sphere-n-0", lambda t: sphere_report(t, 3, 0, t.zero(3, 2), t.zero(3, 2)),
     FgAbError, "sphere targets need m, n >= 1"),
    ("sphere-int-input", lambda t: sphere_report(t, 3, 2, 5, 5),
     FgAbError, "inputs must be SphereClass values"),
    ("sphere-none-input", lambda t: sphere_report(t, 3, 2, t.zero(3, 2), None),
     FgAbError, "inputs must be SphereClass values"),
    ("sphere-wrong-group", lambda t: sphere_report(t, 3, 2, t.zero(4, 2), t.zero(3, 2)),
     FgAbError, "input class lives in pi_4(S^2), not pi_3(S^2)"),
    ("projective-int-input", lambda t: projective_report(t, space("R", 2), 3, 5, 5),
     FgAbError, "inputs must be SphereClass values"),
    ("projective-none-input", lambda t: projective_report(t, space("R", 2), 3, None, None),
     FgAbError, "inputs must be SphereClass values"),
    ("projective-wrong-group",
     lambda t: projective_report(t, space("R", 2), 3, t.zero(3, 2), t.zero(4, 2)),
     FgAbError, "input class lives in pi_4(S^2), not pi_3(S^2)"),
    ("stabilize-m-below-q", lambda t: t.stabilize(t.zero(2, 3)),
     FgAbError, "stabilization needs m >= q"),
    ("gamma-q-1", lambda t: t.gamma(t.zero(3, 1)),
     FgAbError, "the Hopf-James invariant needs q >= 2"),
    ("gamma-m-below-q", lambda t: t.gamma(t.zero(2, 3)),
     FgAbError, "stabilization needs m >= q"),
    ("kernel-chain-q-1", lambda t: t.kernel_chain(1, 1, "C"),
     FgAbError, "the Hopf-James invariant needs q >= 2"),
    ("class-sum-across-groups", lambda t: t.zero(3, 2) + t.zero(4, 3),
     FgAbError, "classes live in different homotopy groups"),
    ("class-difference-across-groups", lambda t: t.zero(3, 2) - t.zero(4, 3),
     FgAbError, "classes live in different homotopy groups"),
    ("gamma-missing-component", lambda t: t.gamma(t.named("hopfC")).component(5),
     KeyError, "no component k=5"),
    ("decompose-valid-m-1", lambda t: decompose_valid(t, space("C", 1), 1),
     FgAbError, "decomposition is defined for m >= 2"),
    ("space-nprime-bool", lambda t: space("R", True),
     InputError, "n' must be an int, got True"),
    ("space-nprime-float", lambda t: space("R", 2.0),
     InputError, "n' must be an int, got 2.0"),
    ("space-nprime-str", lambda t: space("R", "2"),
     InputError, "n' must be an int, got '2'"),
    ("projspace-nprime-bool", lambda t: ProjSpace(REAL, True),
     InputError, "n' must be an int, got True"),
    ("field-C-d-4", lambda t: Field("C", 4),
     FgAbError, "bad field (C, d=4)"),
    ("field-unknown-tag", lambda t: Field("O", 8),
     FgAbError, "bad field (O, d=8)"),
    # selfco
    ("scalar-components", lambda t: scalar(COMPLEX, 1),
     ValueError, "C scalars have 2 components"),
    ("kvector-entry-length", lambda t: KVector(COMPLEX, (scalar(REAL, 1),)),
     ValueError, "entry with the wrong number of components"),
    ("selfmap-at-zero", lambda t: selfmap_s(KVector(REAL, (s_zero(REAL),) * 2)),
     ValueError, "selfmap is defined on the unit sphere, not at 0"),
    ("sample-nprime-0", lambda t: sample_unit_vectors("C", 0, 1),
     InputError, "n' must be >= 1"),
    # fgab
    ("det-non-square", lambda t: int_det([[1, 2]]),
     FgAbError, "determinant of non-square matrix"),
    ("element-length", lambda t: GroupElement(Z, (1, 2)),
     FgAbError, "coefficient vector of length 2 for group of rank 1"),
    ("hom-shape", lambda t: Homomorphism(Z, Z, ((1, 2),)),
     FgAbError, "matrix of shape 1x2 for map rank 1 -> rank 1"),
    ("hom-column-count", lambda t: Homomorphism.from_columns(Z, Z, ()),
     FgAbError, "one image column required per domain generator"),
    ("hom-apply-domain", lambda t: Homomorphism(Z, Z, ((1,),)).apply(Z2.element((1,))),
     FgAbError, "argument not in the domain of this homomorphism"),
    ("subgroup-generator-ambient", lambda t: Subgroup(Z, (Z2.element((1,)),)),
     FgAbError, "subgroup generator outside the ambient group"),
    ("contains-ambient", lambda t: Subgroup.whole(Z).contains(Z2.zero()),
     FgAbError, "membership test against a different ambient group"),
    ("contains-subgroup-ambient",
     lambda t: Subgroup.whole(Z).contains_subgroup(Subgroup.whole(Z2)),
     FgAbError, "subgroup comparison across ambient groups"),
    ("subgroup-cmp-ambient", lambda t: subgroup_cmp(Subgroup.whole(Z), Subgroup.whole(Z2)),
     FgAbError, "subgroup comparison across ambient groups"),
    ("elements-infinite", lambda t: list(Z.elements()),
     FgAbError, "cannot enumerate an infinite group"),
    ("enumerate-infinite", lambda t: Subgroup.whole(Z).enumerate(),
     FgAbError, "cannot enumerate a subgroup of an infinite group"),
    ("kernel-coord-orders", lambda t: kernel_into_coords(Z, [[1]], (0, 0)),
     FgAbError, "one coordinate order per matrix row required"),
    ("kernel-width", lambda t: kernel_into_coords(Z, [[1, 2]], (0,)),
     FgAbError, "matrix width must match domain rank"),
]


@pytest.mark.parametrize("call, error, message", [g[1:] for g in GUARDS],
                         ids=[g[0] for g in GUARDS])
def test_guard_and_message(tables, call, error, message):
    with pytest.raises(error) as err:
        call(tables)
    assert type(err.value) is error and err.value.args == (message,)
