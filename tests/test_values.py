"""Value semantics of the package's record classes, and what importing costs.

Every value class compares equal only to an instance of its own class with
equal fields, hashes consistently with that equality, prints as
`Name(field=value, ...)`, and is frozen unless it is one of the four result
records that callers fill in (Report, ScanResult, WeckenAnswer,
ValidationReport), which are mutable and unhashable.
"""

import ast
import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from coincalc import (
    COMPLEX,
    REAL,
    FgAbGroup,
    Field,
    GammaValue,
    GroupElement,
    Homomorphism,
    InvariantValue,
    KVector,
    Looseness,
    ProjSpace,
    Report,
    ScanResult,
    ScanVerdict,
    SphereClass,
    StableElement,
    Subgroup,
    TableSet,
    Unknown,
    ValidationReport,
    Verdict,
    WeckenAnswer,
    WeckenStatus,
)
from coincalc.spheres import Violation
from coincalc.tables import GenAnnotations, NamedClass, ProductEntry, SphereEntry, StemEntry

Z = FgAbGroup(1)
Z2 = FgAbGroup(0, (2,))
Z4 = FgAbGroup(0, (4,))
G = FgAbGroup(1, (2, 4))

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _report(n_sharp):
    one = InvariantValue("finite", 1)
    return Report("S^3", 3, 3, "f1 vs f2", one, one, one, InvariantValue("finite", n_sharp),
                  one, one, one, ["note"], ["step"])


# name -> (field names in repr order, a factory called with a flag: False
# builds the reference value, True an unequal one).  Two calls with False
# build two distinct but equal instances.
VALUES = {
    "FgAbGroup": (("free_rank", "torsion"),
                  lambda other: FgAbGroup(1, [2] if other else [2, 4])),
    "GroupElement": (("group", "coeffs"),
                     lambda other: GroupElement(G, (0, 1, 1) if other else (1, -1, 9))),
    "Homomorphism": (("domain", "codomain", "matrix"),
                     lambda other: Homomorphism(Z4, Z2, ((0,),) if other else ((1,),))),
    "Subgroup": (("ambient", "generators_", "basis"),
                 lambda other: Subgroup(Z, (Z.element([1]),) if other
                                        else (Z.element([4]), Z.element([6])))),
    "GenAnnotations": (("susp", "stab", "gammas", "antip", "source"),
                       lambda other: GenAnnotations(susp=(1,), stab=(1,), gammas=((2, (1,)),),
                                                    source="b" if other else "a")),
    "SphereEntry": (("m", "q", "group", "gen_names", "annotations", "source"),
                    lambda other: SphereEntry(3, 2, Z, ("eta2",), (GenAnnotations(),),
                                              "closed form" if other else "src")),
    "StemEntry": (("degree", "group", "gen_names", "source"),
                  lambda other: StemEntry(1, Z2, ("eta",), "other" if other else "src")),
    "ProductEntry": (("degree", "coeffs"),
                     lambda other: ProductEntry(2, (0,) if other else (1,))),
    "NamedClass": (("m", "q", "coeffs", "source"),
                   lambda other: NamedClass(3, 2, (2,) if other else (1,), "src")),
    "TableSet": (("entries", "stems", "products", "named", "stem_gen_degrees"),
                 lambda other: TableSet(named={"x": NamedClass(3, 2, (1,))} if other else {})),
    "Unknown": (("reason", "cause"), lambda other: Unknown("gap b" if other else "gap a")),
    "StableElement": (("degree", "value"),
                      lambda other: StableElement(1, Z2.element([0 if other else 1]))),
    "SphereClass": (("m", "q", "value"),
                    lambda other: SphereClass(3, 2, Z.element([2 if other else 1]))),
    "GammaValue": (("m", "q", "components"),
                   lambda other: GammaValue(3, 2, ((1, Unknown("gap") if other
                                                    else StableElement(1, Z2.element([1]))),))),
    "Violation": (("path", "message"),
                  lambda other: Violation("pi_3(S^2)", "b" if other else "a")),
    "ValidationReport": (("violations",),
                         lambda other: ValidationReport([] if other else [Violation("p", "m")])),
    "Field": (("tag", "d"), lambda other: Field("R", 1) if other else Field("C", 2)),
    "ProjSpace": (("field", "n_prime"), lambda other: ProjSpace(COMPLEX, 2 if other else 1)),
    "Looseness": (("verdict", "reason"),
                  lambda other: Looseness(Verdict.UNKNOWN if other else Verdict.LOOSE, "why")),
    "KVector": (("field", "entries"),
                lambda other: KVector(REAL, ((Fraction(1),), (Fraction(1 if other else 0),)))),
    "InvariantValue": (("kind", "value", "reason"),
                       lambda other: InvariantValue("finite", 2 if other else 1)),
    "Report": (("target", "m", "n", "inputs", "R", "MC", "MCC", "N_sharp", "N_tilde",
                "N_plain", "N_z", "hypothesis_notes", "derivation", "non_wecken"),
               lambda other: _report(0 if other else 1)),
    "ScanResult": (("target", "m", "n", "verdicts", "nz_vanishes"),
                   lambda other: ScanResult("CP(1)", 3, 2, {"k": (ScanVerdict.HOLDS, "w")},
                                            None if other else True)),
    "WeckenAnswer": (("status", "reason", "witness"),
                     lambda other: WeckenAnswer(WeckenStatus.HOLDS, "why",
                                                _report(1) if other else None)),
}
MUTABLE = {"Report", "ScanResult", "WeckenAnswer", "ValidationReport"}
UNHASHABLE_FIELDS = {"TableSet"}  # frozen, but its fields are dicts


def test_every_value_class_is_listed():
    assert len(VALUES) == 24 and MUTABLE <= set(VALUES)
    for name, (_fields, make) in VALUES.items():
        assert type(make(False)).__name__ == name


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equality_and_hash(name):
    fields, make = VALUES[name]
    a, b, c = make(False), make(False), make(True)
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    twin = type("Twin", (type(a),), {})(*(getattr(a, f) for f in fields if f != "basis"))
    assert not a == twin and not twin == a and a != twin
    assert a.__eq__(twin) is NotImplemented
    if name in MUTABLE or name in UNHASHABLE_FIELDS:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_repr_is_name_and_fields(name):
    fields, make = VALUES[name]
    a = make(False)
    body = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
    assert repr(a) == f"{name}({body})"
    if type(a).__str__ is object.__str__:
        assert str(a) == repr(a)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_frozen_unless_mutable(name):
    fields, make = VALUES[name]
    a, other = make(False), make(True)
    for f in fields:
        if name in MUTABLE:
            setattr(a, f, getattr(other, f))
            assert getattr(a, f) is getattr(other, f)
            continue
        before = getattr(a, f)
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(other, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
        assert getattr(a, f) is before
    if name in MUTABLE:
        assert a == other


@pytest.mark.parametrize("name", sorted(VALUES))
def test_copy_and_pickle(name):
    fields, make = VALUES[name]
    a = make(False)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and repr(b) == repr(a)
    assert all(getattr(copy.copy(a), f) is getattr(a, f) for f in fields)


def test_subgroup_basis_stays_out_of_equality():
    a = Subgroup(G, (G.element([2, 1, 0]),))
    b = Subgroup(G, (G.element([2, 1, 0]), G.element([4, 0, 0])))
    assert a == b and hash(a) == hash(b) and a.basis == b.basis
    object.__setattr__(b, "basis", ())  # past the frozen guard: basis is not compared
    assert a == b and hash(a) == hash(b)


def test_defaults_are_fresh_containers():
    one, two = TableSet(), TableSet()
    for f in VALUES["TableSet"][0]:
        assert getattr(one, f) == {} and getattr(one, f) is not getattr(two, f)
    r1, r2 = (Report("S^1", 1, 1, "", *[InvariantValue("finite", 0)] * 7) for _ in range(2))
    assert r1.hypothesis_notes == [] and r1.hypothesis_notes is not r2.hypothesis_notes
    assert r1.derivation == [] and r1.derivation is not r2.derivation


def test_cli_import_generates_no_code():
    """Importing the CLI loads neither dataclasses nor inspect.

    `importlib.resources`, which the package uses to read its bundled table,
    itself imports inspect from Python 3.12 on, so what it loads is taken as
    the baseline."""
    code = (
        "import sys, importlib.resources\n"
        "before = set(sys.modules)\n"
        "import coincalc.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_cli_import_defers_rationals_json_and_random():
    """`import coincalc.cli` loads none of fractions (with decimal and
    numbers), json or random; verify-s and --machine load them when used.

    `-S` keeps `site` and whatever it imports out of the measurement."""
    code = (
        "import contextlib, io, sys\n"
        "deferred = {'fractions', 'decimal', 'numbers', 'json', 'random'}\n"
        "import coincalc.cli\n"
        "print(sorted(deferred & set(sys.modules)))\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = coincalc.cli.main(['verify-s', '--field', 'C', '--samples', '3'])\n"
        "print(code, sorted(deferred - set(sys.modules)))\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = coincalc.cli.main(['wecken', '--field', 'R', '--nprime', '2',\n"
        "                              '--m', '3', '--machine'])\n"
        "print(code, sorted(deferred - set(sys.modules)))\n"
        "print(out.getvalue(), end='')\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.splitlines()
    assert out[:3] == ["[]", "0 ['json']", "0 []"]
    assert "all residuals positive" in out[3]
    assert out[4] == "{"


def test_no_assert_statements_in_the_package():
    """A check in `src/coincalc` must hold under `python -O` too."""
    pkg = os.path.join(SRC, "coincalc")
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


def test_every_definition_is_used_outside_the_tests():
    """Every function and class defined in `src/coincalc`, dunders exempt,
    appears as a name or attribute in the package (its own definition and
    the `__init__` re-exports do not count), in `perfbench/` or in
    `tests/test_acceptance.py`; a definition only other tests call has no
    place in the package.

    The match is by name alone, so it cannot tell two definitions that share
    one apart: a spare `StableRing.zero` passes while `SphereTables.zero`
    is in use.  Such collisions, the dunders (`__add__`, `__str__`, ...)
    and unread fields need a call trace over the non-test entry points
    instead: `sys.setprofile` over every operation of the benchmark
    catalogues and the CLI, acceptance and golden tests, listing each
    function of the package that no call reaches."""
    root = os.path.dirname(SRC)
    pkg = os.path.join(SRC, "coincalc")
    users = [os.path.join(root, "tests", "test_acceptance.py")]
    for top in (pkg, os.path.join(root, "perfbench")):
        users += [os.path.join(top, n) for n in sorted(os.listdir(top)) if n.endswith(".py")]
    used, defined = set(), []
    for path in users:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif path.startswith(pkg) and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not (node.name.startswith("__") and node.name.endswith("__")):
                defined.append(node.name)
    assert sorted(set(defined) - used) == []
