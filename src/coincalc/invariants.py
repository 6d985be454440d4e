"""The decision core: Reidemeister, minimum and Nielsen numbers.

Sphere and projective targets decide MCC and the four Nielsen numbers by the
same ladder of vanishing criteria on a difference class (the class itself,
its total Hopf-James invariant, the Hopf-multiplied stable image, and the
top-degree obstruction), each worth 0 or a weight: 1 on a sphere, the full
Reidemeister number on KP(n'), where the difference is of lifts.  Every report
carries its derivation.  A report's inputs, each derivation step that names a
value and each decided scan witness is a Text, a template kept with the
values it names; render(), to_dict() and str() format it, so computing a
value formats none.  The tests, not the reports, run dichotomy_check on
the {0, R} dichotomy, which projective_report meets by construction, and
chain_check on the monotone chain MC >= MCC >= N# >= N~ >= N >= NZ >= 0.
"""

from __future__ import annotations

import enum
from typing import Optional, Union

from .fgab import FgAbError, InputError, _Value, _require_int, _setattr
from .projective import ProjSpace, decompose_valid, parse_field, space
from .selfco import Looseness, Verdict, _congruence_ok, self_loose
from .spheres import SphereClass, SphereTables
from .stable import StableElement, Unknown

FINITE, INFINITE_KIND, UNKNOWN_KIND = "finite", "infinite", "unknown"


class InvariantValue(_Value):
    """A computed invariant: a number, infinity, or an honest Unknown (reason)."""

    __slots__ = ("kind", "value", "reason")

    def __init__(self, kind: str, value: int = 0, reason: Optional[Unknown] = None):
        _setattr(self, "kind", kind)
        _setattr(self, "value", value)
        _setattr(self, "reason", reason)

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    @property
    def is_unknown(self) -> bool:
        return self.kind == UNKNOWN_KIND

    def __str__(self) -> str:
        if self.kind == FINITE:
            return str(self.value)
        if self.kind == INFINITE_KIND:
            return "infinite"
        return f"unknown ({self.reason})"

    def short(self) -> str:
        if self.kind == FINITE:
            return str(self.value)
        return "inf" if self.kind == INFINITE_KIND else "?"


class Text(tuple):
    """One line of text kept as (template, *values): str() formats the values
    into the template's {} fields.  Building one formats nothing; equal
    templates with equal values are equal."""

    __slots__ = ()

    def __str__(self) -> str:
        return self[0].format(*self[1:])


# The values are frozen, so the small ones every report uses are shared.
_SMALL = tuple(InvariantValue(FINITE, k) for k in range(3))


def fin(k: int) -> InvariantValue:
    return _SMALL[k] if 0 <= k < 3 else InvariantValue(FINITE, k)


INF = InvariantValue(INFINITE_KIND)


def unk(reason: Unknown) -> InvariantValue:
    return InvariantValue(UNKNOWN_KIND, 0, reason)


VALUE_ORDER = ("MC", "MCC", "N_sharp", "N_tilde", "N_plain", "N_z")


class Report(_Value, frozen=False):
    """The invariant bundle for one pair of maps; non_wecken is read from MCC and N#."""

    __slots__ = (
        "target", "m", "n", "inputs", "R", "MC", "MCC", "N_sharp", "N_tilde",
        "N_plain", "N_z", "hypothesis_notes", "derivation",
    )

    def __init__(
        self, target: str, m: int, n: int, inputs: Union[str, Text], R: InvariantValue,
        MC: InvariantValue, MCC: InvariantValue, N_sharp: InvariantValue,
        N_tilde: InvariantValue, N_plain: InvariantValue, N_z: InvariantValue,
        hypothesis_notes: Optional[list[str]] = None,
        derivation: Optional[list[Union[str, Text]]] = None,
    ):
        self.target = target
        self.m = m
        self.n = n
        self.inputs = inputs
        self.R = R
        self.MC = MC
        self.MCC = MCC
        self.N_sharp = N_sharp
        self.N_tilde = N_tilde
        self.N_plain = N_plain
        self.N_z = N_z
        self.hypothesis_notes = [] if hypothesis_notes is None else hypothesis_notes
        self.derivation = [] if derivation is None else derivation

    @property
    def non_wecken(self) -> bool:
        """MCC and N# are both decided and differ: the Wecken property fails."""
        return not (self.MCC.is_unknown or self.N_sharp.is_unknown) and self.MCC != self.N_sharp

    def values(self) -> dict[str, InvariantValue]:
        return {
            "R": self.R,
            "MC": self.MC,
            "MCC": self.MCC,
            "N_sharp": self.N_sharp,
            "N_tilde": self.N_tilde,
            "N_plain": self.N_plain,
            "N_z": self.N_z,
        }

    def to_dict(self) -> dict:
        def enc(v: InvariantValue):
            if v.kind == FINITE:
                return v.value
            if v.kind == INFINITE_KIND:
                return "infinite"
            return {"unknown": str(v.reason)}

        return {
            "target": self.target,
            "m": self.m,
            "n": self.n,
            "inputs": str(self.inputs),
            "values": {k: enc(v) for k, v in self.values().items()},
            "non_wecken": self.non_wecken,
            "hypothesis_notes": list(self.hypothesis_notes),
            "derivation": list(map(str, self.derivation)),
        }

    def render(self) -> str:
        lines = [f"target {self.target}, m = {self.m}, inputs: {self.inputs}"]
        names = {
            "R": "R", "MC": "MC", "MCC": "MCC", "N_sharp": "N#",
            "N_tilde": "N~", "N_plain": "N", "N_z": "NZ",
        }
        for key, v in self.values().items():
            lines.append(f"  {names[key]:>3} = {v}")
        if self.non_wecken:
            lines.append("  non-Wecken: MCC differs from N#")
        for note in self.hypothesis_notes:
            lines.append(f"  note: {note}")
        for step in self.derivation:
            lines.append(f"  via: {step}")
        return "\n".join(lines)


def _ge(a: InvariantValue, b: InvariantValue) -> Optional[bool]:
    """a >= b when both are determined, else None."""
    if a.is_unknown or b.is_unknown:
        return None
    if a.kind == INFINITE_KIND:
        return True
    if b.kind == INFINITE_KIND:
        return False
    return a.value >= b.value


def chain_check(report: Report) -> tuple[bool, list[str]]:
    """Verify the monotone chain and the Reidemeister bound on a report."""
    violations: list[str] = []
    ordered = [(name, getattr(report, name)) for name in VALUE_ORDER]
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            ge = _ge(ordered[i][1], ordered[j][1])
            if ge is False:
                violations.append(
                    f"{ordered[i][0]} = {ordered[i][1]} < {ordered[j][0]} = "
                    f"{ordered[j][1]}"
                )
    last = ordered[-1][1]
    if last.is_finite and last.value < 0:
        violations.append("negative invariant")
    if _ge(report.R, report.MCC) is False:
        violations.append(f"MCC = {report.MCC} exceeds R = {report.R}")
    return (not violations, violations)


def dichotomy_check(report: Report, r_n: int) -> list[str]:
    """MCC and the Nielsen numbers may only take the values 0 and R."""
    bad = []
    for name in ("MCC", "N_sharp", "N_tilde", "N_plain", "N_z"):
        v = getattr(report, name)
        if v.is_finite and v.value not in (0, r_n):
            bad.append(f"{name} = {v.value} not in {{0, {r_n}}}")
    return bad


def _criteria(
    tables: SphereTables,
    delta: SphereClass,
    top: bool,
    weight: int,
    hopf: Union[StableElement, Unknown, None],
    labels: tuple[str, str],
    deriv: list[Union[str, Text]],
) -> tuple[InvariantValue, InvariantValue, InvariantValue, InvariantValue]:
    """(MCC = N#, N~, N, NZ) from the vanishing tests on delta.

    Each number is 0 when its test vanishes and weight otherwise: delta for
    MCC and N#, Gamma(delta) for N~, hopf . E^inf(delta) for N (hopf is h_K or
    its Unknown on KP(n'); None on a sphere, where N reads E^inf(delta)), and
    delta again for NZ, in the top degree only (NZ = 0 elsewhere).  labels are
    the templates of the derivation lines of the Gamma and the N test.
    """

    def worth(vanishes: bool) -> InvariantValue:
        return fin(0 if vanishes else weight)

    mcc = worth(delta.is_zero)
    n_z = mcc if top else fin(0)
    if delta.is_zero:
        return mcc, mcc, mcc, n_z
    gamma = tables.gamma(delta)
    zero = gamma.is_zero()
    deriv.append(Text((labels[0], gamma)))
    n_tilde = worth(zero) if isinstance(zero, bool) else unk(
        Unknown(f"Gamma undetermined: {gamma}", zero))
    image = gamma.component(1)
    if hopf is not None and not isinstance(image, Unknown):
        image = hopf if isinstance(hopf, Unknown) else tables.ring.multiply(hopf, image)
    if isinstance(image, Unknown):
        return mcc, n_tilde, unk(image), n_z
    deriv.append(Text((labels[1], image)))
    return mcc, n_tilde, worth(image.is_zero), n_z


# The templates of the Gamma and the N test lines: on a sphere, and on KP(n')
# for each field.
_SPHERE_LABELS = ("Gamma(delta): {}", "E^inf(delta) = {}")
_PROJECTIVE_LABELS = {
    tag: ("Hopf-James test (N~): Gamma(delta): {}",
          f"stable Hopf product test (N): h_{tag} . E^inf(delta) = {{}}")
    for tag in ("R", "C", "H")
}


def _as_class(m: int, q: int, f) -> SphereClass:
    """The input itself, once checked to be a class in pi_m(S^q)."""
    if not isinstance(f, SphereClass):
        raise FgAbError("inputs must be SphereClass values")
    if (f.m, f.q) != (m, q):
        raise FgAbError(f"input class lives in pi_{f.m}(S^{f.q}), not pi_{m}(S^{q})")
    return f


def sphere_report(
    tables: SphereTables,
    m: int,
    n: int,
    f1: SphereClass,
    f2: SphereClass,
) -> Report:
    """Minimum and Nielsen numbers for a pair of maps S^m -> S^n."""
    _require_int(m, "m")
    _require_int(n, "n")
    if m < 1 or n < 1:
        raise FgAbError("sphere targets need m, n >= 1")
    f1, f2 = _as_class(m, n, f1), _as_class(m, n, f2)
    notes: list[str] = []
    deriv: list[Union[str, Text]] = []
    target = f"S^{n}"
    inputs = Text(("f1 = {}, f2 = {}", f1.value, f2.value))

    if m == 1 and n == 1:
        d1, d2 = f1.value.coeffs[0], f2.value.coeffs[0]
        k = abs(d1 - d2)
        deriv.append(
            Text(("circle self maps of degrees {} and {}: all numbers |d1 - d2|", d1, d2)))
        rr = fin(k) if k else INF
        val = fin(k)
        return Report(target, m, n, inputs, rr, val, val, val, val, val, val, notes, deriv)

    if n == 1:
        notes.append("target S^1 with m >= 2: every minimum and Nielsen number vanishes")
        z = fin(0)
        return Report(target, m, n, inputs, INF, z, z, z, z, z, z, notes, deriv)

    r = fin(1)
    if m == 1:
        z = fin(0)
        notes.append("m = 1 with a simply connected target: everything vanishes")
        return Report(target, m, n, inputs, r, z, z, z, z, z, z, notes, deriv)

    af2 = tables.antipodal_compose(f2)
    if isinstance(af2, Unknown):
        u = unk(af2)
        return Report(target, m, n, inputs, r, u, u, u, u, u, u, notes, deriv)
    delta = f1 - af2
    deriv.append(Text(("delta = [f1] - [a . f2] = {} in pi_{}(S^{})", delta.value, m, n)))
    mcc, n_tilde, n_plain, n_z = _criteria(tables, delta, m == n, 1, None, _SPHERE_LABELS, deriv)
    if m == n:
        notes.append("m = n: all six numbers agree (classical self-coincidence count)")

    if delta.is_zero:
        mc: InvariantValue = fin(0)
    else:
        member = tables.suspension_image_contains(m, n, delta)
        if member is True:
            answer, mc = "yes", fin(1)
        elif member is False:
            answer, mc = "no", INF if m > n else fin(1)
        else:
            why = Unknown("suspension image membership undetermined", member)
            answer, mc = "unknown", unk(why)
        deriv.append(Text(("delta in E(pi_{}(S^{}))? {}", m - 1, n - 1, answer)))
    return Report(
        target, m, n, inputs, r, mc, mcc, mcc, n_tilde, n_plain, n_z, notes, deriv
    )


CIRCLE, M_ONE, SPHERE, LIFT = "circle", "m = 1", "sphere", "lift"


def route(tables: SphereTables, sp: ProjSpace, m: int) -> tuple[str, Optional[Looseness]]:
    """How reports, scans and the CLI answer maps S^m -> KP(n'), with the
    self_loose verdict on the LIFT route (None on the others).

    CIRCLE: RP(1) is the circle.  M_ONE: m = 1.  SPHERE: KP(1) = S^n has no
    lift decomposition at m; classes live in pi_m(S^n).  LIFT: classes are
    lifts in pi_m(S^q); the lift criteria apply where the verdict is LOOSE.
    """
    if m < 1:
        raise InputError("m >= 1 required")
    if sp.n == 1:
        return CIRCLE, None
    if m == 1:
        return M_ONE, None
    if not decompose_valid(tables, sp, m):
        return SPHERE, None
    return LIFT, self_loose(sp.field, m, sp.n_prime)


_MC_SPHERES_ONLY = unk(Unknown("MC is determined by these tables only for sphere targets"))


def projective_report(
    tables: SphereTables,
    sp: ProjSpace,
    m: int,
    f1,
    f2,
    assume_self_loose: bool = False,
) -> Report:
    """Minimum and Nielsen numbers for a pair of maps S^m -> KP(n').

    Inputs are lift classes in pi_m(S^q); the correction class is not
    modelled, because the numbers depend on the lift difference alone.  On
    route()'s sphere route they are classes of pi_m(S^n) = pi_m(KP(1)), and
    the sphere closed forms take over.
    """
    if m < 2:
        raise FgAbError("projective reports need a simply connected domain, m >= 2")
    notes: list[str] = []
    deriv: list[Union[str, Text]] = []
    n, q = sp.n, sp.q
    way, loose = route(tables, sp, m)

    if way is CIRCLE:
        z = fin(0)
        notes.append(f"{sp.name} is the circle: all numbers vanish for m >= 2")
        return Report(sp.name, m, n, "any pair", fin(sp.reidemeister), z, z, z, z, z, z,
                      notes, deriv)

    if way is SPHERE:
        rep = sphere_report(tables, m, n, f1, f2)
        rep.target = f"{sp.name} = S^{n}"
        rep.hypothesis_notes.append(
            f"{sp.name} is the sphere S^{n}; sphere closed forms used "
            f"(no lift decomposition at m = {m})"
        )
        return rep

    lift1, lift2 = _as_class(m, q, f1), _as_class(m, q, f2)
    inputs = Text(("lift1 = {}, lift2 = {} in pi_{}(S^{})", lift1.value, lift2.value, m, q))
    r_n = sp.reidemeister
    r = fin(r_n)

    both_trivial = lift1.is_zero and lift2.is_zero
    if both_trivial:
        notes.append("both classes are trivial: a pair of nullhomotopic maps is loose")
    elif loose.verdict is Verdict.LOOSE:
        notes.append(f"self-coincidence hypothesis holds: {loose.reason}")
    elif assume_self_loose:
        notes.append(
            "self-coincidence looseness ASSUMED by caller; not guaranteed by "
            f"the congruence criteria ({loose.reason})"
        )
    else:
        cause = loose.reason
        u = unk(Unknown(f"looseness of (f1, f1) not established: {cause}", cause))
        notes.append("criteria withheld; pass assume_self_loose to override")
        return Report(sp.name, m, n, inputs, r, u, u, u, u, u, u, notes, deriv)

    delta = lift1 - lift2
    deriv.append(Text(("delta = lift1 - lift2 = {} in pi_{}(S^{})", delta.value, m, q)))
    if delta.is_zero:
        deriv.append("difference test: delta zero -> MCC = N# = 0")
    else:
        deriv.append(Text(("difference test: delta nonzero -> MCC = N# = {}", r_n)))
    tag = sp.field.tag
    top = m == n
    mcc, n_tilde, n_plain, n_z = _criteria(
        tables, delta, top, r_n, tables.ring.hopf_stable(tag), _PROJECTIVE_LABELS[tag], deriv
    )
    deriv.append(Text(("top-degree test: m {} n -> NZ = {}", "=" if top else "!=", n_z)))

    if mcc.value == 0:
        mc: InvariantValue = fin(0)
    elif sp.n_prime == 1 and sp.field.tag == "C":
        # CP(1) = S^2 with m >= 3: the class is never a suspension from S^1.
        mc = INF
        deriv.append(
            "MC: the lift class corresponds to a nonzero class of pi_m(S^2), "
            "and E(pi_{m-1}(S^1)) = 0, so MC is infinite"
        )
    else:
        mc = _MC_SPHERES_ONLY

    return Report(
        sp.name, m, n, inputs, r, mc, mcc, mcc, n_tilde, n_plain, n_z, notes, deriv
    )


# ----------------------------------------------------------- equivalence scan


class ScanVerdict(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


SCAN_KEYS = ("nsharp_eq_ntilde", "ntilde_eq_n", "n_eq_zero", "n_eq_nz")


class ScanResult(_Value, frozen=False):
    """Which of the pointwise identities hold for every pair at this m."""

    __slots__ = ("target", "m", "n", "verdicts", "nz_vanishes")

    def __init__(
        self, target: str, m: int, n: int,
        verdicts: dict[str, tuple[ScanVerdict, Union[str, Text, Unknown]]],
        nz_vanishes: Optional[bool],  # is NZ == 0 for every pair?
    ):
        self.target = target
        self.m = m
        self.n = n
        self.verdicts = verdicts
        self.nz_vanishes = nz_vanishes

    def relation(self, key: str) -> str:
        verdict, _w = self.verdicts[key]
        if verdict is ScanVerdict.UNKNOWN:
            return "??"
        return "==" if verdict is ScanVerdict.HOLDS else "!="

    def pattern(self) -> str:
        last = "==" if self.nz_vanishes else "!=" if self.nz_vanishes is not None else "??"
        return (
            f"N# {self.relation('nsharp_eq_ntilde')} N~ "
            f"{self.relation('ntilde_eq_n')} N "
            f"{self.relation('n_eq_nz')} NZ {last} 0"
        )

    def row(self) -> str:
        return f"m={self.m}: {self.pattern()}"


def equivalence_scan(tables: SphereTables, sp: ProjSpace, m: int) -> ScanResult:
    """Decide N# == N~, N~ == N, N == 0 and N == NZ across all pairs at m.

    Reduces to kernel comparisons in the chain 0 <= Ker Gamma <=
    Ker(h_K . E^inf) <= pi_m(S^q) whenever the lift criteria apply: N# == N~
    reads Ker Gamma, N == 0 and (off the top degree) N == NZ read
    Ker(h_K . E^inf), and N~ == N reads both.  A gap in the table data makes
    unknown only the relations whose kernel it blocks.
    """
    way, loose = route(tables, sp, m)
    n, q = sp.n, sp.q
    if way is CIRCLE or way is M_ONE:
        why = ("all numbers vanish for a circle target" if way is CIRCLE
               else "m = 1: all numbers vanish")
        v = {k: (ScanVerdict.HOLDS, why) for k in SCAN_KEYS}
        return ScanResult(sp.name, m, n, v, True)

    if way is SPHERE and m == n:
        witness = Text(("m = n = {}: all four Nielsen numbers agree on {} = S^{}", m, sp, n))
        v = {k: (ScanVerdict.HOLDS, witness) for k in SCAN_KEYS}
        group = tables.lookup(m, n).group
        v["n_eq_zero"] = (ScanVerdict.FAILS, Text(
            ("m = n = {}: N = 1 for every pair with delta != 0 in pi_{}(S^{}) = {}", m, m, n, group)))
        return ScanResult(sp.name, m, n, v, group.is_trivial)

    if way is SPHERE or loose.verdict is not Verdict.LOOSE:
        why = (Unknown(f"lift decomposition invalid for {sp} at m = {m}") if way is SPHERE
               else Unknown(f"self-coincidence looseness not established: {loose.reason}",
                            loose.reason))
        v = {k: (ScanVerdict.UNKNOWN, why) for k in SCAN_KEYS}
        return ScanResult(sp.name, m, n, v, None)

    # Each relation reads only the kernels it needs; N~ == N, which needs
    # both, gives Gamma's gap first.  A decided witness keeps the subgroups it
    # names.
    ker_gamma, ker_hopf, whole = tables.kernel_chain(m, q, sp.field.tag)
    if isinstance(ker_hopf, Unknown):
        n_zero = n_nz = b_eq = (ScanVerdict.UNKNOWN, ker_hopf)
    else:
        c_eq = ScanVerdict.HOLDS if ker_hopf.is_whole() else ScanVerdict.FAILS
        n_zero = (c_eq, Text(("Ker(h . E^inf) = {} vs whole = {}", ker_hopf, whole)))
        n_nz = (c_eq, "m != n: NZ vanishes identically, so N == NZ iff N == 0")
    if isinstance(ker_gamma, Unknown):
        a_eq = b_eq = (ScanVerdict.UNKNOWN, ker_gamma)
    else:
        a_eq = (ScanVerdict.HOLDS if ker_gamma.is_trivial else ScanVerdict.FAILS,
                Text(("Ker Gamma = {}", ker_gamma)))
        if not isinstance(ker_hopf, Unknown):
            b_eq = (
                ScanVerdict.HOLDS if ker_gamma == ker_hopf else ScanVerdict.FAILS,
                Text(("Ker Gamma = {} vs Ker(h . E^inf) = {}", ker_gamma, ker_hopf)),
            )
    verdicts = {"nsharp_eq_ntilde": a_eq, "ntilde_eq_n": b_eq, "n_eq_zero": n_zero}
    if m == n:
        verdicts["n_eq_nz"] = (
            ScanVerdict.HOLDS,
            "m = n: both criteria see exactly the nonzero difference classes",
        )
        nz_vanishes = tables.lookup(m, q).group.is_trivial
    else:
        verdicts["n_eq_nz"] = n_nz
        nz_vanishes = True
    return ScanResult(sp.name, m, n, verdicts, nz_vanishes)


# ------------------------------------------------------------ Wecken status


class WeckenStatus(enum.Enum):
    HOLDS = "holds"
    FAILS_WITH_WITNESS = "fails_with_witness"
    UNKNOWN = "unknown"


KERVAIRE_DIMS = (16, 32, 64)
KERVAIRE_UNRESOLVED = 128


_MC_AT_LEAST_ONE = unk(Unknown("at least MCC = 1; not determined by these tables"))


def kervaire_exception(field_tag, n: int, m: int) -> Optional[Report]:
    """The exotic self-coincidence pairs on RP(n), n = 16, 32, 64, m = 2n-2.

    Returns a report with MCC = 1 strictly between N# = 0 and R = 2; None
    everywhere else (including the unresolved n = 128 candidate).
    """
    field = parse_field(field_tag)
    if field.tag != "R" or n not in KERVAIRE_DIMS or m != 2 * n - 2:
        return None
    notes = [
        f"exotic class in pi_{m}(S^{n}) detected by the Arf/Kervaire framing "
        "invariant: (f, f) is not loose although every Nielsen number vanishes",
        "minimum-equals-Nielsen fails here: MCC = 1 but N# = 0",
    ]
    zero = fin(0)
    return Report(
        target=space("R", n).name,
        m=m,
        n=n,
        inputs="f paired with itself, f the exotic class",
        R=fin(2),
        MC=_MC_AT_LEAST_ONE,
        MCC=fin(1),
        N_sharp=zero,
        N_tilde=zero,
        N_plain=zero,
        N_z=zero,
        hypothesis_notes=notes,
        derivation=[],
    )


class WeckenAnswer(_Value, frozen=False):
    __slots__ = ("status", "reason", "witness")

    def __init__(self, status: WeckenStatus, reason: str, witness: Optional[Report] = None):
        self.status = status
        self.reason = reason
        self.witness = witness


def wecken_status(sp: ProjSpace, m: int) -> WeckenAnswer:
    """Does MCC == N# hold for all pairs of maps S^m -> KP(n')?"""
    if m < 1:
        raise InputError("m must be >= 1")
    tag = sp.field.tag
    if _congruence_ok(sp.field, sp.n_prime):
        return WeckenAnswer(
            WeckenStatus.HOLDS,
            "on this congruence region every self-pair is loose and "
            "MCC = N# for all pairs",
        )
    witness = kervaire_exception(tag, sp.n, m)
    if witness is not None:
        return WeckenAnswer(
            WeckenStatus.FAILS_WITH_WITNESS,
            f"exotic self-coincidence pair on {sp.name} at m = {m}",
            witness,
        )
    if tag == "R":
        reason = "not settled for this even n'"
        if sp.n == KERVAIRE_UNRESOLVED and m == 2 * sp.n - 2:
            reason += (
                f"; whether an exotic class exists at n = {KERVAIRE_UNRESOLVED}, "
                f"m = {2 * KERVAIRE_UNRESOLVED - 2} is unresolved"
            )
        return WeckenAnswer(WeckenStatus.UNKNOWN, reason)
    return WeckenAnswer(
        WeckenStatus.UNKNOWN,
        "open question: whether MCC == N# always holds over C and H outside "
        "the congruence region is not settled",
    )
