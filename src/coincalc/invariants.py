"""The decision core: Reidemeister, minimum and Nielsen numbers.

Sphere and projective targets decide MCC and the four Nielsen numbers by the
same ladder of vanishing criteria on a difference class (the class itself,
its total Hopf-James invariant, the Hopf-multiplied stable image, and the
top-degree obstruction), each worth 0 or a weight: 1 on a sphere, the full
Reidemeister number on KP(n'), where the difference is of lifts.  Every report
carries its derivation and is checked against the monotone chain
MC >= MCC >= N# >= N~ >= N >= NZ >= 0 and the {0, R} dichotomy.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, Union

from .fgab import FgAbError, _Value
from .projective import MapClass, ProjSpace, decompose_valid, parse_field
from .selfco import Verdict, _congruence_ok, self_loose
from .spheres import (
    Membership,
    MissingDataError,
    SphereClass,
    SphereTables,
    Unknown,
)
from .stable import StableElement

FINITE, INFINITE_KIND, UNKNOWN_KIND = "finite", "infinite", "unknown"


class InvariantValue(_Value):
    """A computed invariant: a number, infinity, or an honest Unknown."""

    __slots__ = ("kind", "value", "reason")

    def __init__(self, kind: str, value: int = 0, reason: str = ""):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "reason", reason)

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
        return f"unknown ({self.reason})" if self.reason else "unknown"

    def short(self) -> str:
        return {FINITE: str(self.value), INFINITE_KIND: "inf"}.get(self.kind, "?")


def fin(k: int) -> InvariantValue:
    return InvariantValue(FINITE, k)


INF = InvariantValue(INFINITE_KIND)


def unk(reason: str) -> InvariantValue:
    return InvariantValue(UNKNOWN_KIND, 0, reason)


VALUE_ORDER = ("MC", "MCC", "N_sharp", "N_tilde", "N_plain", "N_z")


class Report(_Value, frozen=False):
    """The invariant bundle for one pair of maps."""

    __slots__ = (
        "target", "m", "n", "inputs", "R", "MC", "MCC", "N_sharp", "N_tilde",
        "N_plain", "N_z", "hypothesis_notes", "derivation", "non_wecken",
    )

    def __init__(
        self, target: str, m: int, n: int, inputs: str, R: InvariantValue, MC: InvariantValue,
        MCC: InvariantValue, N_sharp: InvariantValue, N_tilde: InvariantValue,
        N_plain: InvariantValue, N_z: InvariantValue,
        hypothesis_notes: Optional[list[str]] = None, derivation: Optional[list[str]] = None,
        non_wecken: bool = False,
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
        self.non_wecken = non_wecken

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
            return {"unknown": v.reason}

        return {
            "target": self.target,
            "m": self.m,
            "n": self.n,
            "inputs": self.inputs,
            "values": {k: enc(v) for k, v in self.values().items()},
            "non_wecken": self.non_wecken,
            "hypothesis_notes": list(self.hypothesis_notes),
            "derivation": list(self.derivation),
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
    bound = _ge(report.R, report.MCC)
    if bound is False:
        if report.n != 2:
            violations.append(f"MCC = {report.MCC} exceeds R = {report.R}")
        else:
            violations.append(
                f"MCC = {report.MCC} exceeds R = {report.R} (n = 2, informational)"
            )
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
    n_factor: Callable[[StableElement], Union[StableElement, Unknown]],
    labels: tuple[str, str],
    deriv: list[str],
) -> tuple[InvariantValue, InvariantValue, InvariantValue, InvariantValue]:
    """(MCC = N#, N~, N, NZ) from the vanishing tests on delta.

    Each number is 0 when its test vanishes and weight otherwise: delta for
    MCC and N#, Gamma(delta) for N~, n_factor(E^inf(delta)) for N, and delta
    again for NZ, in the top degree only (NZ = 0 elsewhere).  labels prefix
    the derivation lines of the Gamma and the N test.
    """

    def worth(vanishes: bool) -> InvariantValue:
        return fin(0 if vanishes else weight)

    mcc = worth(delta.is_zero)
    n_z = mcc if top else fin(0)
    if delta.is_zero:
        return mcc, mcc, mcc, n_z
    gamma = tables.gamma(delta)
    zero = gamma.is_zero()
    deriv.append(f"{labels[0]}{gamma}")
    n_tilde = unk(f"Gamma undetermined: {gamma}") if zero is None else worth(zero)
    image = gamma.component(1)
    if not isinstance(image, Unknown):
        image = n_factor(image)
    if isinstance(image, Unknown):
        return mcc, n_tilde, unk(image.reason), n_z
    deriv.append(f"{labels[1]}{image}")
    return mcc, n_tilde, worth(image.is_zero), n_z


def sphere_report(
    tables: SphereTables,
    m: int,
    n: int,
    f1: SphereClass,
    f2: SphereClass,
) -> Report:
    """Minimum and Nielsen numbers for a pair of maps S^m -> S^n."""
    if m < 1 or n < 1:
        raise FgAbError("sphere targets need m, n >= 1")
    for f in (f1, f2):
        if (f.m, f.q) != (m, n):
            raise FgAbError(f"input class lives in pi_{f.m}(S^{f.q}), not pi_{m}(S^{n})")
    notes: list[str] = []
    deriv: list[str] = []
    target = f"S^{n}"
    inputs = f"f1 = {f1.value}, f2 = {f2.value}"

    if m == 1 and n == 1:
        d1, d2 = f1.value.coeffs[0], f2.value.coeffs[0]
        k = abs(d1 - d2)
        deriv.append(f"circle self maps of degrees {d1} and {d2}: all numbers |d1 - d2|")
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
        u = unk(af2.reason)
        return Report(target, m, n, inputs, r, u, u, u, u, u, u, notes, deriv)
    delta = f1 - af2
    deriv.append(f"delta = [f1] - [a . f2] = {delta.value} in pi_{m}(S^{n})")
    labels = ("Gamma(delta): ", "E^inf(delta) = ")
    mcc, n_tilde, n_plain, n_z = _criteria(
        tables, delta, m == n, 1, lambda stab: stab, labels, deriv
    )
    if m == n:
        notes.append("m = n: all six numbers agree (classical self-coincidence count)")

    if delta.is_zero:
        mc: InvariantValue = fin(0)
    else:
        member = tables.suspension_image_contains(m, n, delta)
        deriv.append(f"delta in E(pi_{m - 1}(S^{n - 1}))? {member.value}")
        if member is Membership.YES:
            mc = fin(1)
        elif member is Membership.NO:
            mc = INF if m > n else fin(1)
        else:
            mc = unk("suspension image membership undetermined")
    return Report(
        target, m, n, inputs, r, mc, mcc, mcc, n_tilde, n_plain, n_z, notes, deriv
    )


def _as_lift(sp: ProjSpace, m: int, f) -> tuple[SphereClass, bool]:
    """Normalize MapClass | SphereClass input to (lift, correction_zero)."""
    if isinstance(f, MapClass):
        if f.space != sp or f.m != m:
            raise FgAbError("map class built for a different target or m")
        return f.lift, f.correction_is_zero
    if isinstance(f, SphereClass):
        if (f.m, f.q) != (m, sp.q):
            raise FgAbError(
                f"lift must live in pi_{m}(S^{sp.q}), got pi_{f.m}(S^{f.q})"
            )
        return f, True
    raise FgAbError("inputs must be MapClass or SphereClass lifts")


def projective_report(
    tables: SphereTables,
    sp: ProjSpace,
    m: int,
    f1,
    f2,
    assume_self_loose: bool = False,
) -> Report:
    """Minimum and Nielsen numbers for a pair of maps S^m -> KP(n').

    Inputs are lift classes in pi_m(S^q) (optionally as MapClass with a
    correction) when the lift decomposition is valid; for a sphere target
    KP(1) where it is not, inputs are classes of pi_m(S^n) and the sphere
    closed forms take over.
    """
    if m < 2:
        raise FgAbError("projective reports need a simply connected domain, m >= 2")
    notes: list[str] = []
    deriv: list[str] = []

    if sp.n == 1:
        # RP(1) is the circle: with m >= 2 everything vanishes.
        z = fin(0)
        notes.append(f"{sp.name} is the circle: all numbers vanish for m >= 2")
        inputs = "any pair"
        return Report(sp.name, m, sp.n, inputs, fin(sp.reidemeister), z, z, z, z, z, z, notes, deriv)

    if not decompose_valid(tables, sp, m):
        # Only possible for n' = 1; route through the sphere the target is.
        for f in (f1, f2):
            if isinstance(f, MapClass):
                raise FgAbError(
                    f"the lift decomposition is invalid for {sp} at m={m}; "
                    f"pass classes of pi_{m}(S^{sp.n}) directly"
                )
        rep = sphere_report(tables, m, sp.n, f1, f2)
        rep.target = f"{sp.name} = S^{sp.n}"
        rep.hypothesis_notes.append(
            f"{sp.name} is the sphere S^{sp.n}; sphere closed forms used "
            f"(no lift decomposition at m = {m})"
        )
        return rep

    lift1, corr1_zero = _as_lift(sp, m, f1)
    lift2, corr2_zero = _as_lift(sp, m, f2)
    inputs = f"lift1 = {lift1.value}, lift2 = {lift2.value} in pi_{m}(S^{sp.q})"
    if not (corr1_zero and corr2_zero):
        notes.append(
            "nonzero correction classes recorded; they join a loose pair and "
            "do not change any of the numbers"
        )
    r_n = sp.reidemeister
    r = fin(r_n)

    both_trivial = (
        lift1.is_zero and lift2.is_zero and corr1_zero and corr2_zero
    )
    loose = self_loose(sp.field.tag, m, sp.n_prime)
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
        u = unk(
            "looseness of (f1, f1) not established: " + loose.reason
        )
        notes.append("criteria withheld; pass assume_self_loose to override")
        return Report(sp.name, m, sp.n, inputs, r, u, u, u, u, u, u, notes, deriv)

    delta = lift1 - lift2
    deriv.append(f"delta = lift1 - lift2 = {delta.value} in pi_{m}(S^{sp.q})")
    nonzero = not delta.is_zero
    deriv.append(
        f"difference test: delta {'nonzero' if nonzero else 'zero'} -> "
        f"MCC = N# = {r_n if nonzero else 0}"
    )
    tag = sp.field.tag
    labels = (
        "Hopf-James test (N~): Gamma(delta): ",
        f"stable Hopf product test (N): h_{tag} . E^inf(delta) = ",
    )
    ring = tables.ring
    mcc, n_tilde, n_plain, n_z = _criteria(
        tables, delta, m == sp.n, r_n,
        lambda stab: ring.multiply(ring.hopf_stable(tag), stab), labels, deriv,
    )
    deriv.append(
        f"top-degree test: m {'=' if m == sp.n else '!='} n -> NZ = {n_z}"
    )

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
        mc = unk("MC is determined by these tables only for sphere targets")

    rep = Report(
        sp.name, m, sp.n, inputs, r, mc, mcc, mcc, n_tilde, n_plain, n_z, notes, deriv
    )
    bad = dichotomy_check(rep, r_n)
    if bad:
        raise FgAbError("dichotomy violated: " + "; ".join(bad))
    return rep


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
        self, target: str, m: int, n: int, verdicts: dict[str, tuple[ScanVerdict, str]],
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
    Ker(h_K . E^inf) <= pi_m(S^q) whenever the lift criteria apply; a gap
    in the table data makes every verdict unknown.
    """
    if m < 1:
        raise FgAbError("m >= 1 required")
    if sp.n == 1:
        v = {k: (ScanVerdict.HOLDS, "all numbers vanish for a circle target") for k in SCAN_KEYS}
        return ScanResult(sp.name, m, sp.n, v, True)
    if m == 1:
        v = {k: (ScanVerdict.HOLDS, "m = 1: all numbers vanish") for k in SCAN_KEYS}
        return ScanResult(sp.name, m, sp.n, v, True)

    if sp.n_prime == 1 and m == sp.n:
        group = tables.lookup(m, sp.n).group
        witness = f"m = n = {m}: all four Nielsen numbers agree on {sp.name} = S^{sp.n}"
        v = {k: (ScanVerdict.HOLDS, witness) for k in SCAN_KEYS}
        return ScanResult(sp.name, m, sp.n, v, group.is_trivial)

    hypothesis_fail = None
    if not decompose_valid(tables, sp, m):
        hypothesis_fail = (
            f"lift decomposition invalid for {sp} at m = {m}"
        )
    else:
        loose = self_loose(sp.field.tag, m, sp.n_prime)
        if loose.verdict is not Verdict.LOOSE:
            hypothesis_fail = f"self-coincidence looseness not established: {loose.reason}"
        else:
            try:
                ker_gamma, ker_hopf, _whole = tables.kernel_chain(m, sp.q, sp.field.tag)
                gamma_str, hopf_str, whole_str = tables.kernel_chain_texts(m, sp.q, sp.field.tag)
            except MissingDataError as exc:
                hypothesis_fail = str(exc)  # a gap in the table data
    if hypothesis_fail:
        v = {k: (ScanVerdict.UNKNOWN, hypothesis_fail) for k in SCAN_KEYS}
        return ScanResult(sp.name, m, sp.n, v, None)

    a_eq = ker_gamma.is_trivial
    b_eq = ker_gamma == ker_hopf
    c_eq = ker_hopf.is_whole()
    gamma_text, hopf_text = f"Ker Gamma = {gamma_str}", f"Ker(h . E^inf) = {hopf_str}"
    verdicts = {
        "nsharp_eq_ntilde": (ScanVerdict.HOLDS if a_eq else ScanVerdict.FAILS, gamma_text),
        "ntilde_eq_n": (
            ScanVerdict.HOLDS if b_eq else ScanVerdict.FAILS,
            f"{gamma_text} vs {hopf_text}",
        ),
        "n_eq_zero": (
            ScanVerdict.HOLDS if c_eq else ScanVerdict.FAILS,
            f"{hopf_text} vs whole = {whole_str}",
        ),
    }
    if m == sp.n:
        verdicts["n_eq_nz"] = (
            ScanVerdict.HOLDS,
            "m = n: both criteria see exactly the nonzero difference classes",
        )
        nz_vanishes = tables.lookup(m, sp.q).group.is_trivial
    else:
        verdicts["n_eq_nz"] = (
            ScanVerdict.HOLDS if c_eq else ScanVerdict.FAILS,
            "m != n: NZ vanishes identically, so N == NZ iff N == 0",
        )
        nz_vanishes = True
    return ScanResult(sp.name, m, sp.n, verdicts, nz_vanishes)


# ------------------------------------------------------------ Wecken status


class WeckenStatus(enum.Enum):
    HOLDS = "holds"
    FAILS_WITH_WITNESS = "fails_with_witness"
    UNKNOWN = "unknown"


KERVAIRE_DIMS = (16, 32, 64)
KERVAIRE_UNRESOLVED = 128


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
        target=f"RP({n})",
        m=m,
        n=n,
        inputs="f paired with itself, f the exotic class",
        R=fin(2),
        MC=unk("at least MCC = 1; not determined by these tables"),
        MCC=fin(1),
        N_sharp=zero,
        N_tilde=zero,
        N_plain=zero,
        N_z=zero,
        hypothesis_notes=notes,
        derivation=[],
        non_wecken=True,
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
        raise FgAbError("m must be >= 1")
    tag = sp.field.tag
    if _congruence_ok(sp.field, sp.n_prime):
        return WeckenAnswer(
            WeckenStatus.HOLDS,
            "on this congruence region every self-pair is loose and "
            "MCC = N# for all pairs",
        )
    witness = kervaire_exception(tag, sp.n, m) if tag == "R" else None
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
