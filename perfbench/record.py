"""Build the operation catalogues and record their expected outcomes.

    python3 perfbench/record.py

Run from the repository root.  It enumerates every operation the four
workloads can draw, executes each once against the code in src/, cross-checks
the results, and writes perfbench/expected.json.  Each run of the benchmark
then draws its operations from these catalogues with its own seed.

Cross-checks, all of which must pass before anything is written:
  * the CP1 scan patterns for m = 2..9 equal tests/golden/cp1_compare_2_9.txt;
  * every report respects MC >= MCC >= N# >= N~ >= N >= NZ where determined;
  * projective reports take only the values 0 and R (the {0, R} dichotomy);
  * every report is unchanged when f1 and f2 are swapped.
Bad input is recorded by the documented contract (exit 2, no traceback),
not by what the code does today; a call that breaks the contract now is
marked with the symptom seen, so it is counted as failed until fixed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import coincalc as cc  # noqa: E402
from coincalc.exprs import ExprError, parse_class  # noqa: E402
from coincalc.projective import decompose_valid  # noqa: E402

import workloads as wl  # noqa: E402

RNG = random.Random(20130507)  # fixed: the catalogues are part of the benchmark
FIELDS = {"R": range(1, 8), "C": range(1, 6), "H": range(1, 4)}
M_RANGE = range(1, 12)
GOLDEN = os.path.join("tests", "golden", "cp1_compare_2_9.txt")


class RecordError(Exception):
    """A cross-check failed; nothing is written."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise RecordError(message)


def elements(group, per_free=(-2, -1, 0, 1, 2)):
    """Every element of a group, free coordinates restricted to per_free."""
    coords = [per_free] * group.free_rank + [range(t) for t in group.torsion]
    out = [[]]
    for choices in coords:
        out = [e + [c] for e in out for c in choices]
    return out


def context(tables, sp, m):
    """The group pi_m(S^?) that lifts (or sphere classes) live in."""
    if sp.n == 1:
        return None
    if decompose_valid(tables, sp, m):
        return m, sp.q
    return m, sp.n


# -------------------------------------------------------------- reports


def chain_ok(values: str) -> bool:
    """MC >= MCC >= N# >= N~ >= N >= NZ among the determined values."""
    known = [
        float("inf") if v == "inf" else int(v)
        for v in values.split(",")[1:]
        if v != "?"
    ]
    return all(a >= b for a, b in zip(known, known[1:]))


def dichotomy_ok(values: str) -> bool:
    vals = values.split(",")
    r = vals[0]
    return all(v in ("0", r, "?") for v in vals[2:])


def report_catalogue(tables):
    """Seeded pairs over every tabulated group with q >= 2, both kinds."""
    items = []
    targets = []
    for (m, q) in sorted(set(tables.raw.entries) | {(q, q) for q in range(2, 7)}):
        targets.append({"kind": "S", "m": m, "q": q})
    for tag, nprimes in FIELDS.items():
        for n_prime in nprimes:
            sp = cc.space(tag, n_prime)
            for m in range(2, 12):
                try:
                    ctx = context(tables, sp, m)
                    if ctx is None or ctx[1] < 2:
                        continue
                    tables.lookup(*ctx)
                except cc.OutOfTabulatedRange:
                    continue
                targets.append({"kind": "P", "K": tag, "np": n_prime, "m": ctx[0], "q": ctx[1]})
    for target in targets:
        group = tables.lookup(target["m"], target["q"]).group
        elems = elements(group)
        pairs = set()
        if len(elems) > 1:
            for _ in range(40):
                a, b = RNG.choice(elems), RNG.choice(elems)
                pairs.add((tuple(a), tuple(b)))
            for e in RNG.sample(elems, min(4, len(elems))):
                pairs.add((tuple(e), tuple(e)))
        else:
            pairs.add((tuple(elems[0]), tuple(elems[0])))
        for f1, f2 in sorted(pairs):
            item = dict(target, f1=list(f1), f2=list(f2))
            values = wl.report_op(cc, tables, item)
            swapped = wl.report_op(cc, tables, dict(item, f1=item["f2"], f2=item["f1"]))
            check(values == swapped, f"f1/f2 symmetry broken: {item} {values} {swapped}")
            check(chain_ok(values), f"chain order broken: {item} {values}")
            if item["kind"] == "P":
                check(dichotomy_ok(values), f"dichotomy broken: {item} {values}")
            if all(v == "?" for v in values.split(",")[1:]):
                item["class"] = "withheld"
            elif f1 == f2:
                item["class"] = "equal"
            elif values.split(",")[2] != "0":
                item["class"] = "nonzero"
            else:
                item["class"] = "zero"
            item["expect"] = values
            items.append(item)
    return items


# ---------------------------------------------------------------- scans


def scan_catalogue(tables):
    items = []
    for tag, nprimes in FIELDS.items():
        for n_prime in nprimes:
            for m in M_RANGE:
                item = {"K": tag, "np": n_prime, "m": m}
                item["expect"] = wl.scan_op(cc, tables, item)
                items.append(item)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = [line.split(": ", 1)[1] for line in fh.read().splitlines()]
    cp1 = [i["expect"] for i in items if (i["K"], i["np"]) == ("C", 1) and 2 <= i["m"] <= 9]
    check(cp1 == golden, f"CP1 scans disagree with {GOLDEN}: {cp1}")
    return items


# ------------------------------------------------------- table curation


def curation_catalogue(lines):
    """Variants of the bundled text: dropped annotations, broken
    constraints and malformed rows, plus the text itself."""
    edits = [("bundled", None)]
    in_group = False
    for i, line in enumerate(lines):
        head = line.split(" ", 1)[0]
        if head in ("group", "stem"):
            in_group = head == "group"
        if in_group and head in ("susp", "stab", "gamma", "antip"):
            edits.append(("dropped_annotation", (i, None)))
        if head in ("susp", "stab", "gamma", "antip", "name", "prod"):
            tokens = line.split(" ")
            last = tokens[-1]
            if "," in last or last.lstrip("-").isdigit():
                coeffs = last.split(",")
                j = RNG.randrange(len(coeffs))
                coeffs[j] = str(int(coeffs[j]) + RNG.choice((1, 2, 3)))
                edits.append(("broken_constraint", (i, " ".join(tokens[:-1] + [",".join(coeffs)]))))
    directive_lines = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    for i in RNG.sample(directive_lines, 60):
        tokens = lines[i].split(" ")
        how = RNG.randrange(3)
        if how == 0 and len(tokens) > 1:
            bad = " ".join(tokens[:-1])
        elif how == 1:
            bad = tokens[0] + "x " + " ".join(tokens[1:])
        else:
            bad = " ".join(tokens + ["1,"])
        edits.append(("malformed_row", (i, bad)))
    items = []
    seen = set()
    for kind, edit in edits:
        text = wl.variant_text(lines, edit)
        if text in seen:
            continue
        seen.add(text)
        items.append({"class": kind, "edit": edit, "expect": wl.curation_op(cc, text)})
    bundled = items[0]["expect"]
    check(bundled.get("violations") == [], f"bundled table does not validate: {bundled}")
    reparsed = wl.curation_op(cc, cc.serialize_tables(cc.parse_tables(wl.variant_text(lines, None))))
    check(reparsed == bundled, "serialize/parse round trip changes the table")
    return items


# ------------------------------------------------------------------ CLI


def nielsen_exprs(tables, m, q):
    """Lift expressions that evaluate in pi_m(S^q), and ones that do not."""
    entry = tables.lookup(m, q)
    cands = ["zero"]
    gens = list(entry.gen_names)
    cands += gens
    cands += [f"{k}*{g}" for g in gens for k in (2, 3, -1)]
    cands += [f"{a}+{b}" for a in gens for b in gens]
    cands += sorted(tables.raw.named)
    cands += [f"whitehead({k})" for k in (2, 3, 5)]
    if m == q:
        cands += ["iota", "2", "-1"]
    for depth in (1, 2):
        try:
            below = tables.lookup(m - depth, q - depth)
        except cc.OutOfTabulatedRange:
            continue
        inner = list(below.gen_names) + sorted(tables.raw.named)
        arg = "" if depth == 1 else f", {depth}"
        cands += [f"susp({g}{arg})" for g in inner]
        cands += [f"susp(2*{g}{arg})" for g in below.gen_names]
    good, bad = [], []
    for text in cands:
        try:
            parse_class(tables, text, m, q)
            good.append(text)
        except (ExprError, cc.FgAbError, cc.TableError):
            bad.append(text)
    return good, bad


def cli_catalogue(tables):
    """(argv, bad) pairs over all 9 subcommands.  `bad` marks input that the
    contract says must end in exit 2: malformed, out of range, or invalid."""
    items = []
    seen = set()

    def add(argv, bad=False):
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            items.append((argv, bad))

    for m in range(1, 12):
        for q in range(0, 8):
            try:
                tables.lookup(m, q)
                add(["pi", str(m), str(q)])
            except cc.OutOfTabulatedRange:
                add(["pi", str(m), str(q)], True)
    for k in range(-1, 22):
        add(["stems", str(k)], not 0 <= k <= 19)

    for tag, nprimes in FIELDS.items():
        for n_prime in nprimes:
            sp = cc.space(tag, n_prime)
            base = ["nielsen", "--field", tag, "--nprime", str(n_prime)]
            for m in range(2, 12):
                args = base + ["--m", str(m)]
                try:
                    ctx = (m, sp.q) if sp.n == 1 else context(tables, sp, m)
                    good, bad = nielsen_exprs(tables, *ctx)
                except cc.OutOfTabulatedRange:
                    add(args + ["--f1", "zero", "--f2", "zero"], True)
                    continue
                nonzero = [g for g in good if g != "zero"] or ["zero"]
                for _ in range(6 if len(nonzero) > 1 else 2):
                    f1, f2 = RNG.choice(nonzero), RNG.choice(good)
                    flags = []
                    if RNG.random() < 0.5:
                        flags.append("--machine")
                    if RNG.random() < 0.1:
                        flags.append("--assume-self-loose")
                    pre = ["--strict"] if RNG.random() < 0.15 else []
                    add(pre + args + [f"--f1={f1}", f"--f2={f2}"] + flags)
                for text in RNG.sample(bad, min(2, len(bad))):
                    add(args + ["--f1", text, "--f2", "zero"], True)
    nielsen_rp2 = ["nielsen", "--field", "R", "--nprime", "2", "--m", "3"]
    for text in ("hopfC+", "susp(hopfC", "3*", "bogus", "2**eta_2", "hopfC hopfC",
                 "whitehead(", "whitehead(4)", "whitehead(x)", "susp(hopfC, 0)", "(", ""):
        add(nielsen_rp2 + ["--f1", text, "--f2", "zero"], True)
    add(["nielsen", "--field", "C", "--nprime", "0", "--m", "3", "--f1", "zero", "--f2", "zero"], True)
    add(["nielsen", "--field", "R", "--nprime", "2", "--m", "1", "--f1", "zero", "--f2", "zero"], True)

    for surface in ("CP1", "RP2"):
        for lo in range(2, 10):
            for hi in range(lo, 10):
                if RNG.random() < 0.35:
                    add(["compare", "--surface", surface, "--m-range", f"{lo}..{hi}"]
                        + (["--machine"] if RNG.random() < 0.5 else []))
        add(["compare", "--surface", surface, "--m-range", "2..11"], True)
        add(["compare", "--surface", surface, "--m-range", "2-9"], True)
    add(["compare", "--surface", "XP3", "--m-range", "2..5"], True)

    for claim in "abc":
        for extra in ([], ["--machine"]):
            add(["witnesses", "--claim", claim] + extra)
        add(["--strict", "witnesses", "--claim", claim])
    add(["witnesses", "--claim", "d"], True)

    for tag in "RCH":
        for n_prime in range(1, 7):
            add(["selfloose", "--field", tag, "--nprime", str(n_prime), "--fiber"])
            for m in RNG.sample(range(1, 13), 3):
                add(["selfloose", "--field", tag, "--nprime", str(n_prime), "--m", str(m)]
                    + (["--machine"] if RNG.random() < 0.5 else []))
    add(["selfloose", "--field", "R", "--nprime", "2"], True)

    add(["verify-s", "--field", "H"])
    for tag in "RC":
        for n_prime in (1, 3, 5):
            for samples in (3, 8):
                add(["verify-s", "--field", tag, "--nprime", str(n_prime),
                     "--samples", str(samples), "--seed", str(RNG.randrange(100))])
        add(["verify-s", "--field", tag, "--nprime", "2"], True)

    for tag, nprimes in (("R", (1, 2, 3, 16, 32, 64, 128)), ("C", (1, 2, 3)), ("H", (1, 2, 23))):
        for n_prime in nprimes:
            sp = cc.space(tag, n_prime)
            for m in sorted({2 * sp.n - 2, sp.n + 1, 7}):
                if m >= 1:
                    add(["wecken", "--field", tag, "--nprime", str(n_prime), "--m", str(m)]
                        + (["--machine"] if RNG.random() < 0.5 else []))
    add(["wecken", "--field", "R", "--nprime", "2", "--m", "-5"], True)
    add(["wecken", "--field", "C", "--nprime", "0", "--m", "5"], True)

    add(["validate-data"])
    add(["--strict", "validate-data"])

    add(["pi", "x", "3"], True)
    add(["nielsen", "--field", "X", "--nprime", "2", "--m", "3", "--f1", "zero", "--f2", "zero"], True)
    add(["frobnicate"], True)
    return items


def run_cli(argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    env.pop("COINCALC_TABLES", None)
    proc = subprocess.run(
        [sys.executable, "-m", "coincalc.cli"] + argv,
        env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def record_cli(tables):
    items = []
    for argv, bad in cli_catalogue(tables):
        code, out, err = run_cli(argv)
        seen = wl.cli_outcome(argv, code, out, err, bad)
        item = {"argv": argv, "class": "bad" if bad else "valid"}
        if bad:
            item["expect"] = dict(wl.CONTRACT_BAD_INPUT)
            if seen != item["expect"]:
                item["defect"] = f"breaks the exit-2 contract: {json.dumps(seen)}"
        else:
            check("traceback" not in seen and code in (0, 1), f"valid call failed: {argv}: {err}")
            item["expect"] = seen
            values = seen.get("values")
            reports = values if isinstance(values, list) else [values]
            for v in reports:
                if isinstance(v, str) and v.count(",") == 6:
                    check(chain_ok(v), f"chain order broken: {argv} {v}")
        items.append(item)
    return items


def dump(doc: dict, path: str) -> None:
    """JSON with one catalogue item per line, so diffs stay readable."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        keys = list(doc)
        for n, key in enumerate(keys):
            value = doc[key]
            fh.write(f"  {json.dumps(key)}: ")
            if isinstance(value, list):
                fh.write("[\n")
                fh.write(",\n".join("    " + json.dumps(v, separators=(",", ":")) for v in value))
                fh.write("\n  ]")
            else:
                fh.write(json.dumps(value))
            fh.write(",\n" if n + 1 < len(keys) else "\n")
        fh.write("}\n")


def main() -> int:
    if not os.path.isfile(wl.TABLE_FILE):
        print("run from the repository root", file=sys.stderr)
        return 2
    tables = cc.load_default_tables()
    with open(wl.TABLE_FILE, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    doc = {
        "table_sha256": wl.sha256(text),
        "report_sweep": report_catalogue(tables),
        "scan_sweep": scan_catalogue(tables),
        "table_curation": curation_catalogue(lines),
        "cli_oneshot": record_cli(tables),
    }
    dump(doc, wl.EXPECTED_FILE)
    for key in wl.WORKLOADS:
        print(f"{key}: {len(doc[key])} operations")
    defects = [i for i in doc["cli_oneshot"] if "defect" in i]
    for item in defects:
        print("contract broken today:", " ".join(item["argv"]), "->", item["defect"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
