"""coincalc benchmark: one command for every workload, with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (one client, closed loop, one
process; at most one child process at a time and no threads):

  cli_oneshot     one fresh `python -m coincalc.cli ARGV` per operation,
                  ARGV drawn from a mix over all 9 subcommands
  report_sweep    one library session: sphere_report / projective_report
  scan_sweep      equivalence_scan in sessions, each on a fresh SphereTables
  table_curation  parse_tables -> SphereTables -> validate -> serialize_tables

Absolute times on a shared host swing by a quarter between runs, so latency
is reported as a ratio to a reference measured in the same run, next to the
operations: a bare `python -c pass` for cli_oneshot, a fixed pure-Python
loop (workloads.reference_work) for the in-process workloads.

--trace 0 prints the end-to-end metrics of the chosen workload:
lat_p50_xref and lat_tail_xref (see TAIL), setup_s (see BARE_NOMINAL_S)
and peak_rss_mb.  error_rate is printed beside them and is
carried by the result's failed/attempted; it is no metric, since it may be 0.
Every output is checked against perfbench/expected.json; `correct` turns
false on any failure.  Bad input that expected.json records as breaking the
exit-2 contract when it was recorded (known defects) is left out of the timed
mix, so that `failed` does not hang on whether a run happens to draw it; each
such call is instead made once in every run that starts the CLI, untimed,
and printed with its verdict and the error rate it adds (see probe_defects).
--trace 1
runs every workload, each first untraced and then with the tracer wrapped
around coincalc's public functions, and prints the per-layer metrics of all
of them plus the import-time breakdown; --workload then only names the run.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from traced_cli import TRACE_MARK  # noqa: E402
from tracer import NAMES, Tracer, merge  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
PY = sys.executable
SPAN_DIR = os.path.join(ROOT, ".bench_build")
SETUP_REPS = 7
# setup_s is a set-up time over a bare `python -c pass` launched next to it,
# given in the seconds of a nominal host where that launch takes
# BARE_NOMINAL_S (about the median of Python 3.11 on a shared 2-core x86-64
# host), so that it moves with coincalc's set-up work and not with the
# host's speed.  The absolute times are printed for reading.
BARE_NOMINAL_S = 0.07
PASS_S = 0.01  # in-process operations between two reference measurements
CHILD_TIMEOUT_S = 60
CLI_CALLS_PER_REF = 2  # CLI calls between two bare interpreter launches

# What each workload draws, each from its catalogue in expected.json:
#   cli_oneshot     rounds of ten calls in seeded order: one call of each of the
#                   9 subcommands and one bad-input call, each drawn uniformly
#                   from its catalogue.  The stated bad-input share is 1/10;
#                   the rounds keep every subcommand in every stretch of calls.
#   report_sweep    REPORT_SIDE_SHARE of the pairs are equal or withheld
#                   pairs; the rest come uniformly from the other pairs, all
#                   but a few of which have a nonzero difference class and so
#                   reach the criteria.
#   scan_sweep      a session's target is drawn with weight 1 + the number of
#                   its recorded scans whose pattern separates two kernel
#                   groups (SEPARATES), so sessions mostly build kernel chains
#                   while every target, short-circuit and out-of-range scans
#                   included, is still drawn.
#   table_curation  the bundled text and the three kinds of variant are
#                   drawn equally often, each variant uniformly in its kind.
REPORT_SIDE_SHARE = 0.2
SEPARATES = re.compile(r"(N#|N~|N) != N")
SCAN_REQUERIES = 3
# The tail percentile reported as lat_tail_xref: p99 where it held steady
# over seeds (scan_sweep, IQR about 4% of the median), else p90.  cli_oneshot
# makes one to two hundred calls in a run, so p99 has too few samples beyond
# it; on report_sweep and table_curation the p99 is set by per-operation
# jitter of the shared host and moved by 9-14% between seeds.  The other
# percentiles are printed for reading.
TAIL = {"cli_oneshot": 0.90, "report_sweep": 0.90, "scan_sweep": 0.99,
        "table_curation": 0.90}
TRACE_SHARE = {"cli_oneshot": 0.4, "report_sweep": 0.2, "scan_sweep": 0.2, "table_curation": 0.2}

# Per-layer metrics kept in the result line, named <workload>.<module>.<function>:
# the functions each workload is meant to stress.  The printed table has every
# traced function on every workload.  Which end-to-end metric each should move:
#
#   layer                 should move                 on
#   import.*              lat_p50_xref                cli_oneshot
#   cli, exprs            lat_p50_xref                cli_oneshot
#   tables                lat_p50_xref; setup_s       table_curation, cli_oneshot
#   spheres               lat_p50_xref, lat_tail_xref report_sweep, scan_sweep,
#                                                     table_curation
#   stable                lat_p50_xref                report_sweep, scan_sweep
#   fgab                  lat_p50_xref, lat_tail_xref scan_sweep
#   projective, selfco    lat_p50_xref                report_sweep, cli_oneshot
#                                                     (verify-s, selfloose)
#   invariants            lat_p50_xref                report_sweep, scan_sweep
#
# report_sweep never calls kernel_chain, so a kernel_chain change is predicted
# to leave it unchanged; a per-table cache shows its cost on table_curation and
# cli_oneshot, where nothing is reused, and in peak_rss_mb.
PER_LAYER = {
    "cli_oneshot": ("cli.main", "exprs.parse_class", "tables.parse_tables",
                    "tables.resolve_entry", "projective.decompose_valid",
                    "selfco.self_loose", "selfco.residual_not_parallel"),
    "report_sweep": ("spheres.lookup", "spheres.stabilize", "spheres.gamma",
                     "spheres.antipodal_compose", "spheres.suspension_image_contains",
                     "stable.stem", "stable.multiply", "projective.decompose_valid",
                     "selfco.self_loose", "invariants.sphere_report",
                     "invariants.projective_report"),
    "scan_sweep": ("spheres.lookup", "spheres.kernel_chain", "stable.stem",
                   "stable.multiply", "fgab.smith_normal_form", "fgab.kernel_into_coords",
                   "fgab.Subgroup.contains", "fgab.subgroup_cmp",
                   "invariants.equivalence_scan"),
    "table_curation": ("tables.parse_tables", "tables.serialize_tables",
                       "tables.resolve_entry", "spheres.validate", "spheres.lookup",
                       "spheres.suspend", "spheres.stabilize", "spheres.antipodal_compose"),
}
PER_LAYER_COUNTERS = {
    "report_sweep": ("spheres.lookup.repeat_share",),
    "scan_sweep": ("spheres.lookup.repeat_share", "spheres.kernel_chain.repeat_share",
                   "fgab.snf.repeat_share", "fgab.snf.max_dim", "fgab.snf.max_entry_bits"),
    "table_curation": ("spheres.lookup.repeat_share",),
}
IMPORT_MODULES = ("coincalc", "coincalc.fgab", "coincalc.tables", "coincalc.stable",
                  "coincalc.spheres", "coincalc.projective", "coincalc.selfco",
                  "coincalc.invariants", "coincalc.exprs", "coincalc.cli")
IMPORT_STDLIB = ("json", "argparse", "fractions", "random", "importlib.resources")


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


# --------------------------------------------------------------- helpers


def child_env() -> dict:
    """The caller's environment, with src/ importable, the bundled tables, and
    bytecode caching on: installed packages run from cached bytecode, and the
    warm-up calls fill that cache under src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("COINCALC_TABLES", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str]) -> tuple[float, int, str, str]:
    """Run one child to completion; wall time includes start and exit."""
    t0 = perf_counter()
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(p * len(ordered) + 0.999999) - 1))
    return ordered[k]


def window_median(refs: list[float], i: int) -> float:
    """The reference next to slot i: median of the few measured around it."""
    return statistics.median(refs[max(0, i - 2) : i + 4])


def share(num: int, base: int) -> str:
    return f"{num}/{base} ({100.0 * num / base:.1f}%)" if base else "n/a (base 0)"


class Op:
    """One generated operation with its expected outcome and input properties.

    `label` names the operation in failure messages; it is only formatted
    when an operation fails, to keep the loop between operations short."""

    __slots__ = ("label", "run", "expect", "props")

    def __init__(self, label, run, expect, props):
        self.label, self.run, self.expect, self.props = label, run, expect, props


class Tally:
    """Outcome and input-property counts of one phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.lat_ns = array("q")  # compact, so the samples barely move peak RSS
        self.ratios: list[float] = []
        self.peak_rss_kb = 0
        self.props = {}
        self._seen = {}

    def note(self, op: Op, outcome, error: str | None) -> None:
        self.attempted += 1
        ok = error is None and outcome == op.expect
        if not ok:
            self.failed += 1
            self.failures.append(
                f"{op.label}: " + (error or f"got {outcome!r}, expected {op.expect!r}"))
        for key, value in op.props.items():
            for v in value if isinstance(value, list) else [value]:
                self._count(key, v)

    def _count(self, key: str, value) -> None:
        """Count one input property; a list value counts once per element."""
        if value is None:
            return
        if key.startswith("repeated "):
            seen = self._seen.setdefault(key, set())
            hit = value in seen
            seen.add(value)
            value = hit
        num, base = self.props.get(key, (0, 0))
        self.props[key] = (num + bool(value), base + 1)


def weighted_stream(rng: random.Random, pools: dict, weights: dict):
    """Draw a pool by weight, then an item uniformly from it."""
    names = [n for n in weights if pools.get(n)]
    w = [weights[n] for n in names]
    while True:
        pool = pools[rng.choices(names, w)[0]]
        yield pool[rng.randrange(len(pool))]


# ------------------------------------------------------------ workloads


def cli_ops(expected: dict, rng: random.Random):
    pools: dict[str, list] = {}
    for item in expected["cli_oneshot"]:
        if "defect" in item:
            continue  # made once per run by probe_defects, not timed
        sub = next(a for a in item["argv"] if not a.startswith("-"))
        pools.setdefault("bad" if item["class"] == "bad" else sub, []).append(item)
    names = sorted(pools)
    while True:
        rng.shuffle(names)
        for name in names:
            item = pools[name][rng.randrange(len(pools[name]))]
            yield cli_op(item)


def cli_op(item: dict) -> Op:
    argv = item["argv"]
    expect = item["expect"]
    values = expect.get("values")
    props = {"out-of-range or bad input": item["class"] == "bad"}
    if argv[0] == "nielsen" or argv[1:2] == ["nielsen"]:
        args = dict(a.split("=", 1) if "=" in a else (a, None) for a in argv)
        flags = dict(zip(argv, argv[1:]))
        key = (flags.get("--field"), flags.get("--nprime"), flags.get("--m"))
        props["repeated (m, q, K)"] = key
        props["repeated (target, m, f1, f2)"] = key + (args.get("--f1"), args.get("--f2"))
        if isinstance(values, str):
            props["nonzero delta"] = values.split(",")[2] not in ("0", "?")
            props["reports with any unknown"] = "?" in values
    return Op(argv, argv, expect, props)


def report_ops(cc, expected: dict, rng: random.Random, tables):
    pools: dict[str, list] = {"side": [], "criteria": []}
    for item in expected["report_sweep"]:
        side = item["class"] in ("equal", "withheld")
        pools["side" if side else "criteria"].append(item)
    weights = {"side": REPORT_SIDE_SHARE, "criteria": 1 - REPORT_SIDE_SHARE}
    for item in weighted_stream(rng, pools, weights):
        target = item.get("K", "S") + str(item.get("np", ""))
        props = {
            "repeated (target, m, f1, f2)": (target, item["m"], tuple(item["f1"]), tuple(item["f2"])),
            "repeated (m, q, K)": (item["m"], item["q"], item.get("K", "S")),
            "nonzero delta": item["class"] == "nonzero",
            "out-of-range or bad input": False,
            "reports with any unknown": "?" in item["expect"],
        }
        yield Op(item, lambda item=item: wl.report_op(cc, tables, item),
                 item["expect"], props)


def scan_ops(cc, expected: dict, rng: random.Random, raw):
    """One operation is one session, like a library `compare` request: a fresh
    SphereTables, scans over a seeded target and m-range, then re-queries."""
    by_target: dict[tuple, dict[int, dict]] = {}
    for item in expected["scan_sweep"]:
        by_target.setdefault((item["K"], item["np"]), {})[item["m"]] = item
    targets = sorted(by_target)
    weights = [1 + sum(bool(SEPARATES.search(item["expect"])) for item in by_target[t].values())
               for t in targets]

    def session(items):
        tables = cc.SphereTables(raw)
        return [wl.scan_op(cc, tables, item) for item in items]

    while True:
        target = rng.choices(targets, weights)[0]
        ms = sorted(by_target[target])
        lo = rng.choice(ms[:-1])
        hi = rng.choice([m for m in ms if lo <= m <= lo + 8])
        order = list(range(lo, hi + 1)) + [rng.randint(lo, hi) for _ in range(SCAN_REQUERIES)]
        items = [by_target[target][m] for m in order]
        expect = [item["expect"] for item in items]
        props = {
            "repeated (m, q, K)": [(m, target) for m in order],
            "out-of-range or bad input": [e.startswith("!") for e in expect],
            "reports with any unknown": ["??" in e for e in expect],
        }
        yield Op((target, order), lambda items=items: session(items),
                 expect, props)


def curation_ops(cc, expected: dict, rng: random.Random, lines: list[str]):
    pools: dict[str, list] = {}
    for n, item in enumerate(expected["table_curation"]):
        pools.setdefault(item["class"], []).append((n, item))
    for n, item in weighted_stream(rng, pools, dict.fromkeys(sorted(pools), 1)):
        text = wl.variant_text(lines, item["edit"])
        props = {
            "repeated input text": n,
            "out-of-range or bad input": "error" in item["expect"],
            "reports with any violation": bool(item["expect"].get("violations")),
        }
        yield Op(item, lambda text=text: wl.curation_op(cc, text), item["expect"], props)


# ---------------------------------------------------------------- loops


def reference_ns() -> int:
    best = None
    for _ in range(3):
        t0 = perf_counter_ns()
        wl.reference_work()
        t = perf_counter_ns() - t0
        best = t if best is None or t < best else best
    return best


def inprocess_loop(ops, seconds: float, tally: Tally, tracer: Tracer | None = None,
                   limit: int = sys.maxsize) -> list[int]:
    """Closed loop: each operation starts when the previous one ends.  It runs
    for `seconds` or until `limit` operations have been attempted."""
    refs: list[int] = []
    slot = array("i")
    deadline = perf_counter() + seconds
    while perf_counter() < deadline and tally.attempted < limit:
        refs.append(reference_ns())
        pass_end = perf_counter() + PASS_S
        while perf_counter() < pass_end and tally.attempted < limit:
            op = next(ops)
            if tracer is not None:
                tracer.op = tally.attempted
            error = None
            t0 = perf_counter_ns()
            try:
                outcome = op.run()
            except Exception as exc:  # counted as a failed operation
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            tally.lat_ns.append(perf_counter_ns() - t0)
            slot.append(len(refs) - 1)
            tally.note(op, outcome, error)
    refs.append(reference_ns())
    tally.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tally.ratios = [lat / window_median(refs, s) for lat, s in zip(tally.lat_ns, slot)]
    return refs


def cli_loop(ops, seconds: float, tally: Tally, traced: bool = False,
             limit: int = sys.maxsize):
    """CLI calls interleaved with bare interpreter launches, for `seconds` or
    until `limit` calls have been made."""
    refs: list[float] = []
    total: dict = {"functions": {}, "counters": {}}
    prefix = [PY, os.path.join(HERE, "traced_cli.py")] if traced else [PY, "-m", "coincalc.cli"]
    deadline = perf_counter() + seconds
    while perf_counter() < deadline and tally.attempted < limit:
        if len(tally.lat_ns) % CLI_CALLS_PER_REF == 0:
            refs.append(run_child([PY, "-c", "pass"])[0])
        op = next(ops)
        wall, code, out, err = run_child(prefix + op.run)
        if traced:
            kept = []
            for line in err.splitlines(keepends=True):
                if line.startswith(TRACE_MARK):
                    merge(total, json.loads(line[len(TRACE_MARK):]))
                else:
                    kept.append(line)
            err = "".join(kept)
        tally.lat_ns.append(int(wall * 1e9))
        tally.note(op, wl.cli_outcome(op.run, code, out, err, "values" not in op.expect), None)
    refs.append(run_child([PY, "-c", "pass"])[0])
    tally.peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    tally.ratios = [lat / 1e9 / window_median(refs, i // CLI_CALLS_PER_REF)
                    for i, lat in enumerate(tally.lat_ns)]
    return refs, total


def probe_defects(expected: dict, tally: Tally) -> None:
    """Make each bad-input call that expected.json records as breaking the
    exit-2 contract once, untimed and outside `attempted`/`failed`, and print
    whether it still does and the error rate it adds to the timed calls."""
    items = [i for i in expected["cli_oneshot"] if "defect" in i]
    broken = 0
    for item in items:
        _wall, code, out, err = run_child([PY, "-m", "coincalc.cli"] + item["argv"])
        seen = wl.cli_outcome(item["argv"], code, out, err, True)
        broken += seen != item["expect"]
        verdict = "still breaks" if seen != item["expect"] else "now meets"
        print(f"  contract probe: {' '.join(item['argv'])} -> {json.dumps(seen)}: "
              f"{verdict} the exit-2 contract (recorded: {item['defect']})")
    if items:
        print(f"  contract probe: {broken} of {len(items)} known defects still break the "
              f"contract; error_rate with them counted "
              f"{(tally.failed + broken) / max(1, tally.attempted + len(items)):.4f} ratio")


# ----------------------------------------------------------------- setup


def clear_bytecode() -> None:
    """Remove the bytecode cache under src/, as in a fresh checkout."""
    for dirpath, dirnames, _files in os.walk(SRC):
        if "__pycache__" in dirnames:
            shutil.rmtree(os.path.join(dirpath, "__pycache__"))
            dirnames.remove("__pycache__")


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """SETUP_REPS fresh set-ups, each between two bare interpreter launches.

    In-process workloads: `import coincalc` + load_default_tables(), timed
    inside a fresh process, after one untimed process has filled the
    bytecode cache.  cli_oneshot: one whole CLI call with the bytecode cache
    under src/ removed first, so the call compiles and writes it, as the
    first call in a fresh checkout does.  Returns the set-up times and each
    one's ratio to the mean of the two bare launches around it."""
    cli = workload == "cli_oneshot"
    code = ("import time; t0 = time.perf_counter(); import coincalc; "
            "coincalc.load_default_tables(); print(time.perf_counter() - t0)")
    argv = [PY, "-m", "coincalc.cli", "pi", "9", "3"] if cli else [PY, "-c", code]

    def once() -> float:
        if cli:
            clear_bytecode()
        wall, rc, out, err = run_child(argv)
        if rc != 0:
            raise Fatal(f"cannot run coincalc from {SRC}: {err.strip()}")
        return wall if cli else float(out.strip())

    if not cli:
        once()
    bare = [run_child([PY, "-c", "pass"])[0]]
    times = []
    for _ in range(SETUP_REPS):
        times.append(once())
        bare.append(run_child([PY, "-c", "pass"])[0])
    return times, [t / ((b0 + b1) / 2) for t, b0, b1 in zip(times, bare, bare[1:])]


def import_profile(reps: int = 3) -> dict[str, float]:
    """Split the import of coincalc.cli by module with -X importtime."""

    def block(stderr: str):
        rows, current = [], []
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue
            current.append((name.strip(), int(self_us), int(cum_us)))
            if not name[1:].startswith(" "):  # a top-level import ends here
                if name.strip() == "coincalc.cli":
                    rows = current
                current = []
        return rows

    clean_code = f"import sys; sys.path.insert(0, {SRC!r}); import coincalc.cli"
    samples: dict[str, list[float]] = {}
    for _ in range(reps):
        for argv, clean in (([PY, "-X", "importtime", "-c", "import coincalc.cli"], False),
                            ([PY, "-I", "-S", "-X", "importtime", "-c", clean_code], True)):
            _w, rc, _o, err = run_child(argv)
            rows = block(err)
            if rc != 0 or not rows:
                raise Fatal(f"import profile failed: {err[-500:]}")
            total = rows[-1][2] / 1000.0
            if clean:
                samples.setdefault("import.clean_coincalc_ms", []).append(total)
                continue
            samples.setdefault("import.coincalc_ms", []).append(total)
            by_name = {name: (s, c) for name, s, c in rows}
            for mod in IMPORT_MODULES:
                key = f"import.{mod.split('.')[-1]}.self_ms"
                samples.setdefault(key, []).append(by_name.get(mod, (0, 0))[0] / 1000.0)
            std = sum(by_name[m][1] for m in IMPORT_STDLIB if m in by_name) / 1000.0
            samples.setdefault("import.stdlib_ms", []).append(std)
    return {k: statistics.median(v) for k, v in samples.items()}


# ----------------------------------------------------------------- phases


class Bench:
    def __init__(self, seed: int):
        self.seed = seed
        self.expected = wl.load_expected()
        with open(os.path.join(ROOT, wl.TABLE_FILE), encoding="utf-8") as fh:
            text = fh.read()
        if wl.sha256(text) != self.expected["table_sha256"]:
            raise Fatal("the bundled table differs from the one the expected outcomes "
                        "were recorded from; run perfbench/record.py")
        self.lines = text.splitlines()
        self.cc = None

    def library(self):
        if self.cc is None:
            sys.path.insert(0, SRC)
            import coincalc

            if not os.path.abspath(coincalc.__file__).startswith(SRC + os.sep):
                raise Fatal(f"imported coincalc from {coincalc.__file__}, not {SRC}")
            self.cc = coincalc
        return self.cc

    def stream(self, workload: str):
        """The seeded operations of a workload; every phase of a run draws the
        same ones, so a traced phase times what the untraced one timed."""
        rng = random.Random(f"{workload}:{self.seed}")
        if workload == "cli_oneshot":
            return cli_ops(self.expected, rng)
        cc = self.library()
        if workload == "report_sweep":
            return report_ops(cc, self.expected, rng, cc.load_default_tables())
        if workload == "scan_sweep":
            return scan_ops(cc, self.expected, rng, cc.load_default_tables().raw)
        return curation_ops(cc, self.expected, rng, self.lines)

    def phase(self, workload: str, seconds: float, tracer=None, limit: int = sys.maxsize):
        tally = Tally()
        ops = self.stream(workload)
        if workload == "cli_oneshot":
            refs, total = cli_loop(ops, seconds, tally, tracer is not None, limit)
            return tally, refs, total
        if tracer is not None:
            tracer.install()
        try:
            refs = inprocess_loop(ops, seconds, tally, tracer, limit)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return tally, [r / 1e9 for r in refs], tracer.summary() if tracer else None


def conditions(args) -> None:
    load = os.getloadavg()
    print(f"conditions: python {sys.version.split()[0]} ({PY}), nproc {os.cpu_count()}, "
          f"load average at start {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}, "
          f"seed {args.seed}, workload {args.workload}, seconds {args.seconds}, "
          f"trace {args.trace}")


def describe(workload: str, tally: Tally, refs: list[float], label: str = "") -> None:
    n = len(tally.ratios)
    tail = TAIL[workload]
    ref_kind = "bare `python -c pass`" if workload == "cli_oneshot" else "reference loop"
    print(f"[{workload}{label}] operations {tally.attempted}, failed {tally.failed} "
          f"(error_rate {tally.failed / max(1, tally.attempted):.4f} ratio)")
    if n:
        lat_ms = [x / 1e6 for x in tally.lat_ns]
        print(f"  lat_p50_xref {statistics.median(tally.ratios):.4f} ratio; "
              f"lat_p{round(tail * 100)}_xref {percentile(tally.ratios, tail):.4f} ratio "
              f"(n = {n}, {n - int(tail * n)} samples beyond)")
        print("  for reading only: " + ", ".join(
            f"p{p * 100:g} {percentile(tally.ratios, p):.4f}" for p in (0.9, 0.95, 0.99)
            if n * (1 - p) >= 10) + " (xref ratios with at least ten samples beyond)")
        print(f"  absolute, for reading only: p50 {statistics.median(lat_ms):.3f} ms, "
              f"p{round(tail * 100)} {percentile(lat_ms, tail):.3f} ms; {ref_kind} median "
              f"{statistics.median(refs) * 1e3:.4f} ms (min {min(refs) * 1e3:.4f}, "
              f"max {max(refs) * 1e3:.4f}, {len(refs)} measured)")
    for key, (num, base) in sorted(tally.props.items()):
        print(f"  input: {key}: {share(num, base)}")
    for what in tally.failures[:5]:
        print(f"  FAILED: {what}")


def run_plain(bench: Bench, args) -> tuple[dict, Tally]:
    w = args.workload
    setup, setup_ratios = measure_setup(w)
    setup_s = statistics.median(setup_ratios) * BARE_NOMINAL_S
    print(f"  setup_s {setup_s:.4f} s at a bare start of {BARE_NOMINAL_S} s: median "
          f"set-up / bare launch {statistics.median(setup_ratios):.4f} over {len(setup)} "
          f"fresh processes; absolute, for reading only: "
          f"{', '.join(f'{s:.4f}' for s in setup)} s")
    if w != "cli_oneshot":
        bench.library()
    tally, refs, _ = bench.phase(w, args.seconds)
    describe(w, tally, refs)
    if w == "cli_oneshot":
        probe_defects(bench.expected, tally)
    if not tally.ratios:
        raise Fatal("no operation completed")
    tail = TAIL[w]
    metrics = {
        "lat_p50_xref": (statistics.median(tally.ratios), "ratio"),
        "lat_tail_xref": (percentile(tally.ratios, tail), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (tally.peak_rss_kb / 1024.0, "MB"),
    }
    print(f"  lat_tail_xref is lat_p{round(tail * 100)}_xref here; peak_rss_mb is the "
          + ("largest child" if w == "cli_oneshot" else "benchmark process doing the work"))
    return metrics, tally


def layer_counters(c: dict) -> dict[str, tuple[float, str, str]]:
    """Repeat shares and SNF input sizes from the tracer's counters."""
    out = {}
    for name, key in (("spheres.lookup", "lookup"), ("spheres.kernel_chain", "kernel_chain"),
                      ("fgab.snf", "snf")):
        num, base = c.get(f"{key}.repeats", 0), c.get(f"{key}.calls", 0)
        out[f"{name}.repeat_share"] = (num / max(1, base), "share", share(num, base))
    for key, unit in (("max_dim", "count"), ("max_entry_bits", "bits")):
        out[f"fgab.snf.{key}"] = (c.get(f"snf.{key}", 0), unit, str(c.get(f"snf.{key}", 0)))
    return out


def run_traced(bench: Bench, args) -> tuple[dict, Tally]:
    metrics = {}
    for key, value in sorted(import_profile().items()):
        metrics[key] = (value, "ms")
        print(f"  {key} {value:.3f} ms")
    bench.library()
    overall = Tally()
    for w in wl.WORKLOADS:
        budget = args.seconds * TRACE_SHARE[w] / 2
        plain, refs, _ = bench.phase(w, budget)
        describe(w, plain, refs, " untraced")
        tracer = Tracer()
        # The same operations as the untraced phase, however long they take.
        tally, refs, summary = bench.phase(w, math.inf, tracer, plain.attempted)
        describe(w, tally, refs, " traced")
        if w == "cli_oneshot":
            probe_defects(bench.expected, tally)
        for t in (plain, tally):
            overall.attempted += t.attempted
            overall.failed += t.failed
            overall.failures += t.failures
        n_ops = max(1, tally.attempted)
        overhead = statistics.median(tally.ratios) - statistics.median(plain.ratios)
        print(f"  [{w}] tracing overhead: traced lat_p50_xref - untraced = {overhead:.4f} "
              f"ratio; {summary.get('spans', 0)} spans kept, "
              f"{summary.get('dropped_spans', 0)} over the cap")
        print(f"  [{w}] per operation: {'function':<38} {'calls':>9} {'self_ms':>10} {'total_ms':>10}")
        for name in NAMES:
            calls, self_ns, total_ns = summary["functions"].get(name, (0, 0, 0))
            print(f"  [{w}]                {name:<38} {calls / n_ops:9.3f} "
                  f"{self_ns / 1e6 / n_ops:10.5f} {total_ns / 1e6 / n_ops:10.5f}")
            if name in PER_LAYER[w]:
                metrics[f"{w}.{name}.calls"] = (calls / n_ops, "count/op")
                metrics[f"{w}.{name}.self_ms"] = (self_ns / 1e6 / n_ops, "ms/op")
                metrics[f"{w}.{name}.total_ms"] = (total_ns / 1e6 / n_ops, "ms/op")
        for name, (value, unit, text) in layer_counters(summary["counters"]).items():
            print(f"  [{w}] {name}: {text}")
            if name in PER_LAYER_COUNTERS.get(w, ()):
                metrics[f"{w}.{name}"] = (value, unit)
        if w != "cli_oneshot":
            os.makedirs(SPAN_DIR, exist_ok=True)
            path = os.path.join(SPAN_DIR, f"spans-{w}-seed{args.seed}.csv")
            tracer.write_spans(path)
            print(f"  [{w}] spans written to {os.path.relpath(path, ROOT)}")
    return metrics, overall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "coincalc", "__init__.py")):
            raise Fatal(f"no coincalc sources under {SRC}; run from the repository root")
        conditions(args)
        bench = Bench(args.seed)
        metrics, tally = (run_traced if args.trace else run_plain)(bench, args)
    except Fatal as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
