"""Exact calculator for coincidence invariants of maps from spheres into
real, complex and quaternionic projective spaces.

Computes Reidemeister numbers, the minimum numbers MC and MCC, and the four
Nielsen numbers N#, N~, N, NZ over curated homotopy-group tables, entirely in
exact integer and rational arithmetic.
"""

from __future__ import annotations

import os

from .fgab import (
    Cmp,
    FgAbError,
    FgAbGroup,
    GroupElement,
    Homomorphism,
    InputError,
    Subgroup,
    direct_sum,
    image,
    kernel,
    smith_normal_form,
    subgroup_cmp,
)
from .invariants import (
    INF,
    InvariantValue,
    Report,
    ScanResult,
    ScanVerdict,
    WeckenAnswer,
    WeckenStatus,
    chain_check,
    dichotomy_check,
    equivalence_scan,
    fin,
    kervaire_exception,
    projective_report,
    sphere_report,
    unk,
    wecken_status,
)
from .projective import (
    COMPLEX,
    Field,
    ProjSpace,
    QUATERNION,
    REAL,
    decompose_valid,
    parse_field,
    space,
)
from .selfco import (
    KVector,
    Looseness,
    Verdict,
    fiber_projection_self_loose,
    quaternion_counterexample,
    residual_not_parallel,
    sample_unit_vectors,
    self_loose,
    selfmap_s,
)
from .spheres import (
    GammaValue,
    SphereClass,
    SphereTables,
    ValidationReport,
)
from .stable import StableElement, StableRing, Unknown
from .tables import (
    OutOfTabulatedRange,
    ParseError,
    SchemaError,
    TableError,
    TableSet,
    UnregisteredName,
    load_tables,
    parse_tables,
    serialize_tables,
)

__version__ = "0.1.0"

DATA_PACKAGE = "coincalc.data"
DEFAULT_TABLE_FILE = "homotopy_tables.txt"


def default_table_text() -> str:
    """The text of the bundled homotopy table file.

    Read from next to this module with os.path, which every interpreter has
    loaded at start; importlib.resources and pathlib take tens of ms to
    import, so they serve only installs where the data is not a plain file.
    """
    path = os.path.join(os.path.dirname(__file__), "data", DEFAULT_TABLE_FILE)
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    from importlib import resources

    return resources.files(DATA_PACKAGE).joinpath(DEFAULT_TABLE_FILE).read_text("utf-8")


def load_default_tables() -> SphereTables:
    """Load the bundled dataset into a ready-to-query table interface."""
    return SphereTables(parse_tables(default_table_text()))
