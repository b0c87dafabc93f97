"""Hasse-Witt invariants, genera and ordinariness of cyclotomic function
fields over F_q(T), decided through power sums of monic polynomials and
base-q digit combinatorics, with an exhaustive scanner over irreducible
moduli and brute-force oracle verification suites.

The generating polynomials (bpoly) and the oracle (oracle) are not imported
with the package: their names below resolve on first access."""

from .digits import gekeler_degree_bound, target_degree
from .errors import (
    CarlitzHWError,
    CostCeilingError,
    DomainError,
    InternalError,
    OverflowLimitError,
    ResourceLimitError,
)
from .fieldcore import DEFAULT_LIMIT, FieldCtx, make_field
from .invariants import InvariantsReport, genus, hasse_witt, is_ordinary, is_ordinary_plus
from .polyring import (
    NEG_INF,
    FqPoly,
    Modulus,
    format_poly,
    irreducible_enumerate,
    is_irreducible,
    monic_enumerate,
    parse_poly,
    residue_pow,
)
from .powersums import s_exact, s_mod
from .scan import ScanRecord, scan_degree, stream_degree, write_records

__version__ = "0.1.0"

_LAZY = {
    "UPoly": "bpoly", "b_poly": "bpoly", "c_poly": "bpoly",
    "f_poly": "oracle", "run_verify_suite": "oracle", "s1_closed_form": "oracle",
    "verify_identities": "oracle", "z_bar": "oracle",
}


def __getattr__(name):
    """The lazy names, imported from their module on first access (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value
