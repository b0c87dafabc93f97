"""Hasse-Witt invariants, genera and ordinariness of cyclotomic function
fields over F_q(T), decided through power sums of monic polynomials and
base-q digit combinatorics, with an exhaustive scanner over irreducible
moduli and brute-force oracle verification suites."""

from .bpoly import UPoly, b_poly, c_poly, u_degree
from .digits import (
    DigitProfile,
    digit_profile,
    gekeler_degree_bound,
    rho_sequence,
    target_degree,
)
from .errors import (
    CarlitzHWError,
    CostCeilingError,
    DomainError,
    InternalError,
    OverflowLimitError,
    ResourceLimitError,
)
from .fieldcore import DEFAULT_LIMIT, FieldCtx, make_field
from .invariants import (
    InvariantsReport,
    genus,
    hasse_witt,
    is_ordinary,
    is_ordinary_plus,
    run_verify_suite,
    verify_identities,
    z_bar,
)
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
from .powersums import f_poly, s1_closed_form, s_exact, s_mod
from .scan import ScanRecord, scan_degree, stream_degree, write_records

__version__ = "0.1.0"
