"""Exact singularity analysis of torus varieties given by polyhedral divisors
on curves: smooth / isolated / rational / Cohen-Macaulay / (Q-)Gorenstein /
log-terminal / canonical / elliptic / (Q-)factorial verdicts, and construction
of factorial examples with explicit ring presentations."""

from .divclass import (
    ClassGroup,
    Factoriality,
    GorensteinSolution,
    NotQGorenstein,
    class_group,
    factoriality_det,
    generator_degrees,
    gorenstein_solve,
    gorenstein_solve_numerical,
)
from .pdiv import (
    A1,
    P1,
    Curve,
    Point,
    PolyhedralDivisor,
    QDivisor,
    evaluate,
    extremal_data,
    floor_degree,
    higher_direct_dims,
    is_proper,
    polyhedral_divisor,
)
from .polyhedra import (
    Cone,
    QuasiFan,
    SigmaPolyhedron,
    cayley_cone,
    dual_cone,
    is_regular,
    make_cone,
    minkowski_sum,
    normal_quasifan,
    sigma_polyhedron,
    support_value,
)
from .ratlin import (
    Rat,
    SmithForm,
    determinant,
    ext_gcd_multi,
    mu,
    smith_normal_form,
    solve_exact,
)
from .singcheck import (
    Verdict,
    boundary_data,
    check_cm,
    check_elliptic,
    check_isolated,
    check_log_terminal,
    check_rational,
    check_smooth,
    classify_canonical,
    discrepancies,
)
from .ufdgen import (
    AdmissibleData,
    Presentation,
    admissible_data,
    classify_isolated_factorial,
    construct_divisor,
    hilbert_compare,
    presentation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
