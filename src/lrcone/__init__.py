"""Exact computations with Littlewood-Richardson cones and their
equivariant analogues: Horn inequalities, membership oracles, extremal
rays, and bounded Hilbert bases."""

__version__ = "0.1.0"

from .partitions import (
    coef_of_subsets,
    lr_coef,
    multi_coef,
    omega,
    tau,
    tau_inverse,
)
from .cones import (
    HornDatum,
    all_horn_data,
    enumerate_horn,
    format_point,
    horn_slack,
    inequality_system,
    member,
    nonvanishing,
    parse_point,
    shadow,
)
from .rays import (
    FacetDecomposition,
    Ray,
    certify,
    diagonal_no_facet_check,
    enumerate_rays,
    facet_rays,
    ind_hat,
    is_extremal,
    p2_hat,
    pi,
    pi_inverse,
    special_rays,
    swap_datum,
    type1_data,
    type1_ray,
)
from .hilbert import (
    hilbert_basis_bounded,
    is_indecomposable,
)
from .oracle import (
    LinealityError,
    dd_rays,
    sample_spectrum_sum,
)
