"""Random sign-coefficient polynomial systems on the torus.

Exact lattice geometry and resultants classify sampled systems against
the degenerate (exceptional) set; a numeric solver realizes their zero
cycles; discrepancy and Erdos-Turan statistics quantify how the zeros
approach the Haar measure on the unit torus, with every theorem bound
checked on every trial.
"""

from .discrepancy import (
    EtaReport,
    PolarBox,
    angle_discrepancy,
    box_count,
    discrepancy_bounds,
    erdos_turan_size,
    radius_discrepancy,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    SummaryTable,
    TrialRecord,
    emit_report,
    enumerate_d1,
    run_experiment,
    run_trial,
)
from .lattice import (
    LatticePolytope,
    convex_hull,
    facet_normals,
    minkowski_sum,
    mixed_volume,
    simplex_points,
    volume,
)
from .polynomials import (
    BernoulliSystem,
    IntPolynomial,
    directed_polynomial,
    sample_bernoulli_system,
    sup_norm_upper,
    support,
    system_from_dict,
    system_to_dict,
)
from .resultants import (
    DirectionalReport,
    classify_exceptional,
    eliminant_bivariate,
    resultant_univariate,
)
from .solver import (
    SolveDiagnostics,
    ZeroCycle,
    roots_univariate,
    solve_bivariate,
    solve_univariate_cycle,
)

__version__ = "0.1.0"
