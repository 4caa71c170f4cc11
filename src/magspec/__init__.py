"""Desk-scale spectral laboratory for 2D magnetic Schrodinger operators with
a single non-degenerate magnetic well on a conformally flat metric.

The package assembles gauge-covariant finite-difference discretizations,
computes bottom-of-spectrum eigenpairs, and verifies them against the
closed-form semiclassical expansion data of the well: oscillator ladders
within each Landau level, leading-order quasimodes, the order-2 perturbation
operator, quadratic-form lower bounds, and spectral-gap detection for
periodically tiled wells.
"""

from .errors import ConfigError, DomainError, MagspecError, ParseError
from .expr import differentiate, evaluate, parse_expression, to_source
from .wellmodel import (FlatModelParams, WellData, WellInvariants,
                        derive_invariants, flat_model_spectrum, mu_jk2,
                        p_flat_spectrum)
from .hermite import (MomentTable, OscillatorBasis, hermite_norm_sq,
                      hermite_poly, moment_table, momentum_matrix,
                      nu_jk_check, oscillator_eigenfunction,
                      oscillator_eigenvalue, position_matrix)
from .fieldgeom import (FieldSetup, GaugePotential, Rectangle,
                        TransformedGauge, gauge_from_field, locate_minimum,
                        polynomial_B, scalar_curvature, well_data)
from .discretize import (AssembledOperator, Grid, assemble,
                         dump_matrix_market, field_mass, magnetic_form)
from .eigensolve import (EigenResult, eigenpairs_near, nearest_eigenvalue,
                         smallest_eigenpairs)
from .quasimode import (QuasimodeSpec, T2Matrix, assemble_T2,
                        build_leading_quasimode, clipped_cutoff, residual)
from .experiments import (FitResult, GapReport, MontgomeryReport, SweepConfig,
                          SweepRecord, TiledField, curved_well, detect_gaps,
                          fit_expansion, grid_size, montgomery_check,
                          run_gap_experiment, run_sweep, standard_well,
                          write_table)

__version__ = "0.1.0"
