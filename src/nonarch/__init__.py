"""Exact computation in non-archimedean Banach rings.

Truncated Tate/Laurent series over concrete valued fields, exact log-norm
arithmetic with interval-refined comparison, certified p-th root lifting
and compatible root towers, dual numbers, explicit unbounded
dual-number homomorphisms with divergence certificates, and Frobenius
p-th power decompositions over F-finite Laurent fields.
"""

from .errors import (DivisionByZero, IncompatibleContext, MaxStepsExceeded,
                     MissingCertificate, NoRootInField, NonarchError,
                     PrecisionExhausted, PreconditionFailed,
                     SupportCapExceeded, TowerObstruction,
                     UndecidableAtDepth)
from .fields import (FQ_LAURENT, PADIC, RATFUN_LAURENT, FieldSpec, Scalar,
                     check_aux_prime, scalar_from_literal, scalar_pth_root)
from .lognorm import (Cmp, LogNorm, RadiusDecl, in_value_group_rational,
                      ln_compare, ln_mul, ln_pow)
from .series import (LAURENT, POWER, TateSeries, spectral_power_estimate,
                     spectral_radius_laurent)
from .rootlift import (NearRootResult, RootTower, RootTrace, build_tower,
                       pth_root_near, pth_root_near_one,
                       tower_unit_certificate, verify_tower, verify_trace)
from .squarezero import SquareZeroElem, SquareZeroRing
from .derivlab import (Certificate, PolyInTF, nonintegral_certificate,
                       p_independence_certificate, pbasis_series, phi,
                       sparse_indices, sparse_series, unboundedness_table)
from .frobenius import (decomposition_artifact, derivative_span_witness,
                        pth_power_basis, scalar_decompose,
                        scalar_reconstruct, series_decompose,
                        series_reconstruct, termwise_tail_bound,
                        verify_norm_bound)

__version__ = "0.1.0"
