"""symcone: contact cones, capacities, and an order pseudo-metric on
star-shaped domains, with certified numerics throughout."""

__version__ = "0.1.0"

from .errors import (AuditError, DimensionMismatchError, DomainError,
                     IntegrationError, ParseError, ScanBudgetError,
                     SymconeError)
from .geometry import (angle_ratio_of, as_phase, liouville_field,
                       omega_matrix, split_uv, symplectic_pairing)
from .contact import (ContactHamiltonian, ContactIsotopy, SupportMeta,
                      adjoint_action, concatenate_isotopies,
                      contact_vector_field, identity_isotopy, lie_bracket,
                      model_field_contracting, model_field_expanding,
                      reeb_derivative, reeb_field)
from .exprs import (ExpressionHamiltonian, hamiltonian_from_expression,
                    random_hamiltonian)
from .domains import (ContainmentReport, Hyperboloid, IntegrableDomain,
                      SandwichCertificate, SmoothedWell, StarDomain,
                      build_smoothed_well, containment_audit, sandwich_solve)
from .orbits import (ActionSpectrum, OrbitRecord, PlanarWellSystem,
                     TorusLabel, area_constant, characteristic_spectrum,
                     closed_orbit_at_energy, homoclinic_loop,
                     integrate_planar, label_action_floor,
                     single_period_return)
from .smoothing import (SmoothedSymplectization, SmoothingCertificate,
                        SqueezeWitness, liouville_squeeze_witness,
                        radial_step_bump, symplecticity_defect,
                        symplectize_ambient, symplectize_many)
from .capacity import (CapacityInterval, NonsqueezingReport, candidate_pool,
                       capacity_hyperboloid, capacity_interval,
                       capacity_of_hamiltonian, nonsqueezing_verdict)
from .growth import (ConeElement, ConeFamily, DistanceInterval,
                     GrowthInterval, dw_bound_check, equivalence_and_order,
                     pseudo_distance, random_family, relative_growth_bounds,
                     scaling_family, submultiplicativity_check)
from .jsonio import domain_from_dict, domain_to_dict, dumps_json
