"""uilkit: certified symbolic dynamics for tent-map inverse limit spaces.

Kneading data, Hofbauer towers, itinerary classification of folding points
and endpoints, monotone pull-back recurrence tests, subcontinuum chains, and
a generator for kneading words whose critical orbit is dense while the
cutting values are not.  All numerics are exact rationals or certified
interval enclosures; every asymptotic property is reported as a four-valued
verdict with a witness.
"""

from .errors import (ConditionViolated, ConfigError, ConstructionStuck,
                     CriticalHit, DomainError, InternalInconsistency,
                     NoRecurrenceWitness, NotAdmissible, PrecisionExhausted,
                     UilkitError, UnrealizableWord, UnresolvedComparison)
from .verdicts import Verdict
from .scalars import (Scalar, SignRelC, SlopeParam, critical_orbit, refine,
                      sign_rel_c, slope_exact, slope_for_prefix,
                      slope_interval, tent_apply)
from .kneading import (CuttingData, KneadingPrefix, QAsymptotics,
                       admissible_disjoint, admissible_q, cutting_data,
                       emit_dotted, example35_q, fibonacci_q,
                       nonrecurrent_example_nu, nu_from_orbit, nu_from_q,
                       parse_dotted, q_asymptotics, renorm_scan)
from .hofbauer import (OrbitTable, PrecriticalTable, TowerLevel,
                       cutting_value_gaps, f_apply, f_graph_data,
                       long_branched_evidence, tower_levels, upsilon_index,
                       verify_zzz)
from .inverse_limit import (ArcInterval, BackwardWord, PointClassification,
                            PullbackChain, TauData, TwoSidedItinerary,
                            basic_arc_interval, classification_report,
                            endpoint_itinerary_gen, endpoint_verdict,
                            folding_verdict, parse_itinerary, pull_back,
                            reluctance_search, tau_data, verify_monotone,
                            word_image_interval)
from .subcontinua import (ChainClass, CriticalProjectionChain, build_chain,
                          classify_chain, find_qcond_chains,
                          nasty_cascade_rule)
from .seqgen import (ExtensionPlan, WordLedger, extend_step, generate,
                     shortest_missing_pair, word_admissible)

__version__ = "0.1.0"
