"""Exact solver library for n-attack Roman domination on finite simple graphs."""

from .errors import (BadLimitError, BadSpecError, DuplicateVertexError, EmptyGraphError,
                     IncompatibleTorusError, InvalidEccdError, MixedLabelsError,
                     NotMinimumError, OutOfRangeError, ParseError, SelfLoopError,
                     TooLargeError, TwoRomanError, UnknownNeighborError)
from .families import FamilySpec, density, density_lower_bound, gamma_formula, generate
from .graph import (Graph, ball, build_graph, induced_subgraph, max_degree,
                    open_neighborhood)
from .graphio import (ParseResult, parse_graph_file, structured_document, to_dot,
                      write_graph_file, write_labeling)
from .labeling import (Labeling, ValidationReport, epn_set, partition, public_set,
                       validate, validate_by_enumeration, weight)
from .solver import (EccdSet, OptimalityCertificate, SolveOptions, SolveResult,
                     SolveStats, assign_private_neighbors, check_eccd,
                     eccd_to_labeling, enumerate_minimum_labelings,
                     find_02020_path, gamma_bruteforce, gamma_via_eccd,
                     is_optimal, max_eccd, p5_candidates,
                     solve, solve_finite_resources, strip_ones,
                     two_extremal_minimum)
from .tilings import (Patch, PatchSpec, PatternReport, TilingPattern,
                      ball_density_bounds, ball_density_sequence, ball_graph,
                      find_pattern, generate_patch, pattern_labeling,
                      pattern_table, verify_pattern)

__version__ = "0.1.0"
