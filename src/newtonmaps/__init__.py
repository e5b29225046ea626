"""Combinatorial maps on orientable surfaces and toroidal Newton graphs.

The package represents cellular embeddings by rotation systems on
darts, computes facial walks, duals and common refinements, decides map
equivalence through canonical keys, and exhaustively classifies Newton
graphs of orders 2 and 3 on the torus.
"""

__version__ = "0.1.0"

from .canon import (CanonicalKey, IsoResult, WitnessError, are_equivalent,
                    canonical_key)
from .duality import PGraph, abstract_p_graph, dual, refinement
from .embedded_map import (Defect, EmbeddedMap, MapStructureError,
                           UnsuitableMapError, ValidationReport,
                           degree_sequence, euler_characteristic,
                           face_degree_sequence, facial_walks, genus, make_map,
                           mirror, relabel, validate)
from .enumeration import (AtlasEntry, ClassificationMismatchError,
                          ClassificationReport, SelfDuality, Stratum,
                          UnsupportedOrderError, atlas_from_jsonl,
                          atlas_to_jsonl, classify, enumerate_newton,
                          report_to_json, self_duality, verify_atlas)
from .mapdoc import ParseError, map_to_dot, map_to_json_dict, parse, serialize
from .newton import EPropertyReport, EWitness, NewtonReport, is_newton

__all__ = [
    "AtlasEntry", "CanonicalKey", "ClassificationMismatchError",
    "ClassificationReport", "Defect", "EPropertyReport", "EWitness",
    "EmbeddedMap", "IsoResult", "MapStructureError", "NewtonReport",
    "PGraph", "ParseError", "SelfDuality", "Stratum", "UnsuitableMapError",
    "UnsupportedOrderError", "ValidationReport", "WitnessError",
    "abstract_p_graph", "are_equivalent", "atlas_from_jsonl",
    "atlas_to_jsonl", "canonical_key", "classify", "degree_sequence",
    "dual", "enumerate_newton", "euler_characteristic",
    "face_degree_sequence", "facial_walks", "genus", "is_newton",
    "make_map", "map_to_dot", "map_to_json_dict", "mirror", "parse",
    "refinement", "relabel", "report_to_json", "self_duality", "serialize",
    "validate", "verify_atlas",
]
