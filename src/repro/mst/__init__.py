"""Reference MST algorithms and validation."""

from .boruvka import STAGE_NAMES, BoruvkaStats, IterationStats, boruvka
from .certificate import certify_minimum_forest
from .filter_kruskal import filter_kruskal
from .kruskal import kruskal
from .prim import prim
from .result import MSTResult
from .union_find import UnionFind, pointer_jump
from .validate import forest_weight, is_spanning_forest, validate_mst
from .variants import maximum_spanning_forest, minimax_path_weight

__all__ = [
    "boruvka",
    "BoruvkaStats",
    "IterationStats",
    "STAGE_NAMES",
    "kruskal",
    "filter_kruskal",
    "certify_minimum_forest",
    "prim",
    "MSTResult",
    "UnionFind",
    "pointer_jump",
    "forest_weight",
    "is_spanning_forest",
    "validate_mst",
    "maximum_spanning_forest",
    "minimax_path_weight",
]
