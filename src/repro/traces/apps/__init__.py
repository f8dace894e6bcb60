"""Synthetic proxy-application communication models, grouped by suite."""

from .amr import Boxlib
from .base import (AppModel, TraceBuilder, gather_flood, grid_dims,
                   grid_neighbors, pair_array, random_neighbors,
                   ring_neighbors, skewed_neighbors)
from .cesar import MOCFE, NEKBONE, CrystalRouter
from .designforward import AMG, MiniDFT, MiniFE, PARTISN, SNAP
from .exact import CNS, MultiGrid
from .exmatex import CMC, LULESH

__all__ = [
    "AppModel", "TraceBuilder",
    "gather_flood", "grid_dims", "grid_neighbors", "pair_array",
    "random_neighbors", "ring_neighbors", "skewed_neighbors",
    "AMG", "MiniDFT", "MiniFE", "PARTISN", "SNAP",
    "NEKBONE", "MOCFE", "CrystalRouter",
    "CNS", "MultiGrid", "LULESH", "CMC", "Boxlib",
]
