"""movclust: movement-pattern clustering for fixed-length time series."""

from .core_data import (
    Observations,
    SeriesCollection,
    assemble_series,
    discretize_collection,
    drop_sparse,
    fill_collection,
    filter_outliers,
    load_long_csv,
    load_wide_csv,
    scale_collection,
)
from .clustering import (
    ClusterAssignment,
    Dendrogram,
    agglomerative,
    cut_dendrogram,
    kmeans,
    kmedoids,
)
from .distances import DistanceMatrix, distance_matrix, normalize_matrix
from .evaluation import evaluate, mpbi, sweep_k
from .image_features import cluster_features, extract_features, load_external_features

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
