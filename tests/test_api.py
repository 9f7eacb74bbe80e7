"""The public API: every name that ``from movclust import *`` gives."""

import movclust

#: Changed only on purpose, when a public name is added or removed.
PUBLIC = [
    "ClusterAssignment", "Dendrogram", "DistanceMatrix", "Observations", "SeriesCollection",
    "agglomerative", "assemble_series", "cluster_features", "clustering", "core_data",
    "cut_dendrogram", "discretize_collection", "distance_matrix", "distances", "drop_sparse",
    "errors", "evaluate", "evaluation", "extract_features", "fill_collection", "filter_outliers",
    "image_features", "kmeans", "kmedoids", "load_external_features", "load_long_csv",
    "load_wide_csv", "mpbi", "normalize_matrix", "scale_collection", "sweep_k", "tables",
]


def test_public_names_are_pinned():
    assert sorted(movclust.__all__) == PUBLIC
