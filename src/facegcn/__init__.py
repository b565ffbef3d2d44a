"""facegcn: dynamic 3D face identification with spatio-temporal graph convolutions.

Pipeline: textured-mesh ingestion -> geodesic landmark augmentation ->
kNN patch features -> spatio-temporal landmark graph -> small ST-GCN
trained with SGD under a cross-emotion identification protocol.
"""

from . import (
    config,
    dataset_synth,
    errors,
    landmark_engine,
    mesh_core,
    patch_features,
    st_graph,
    stgcn_net,
)

__version__ = "0.1.0"

__all__ = [
    "config",
    "dataset_synth",
    "errors",
    "landmark_engine",
    "mesh_core",
    "patch_features",
    "st_graph",
    "stgcn_net",
    "__version__",
]
