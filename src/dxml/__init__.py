"""Multi-label classification via embedded label graphs and clustered k-NN.

Pipeline: build a label co-occurrence graph from the training set, embed its
nodes with random walks plus skip-gram, project each point's label set to an
embedding-space target, train a sparse-input network toward those targets
under a smooth-L1 loss, cluster the embedded training points, and predict by
aggregating the label sets of nearest neighbors inside the closest cluster.
"""

from .cluster import ClusterIndex, kmeans, nearest_clusters
from .data_io import (
    Dataset,
    LabelSet,
    SparseRows,
    SparseVector,
    load_repo_file,
    normalize_features,
    parse_repo_file,
    save_repo_file,
    write_repo_file,
)
from .errors import (
    DataFormatError,
    DegenerateTargetError,
    DxmlError,
    ModelFileError,
    PointError,
    ValidationError,
)
from .graph_embed import (
    DeepWalkConfig,
    EmbeddingMatrix,
    WalkCorpus,
    embed_labels,
    generate_walks,
    train_skipgram,
)
from .label_graph import LabelGraph, build_label_graph
from .label_projection import project_targets
from .metrics import MetricReport, evaluate
from .model_io import ModelArtifacts, load_model, save_model
from .net import (
    MlpModel,
    OptimizerState,
    TrainConfig,
    init_model,
    loss_and_gradients,
    sgd_step,
    smooth_l1,
)
from .predictor import (
    Prediction,
    knn_batch,
    predict,
    predict_batch,
    score_neighbors,
    top_p,
)

__version__ = "0.6.0"

__all__ = [
    "ClusterIndex", "kmeans", "nearest_clusters",
    "Dataset", "LabelSet", "SparseRows", "SparseVector",
    "load_repo_file", "normalize_features", "parse_repo_file",
    "save_repo_file", "write_repo_file",
    "DataFormatError", "DegenerateTargetError", "DxmlError",
    "ModelFileError", "PointError", "ValidationError",
    "DeepWalkConfig", "EmbeddingMatrix", "WalkCorpus",
    "embed_labels", "generate_walks", "train_skipgram",
    "LabelGraph", "build_label_graph",
    "project_targets",
    "MetricReport", "evaluate",
    "ModelArtifacts", "load_model", "save_model",
    "MlpModel", "OptimizerState", "TrainConfig",
    "init_model", "loss_and_gradients",
    "sgd_step", "smooth_l1",
    "Prediction", "knn_batch", "predict",
    "predict_batch", "score_neighbors", "top_p",
    "__version__",
]
