"""graphstab: graph signal processing, graph neural networks and empirical
stability analysis under relative graph perturbations."""

__version__ = "0.1.0"

from .graphs import (
    GSO,
    DegenerateGraphError,
    build_gso,
    graph_shift,
    knn_sparsify,
    permute_gso,
    permute_signal,
    random_weighted_graph,
)
from .spectral import (
    EigenSystem,
    bank_response,
    eigendecompose,
    extreme_eigenvalues,
    integral_lipschitz_check,
)
from .filters import (
    filter_distance,
    filter_matrix,
    graph_convolution,
    spectral_norm,
)
from .perturbation import (
    PerturbationSpec,
    SingularEquationError,
    edge_dilation,
    misalignment,
    random_relative_perturbation,
    relative_distance,
    solve_relative_error,
)
from .gnn import (
    GNNModel,
    LayerSpec,
    TrainConfig,
    adam_init,
    adam_step,
    forward,
    init_model,
    penalty,
    smooth_l1_grad,
    smooth_l1_loss,
    train,
)
from .stability import (
    BoundReport,
    design_il_taps,
    discriminability_tradeoff_demo,
    empirical_filter_distance_sweep,
    empirical_gnn_distance,
    empirical_gnn_distance_sweep,
    filter_stability_bound,
    frequency_mixing_demo,
    gnn_stability_bound,
)
from .movielens import (
    RatingsMatrix,
    TaskSplit,
    build_task,
    load_ratings,
    pearson_graph,
    rmse,
)
