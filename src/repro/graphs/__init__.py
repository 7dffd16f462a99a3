"""Graph substrate: social-network topologies and cutwidth computation."""

from .cutwidth import cutwidth_exact, cutwidth_of_ordering
from .topologies import (
    binary_tree_graph,
    caterpillar_graph,
    clique_graph,
    erdos_renyi_graph,
    grid_graph,
    load_graph,
    path_graph,
    preferential_attachment_graph,
    random_regular_graph,
    ring_graph,
    small_world_graph,
    star_graph,
    stochastic_block_model_graph,
    torus_graph,
)

__all__ = [
    "cutwidth_exact",
    "cutwidth_of_ordering",
    "binary_tree_graph",
    "caterpillar_graph",
    "clique_graph",
    "erdos_renyi_graph",
    "grid_graph",
    "load_graph",
    "path_graph",
    "preferential_attachment_graph",
    "random_regular_graph",
    "ring_graph",
    "small_world_graph",
    "star_graph",
    "stochastic_block_model_graph",
    "torus_graph",
]
