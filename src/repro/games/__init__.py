"""Strategic-game substrate for the logit-dynamics reproduction.

Exports the profile-space machinery, the game base classes, potential
games, the paper's coordination / dominant-strategy / lower-bound
constructions, congestion games, the Ising model and finite opinion games.
"""

from .base import (
    Game,
    NormalFormGame,
    TableGame,
    random_game,
)
from .constructions import (
    BirthDeathPotentialGame,
    Theorem35Game,
    TwoWellGame,
    theorem35_potential,
)
from .coordination import (
    CoordinationParams,
    GraphicalCoordinationGame,
    TwoPlayerCoordinationGame,
    basic_coordination_payoffs,
)
from .congestion import CongestionGame, SingletonCongestionGame, linear_delays
from .dominant import (
    AnonymousDominantGame,
    dominant_profile,
    dominant_strategies,
    random_dominant_game,
)
from .maxsolvable import (
    MaxSolvableResult,
    max_solve,
    never_best_response_strategies,
)
from .local import LocalInteractionGame, derive_edge_potential
from .opinion import FiniteOpinionGame, opinion_edge_payoffs, opinion_edge_potential
from .ising import (
    IsingGame,
    spins_from_profile,
)
from .potential import (
    ExplicitPotentialGame,
    PotentialGame,
    local_variations,
    max_global_variation,
    max_local_variation,
    zeta_barrier,
)
from .space import ProfileSpace

__all__ = [
    "MaxSolvableResult",
    "max_solve",
    "never_best_response_strategies",
    "Game",
    "NormalFormGame",
    "TableGame",
    "random_game",
    "BirthDeathPotentialGame",
    "Theorem35Game",
    "TwoWellGame",
    "theorem35_potential",
    "CoordinationParams",
    "GraphicalCoordinationGame",
    "TwoPlayerCoordinationGame",
    "basic_coordination_payoffs",
    "CongestionGame",
    "SingletonCongestionGame",
    "linear_delays",
    "AnonymousDominantGame",
    "dominant_profile",
    "dominant_strategies",
    "random_dominant_game",
    "LocalInteractionGame",
    "derive_edge_potential",
    "FiniteOpinionGame",
    "opinion_edge_payoffs",
    "opinion_edge_potential",
    "IsingGame",
    "spins_from_profile",
    "ExplicitPotentialGame",
    "PotentialGame",
    "local_variations",
    "max_global_variation",
    "max_local_variation",
    "zeta_barrier",
    "ProfileSpace",
]
