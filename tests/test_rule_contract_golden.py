"""Golden digests of every dynamics family on one small game.

The six families — logit, parallel, concurrent at ``p = 0.4``, best
response, annealed ``beta_t = 0.01 t`` and round robin — run on the 10-ring
Ising game with a field, and every observable is reduced to a SHA-256
digest of its raw bytes:

* ``run(300, record_every=30)`` snapshots and predicate ``hitting_times``
  per engine route (the index state's gather tables and the matrix state;
  the annealed kernel has no gather route) and on the default
  ``state="auto"``, which must resolve to the index state for every
  time-invariant family and to the matrix state for the annealed one;
* the scalar ``simulate_loop`` references;
* the exact matrices: ``transition_matrix()`` (the round-robin family's
  per-player ``player_step_matrix``), the annealed ``transition_matrix_at``
  and ``evolve_distribution``;
* profiles and advanced stream words of seeded ensembles;
* a sharded ``estimate_tv_convergence`` curve.

The digests were recorded before the move-distribution rules were folded
into one contract, so any change in trajectories, random streams or exact
matrices shows up here as a mismatch.
"""

from __future__ import annotations

import hashlib

import networkx as nx
import numpy as np
import pytest

from repro.core import LogitDynamics
from repro.core.mixing import estimate_tv_convergence
from repro.core.variants import (
    AnnealedLogitDynamics,
    BestResponseDynamics,
    ConcurrentLogitDynamics,
    ParallelLogitDynamics,
    RoundRobinLogitDynamics,
)
from repro.engine import EnsembleSimulator
from repro.games import IsingGame

BETA = 0.7
N = 10


def ring_game() -> IsingGame:
    return IsingGame(nx.cycle_graph(N), coupling=1.0, field=0.2)


FAMILIES = {
    "logit": lambda game: LogitDynamics(game, BETA),
    "parallel": lambda game: ParallelLogitDynamics(game, BETA),
    "concurrent": lambda game: ConcurrentLogitDynamics(game, BETA, p=0.4),
    "best_response": lambda game: BestResponseDynamics(game),
    "annealed": lambda game: AnnealedLogitDynamics(game, lambda t: 0.01 * t),
    "round_robin": lambda game: RoundRobinLogitDynamics(game, BETA),
}

STATES = ["index", "matrix", "auto"]

#: the state ``state="auto"`` resolves to on the 10-ring
AUTO_RESOLVES_TO = {family: "index" for family in FAMILIES} | {"annealed": "matrix"}

SEEDED = ["logit", "parallel", "concurrent"]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def start_profile() -> np.ndarray:
    return np.array([0, 1] * (N // 2), dtype=np.int64)


def mostly_up(profiles: np.ndarray) -> np.ndarray:
    return np.sum(profiles, axis=1) >= 8


#: one digest per family: both engine routes and the default walk the same path
GOLDEN_RUN = {
    "logit": "b45106bef9cd61235caa93bf394c6b4437391cf242dd96437eff55093a32f6b2",
    "parallel": "d71238cb80b33a191b2aa3aad556de590a4f4f46e76a50d0ac3f73b29a194f28",
    "concurrent": "7b7450ed4192ce49e80c70e11a515258873b98e759f97c20f1745283ed02b36e",
    "best_response": "170c42dbc69fd66c1097d41112b669e2794535f3cc024dbc36a70a3e9accc5af",
    "annealed": "ce8fc37974a0f68fb3cabd52be53f729691a4bf51e2c033017002f57e7c85360",
    "round_robin": "5a04c369aa73f8c8ee8516582cfcf1321f39d50125e505a46661861bbd31a756",
}
GOLDEN_LOOP = {
    "logit": "e65d31c91d34b2da07464d0e8e7941c54a1d46f79ed5d1b559283df41235faa6",
    "parallel": "55f250b90c9404e624ab21a18c166821a5f14603e0dcfd40a5ec61033106c1bd",
    "concurrent": "17160e396755dc41009451bdc9de734b3be780d9ec3a139e28b19aa2ec685381",
    "best_response": "3d3d642d21cfa7bae0789efb39ee75760887fae8ced43470541026b801b0486e",
    "annealed": "3728384e7ad9a4bb020f31581ad10c7e651cbdf77892b10a9f8e8a482e142d08",
    "round_robin": "e926921f86a914a33c75dc1df168b4233b2a7fc56b3e046708aa77d7d5214993",
}
GOLDEN_MATRIX = {
    "logit": "4e6b58032e43e2d7cee8467f6ab5de1f571ced41c6fd04001074418a253733f3",
    "parallel": "aab5144905f3fd5167661862c085ce397cdb05142643d1a0343a80f1817ab9c8",
    "concurrent": "66041c9a9119a32f4a7114737ab75e85015c86933e6e9de6cc575f3026c438b1",
    "best_response": "e9eea7eccb0215c3bd5c6811e39fd8cef95647953f8644934ad4fb7c47a5a8a1",
    "annealed": "2c5438f27eda5d6d541e30fea5a222c7c9b944977432277b27b4499f6815e4cd",
    "round_robin": "e0e8a9bfccd42b684dfeb2e522a425873717f63039d04a1675238def9b9db018",
}
#: one digest per family, shared by both engine routes and the default
GOLDEN_SEEDED = {
    "logit": "cf0967cfec32f40cc9718e6036aade1a3e3dc35f042c6f069e5420214dd7eddc",
    "parallel": "116b9e063e016103c4f7aa7fb1dcef41caf4ffbb688022dbe95744bdef37a9bd",
    "concurrent": "bb41d488ccfe68a592b5387ee7c403cf86f379e5cce1737648cfea0988f3295c",
}
GOLDEN_TV = {
    "logit": "cf21317e25d6876688386f6be556f979c4cd7030475ca59996fc7dd43a3fadbc",
    "parallel": "880e1894bdc41f3d0bc9ee98ebf302c8c5b7168184b6d689a7e0407991091384",
    "concurrent": "8df9853e7cd329ea87c1532b06d3f0fcca4f9b6bbb07f8fe6bd9c5236c42ce3c",
}


def check_resolved(sim: EnsembleSimulator, family: str, state: str) -> None:
    expected = AUTO_RESOLVES_TO[family] if state == "auto" else state
    assert sim.state.kind == expected


def run_case(family: str, state: str) -> str:
    dynamics = FAMILIES[family](ring_game())
    sim = dynamics.ensemble(
        8, start=start_profile(), rng=np.random.default_rng(21), state=state
    )
    check_resolved(sim, family, state)
    snapshots = sim.run(300, record_every=30)
    sim.reset(start=np.zeros(N, dtype=np.int64))
    times = sim.hitting_times(mostly_up, max_steps=400)
    return digest(snapshots.astype(np.int64), times)


def loop_case(family: str) -> str:
    dynamics = FAMILIES[family](ring_game())
    path = dynamics.simulate_loop(start_profile(), 200, rng=np.random.default_rng(5))
    return digest(path)


def matrix_case(family: str) -> str:
    dynamics = FAMILIES[family](ring_game())
    if family == "round_robin":
        return digest(*(dynamics.player_step_matrix(i) for i in range(N)))
    if family == "annealed":
        size = dynamics.game.space.size
        mu = np.zeros(size)
        mu[0] = 1.0
        return digest(
            dynamics.transition_matrix_at(7), dynamics.evolve_distribution(mu, 12)
        )
    return digest(dynamics.transition_matrix())


def seeded_case(family: str, state: str) -> str:
    dynamics = FAMILIES[family](ring_game())
    sim = EnsembleSimulator.seeded(
        dynamics,
        np.random.SeedSequence(11).spawn(6),
        start=start_profile(),
        state=state,
    )
    check_resolved(sim, family, state)
    sim.run(40)
    sim.hitting_times(mostly_up, max_steps=60)
    return digest(sim.profiles.astype(np.int64), sim.kernel_state["streams"].words)


def tv_case(family: str) -> str:
    game = ring_game()
    dynamics = FAMILIES[family](game)
    reference = LogitDynamics(game, BETA).stationary_distribution()
    est = estimate_tv_convergence(
        dynamics,
        reference,
        num_replicas=48,
        epsilon=0.05,
        start=start_profile(),
        max_time=40,
        check_every=8,
        executor="serial",
        seed=4,
    )
    return digest(est.tv_curve, est.final_indices)


RUN_CASES = [
    (family, state)
    for family in FAMILIES
    for state in STATES
    if not (family == "annealed" and state == "index")
]


@pytest.mark.parametrize("family,state", RUN_CASES)
def test_run_and_hitting_times(family, state):
    assert run_case(family, state) == GOLDEN_RUN[family]


@pytest.mark.parametrize("family", list(FAMILIES))
def test_simulate_loop(family):
    assert loop_case(family) == GOLDEN_LOOP[family]


@pytest.mark.parametrize("family", list(FAMILIES))
def test_exact_matrices(family):
    assert matrix_case(family) == GOLDEN_MATRIX[family]


@pytest.mark.parametrize("family,state", [(f, s) for f in SEEDED for s in STATES])
def test_seeded_profiles_and_stream_words(family, state):
    assert seeded_case(family, state) == GOLDEN_SEEDED[family]


@pytest.mark.parametrize("family", SEEDED)
def test_sharded_tv_curve(family):
    assert tv_case(family) == GOLDEN_TV[family]
