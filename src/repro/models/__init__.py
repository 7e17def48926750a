"""Recommender models: MF-FRS and DL-FRS with hand-derived gradients.

The paper evaluates two base models (Section III-A):

* **MF-FRS** — matrix factorisation; the interaction function is the
  fixed dot product of user and item embeddings.
* **DL-FRS** — neural collaborative filtering (NCF, Eq. 1); the
  interaction function is a learnable MLP tower whose parameters are
  part of the shared global model.

Both are implemented in pure NumPy with exact analytic gradients
(verified against numerical differentiation in the test suite), since
no deep-learning framework is available offline.
"""

from repro.models.base import GradientBundle, RecommenderModel, build_model
from repro.models.losses import sigmoid
from repro.models.mf import MFModel
from repro.models.mlp import Linear, MLPTower
from repro.models.ncf import NCFModel

__all__ = [
    "RecommenderModel",
    "GradientBundle",
    "build_model",
    "MFModel",
    "NCFModel",
    "Linear",
    "MLPTower",
    "sigmoid",
]
