"""smoothlab: perturbed-instance experiments for simplex walks, random-matrix
condition numbers, and perceptron margins."""

from . import bounds, errors, experiments, numkit, perceptron, perturb, polytope, simplex

__all__ = [
    "bounds",
    "errors",
    "experiments",
    "numkit",
    "perceptron",
    "perturb",
    "polytope",
    "simplex",
]

__version__ = "0.1.0"
