"""smoothlab: perturbed-instance experiments for simplex walks, random-matrix
condition numbers, and perceptron margins."""

__version__ = "0.1.0"
