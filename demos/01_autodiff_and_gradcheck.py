# Autodiff substrate: build a small computation, pull gradients off the tape,
# and cross-check them against central finite differences.

import numpy as np

from csmoe.numerics import (
    Tensor, parameter, matmul, softmax, layer_norm, entropy, backward, check_gradients,
)

rng = np.random.default_rng(0)

# A tensor is a float64 array; a parameter additionally collects gradients.
w = parameter(rng.uniform(-1, 1, (3, 4)))
x = Tensor(rng.uniform(-1, 1, (5, 3)))

# Forward: logits -> softmax -> the mean of -p log p over the predicted distributions.
probs = softmax(matmul(x, w), axis=1)
loss = entropy(probs, 0.0)
print(f"toy softmax entropy: {loss.item():.6f}")

# Reverse sweep: every op recorded its parents and a backward closure.
backward(loss)
print(f"dL/dw has shape {w.grad.shape}, largest entry {np.abs(w.grad).max():.4f}")

# The built-in checker perturbs each element by +-h and compares.
report = check_gradients(lambda p: entropy(softmax(matmul(x, p['w']), axis=1), 0.0), {"w": w}, step=1e-5)
print(f"gradient check: max relative error {report.max_relative_error:.2e} "
      f"over {report.checked_elements} elements")

# layer_norm is the other workhorse sublayer; constant rows collapse to the bias.
row = Tensor([[7.0, 7.0, 7.0]])
print("layer_norm of a constant row:", layer_norm(row, Tensor(np.ones(3)), Tensor(np.zeros(3))).data)
