# Tensors, tapes, and gradient checking
# -------------------------------------
# The library computes on a small reverse-mode autodiff engine over numpy
# arrays. Inside a `with Tape():` block ops record themselves on the tape;
# backward() replays the records in reverse, deposits gradients on the
# leaves, and drops each record once it has run it, so an activation is freed
# as soon as the backward has passed it. Outside a block nothing records, and
# leaving the block drops whatever records remain.

import numpy as np

from s2moe import Tape, Tensor, backward, grad_check
from s2moe.tensor import matmul, relu, tsum

# A two-layer ReLU network, differentiated end to end.
rng = np.random.default_rng(0)
w1 = Tensor(rng.standard_normal((4, 8)), dtype=np.float64, requires_grad=True)
w2 = Tensor(rng.standard_normal((8, 1)), dtype=np.float64, requires_grad=True)
x = Tensor(rng.standard_normal((3, 4)), dtype=np.float64)

with Tape():
    loss = tsum(matmul(relu(matmul(x, w1)), w2))
    backward(loss)

print("loss:", loss.item())
print("dloss/dw2 first rows:\n", w2.grad[:3].T)

# Every gradient in this package is verifiable against central finite
# differences. grad_check returns the max relative error over coordinates.
err = grad_check(
    lambda v: tsum(matmul(relu(matmul(v, Tensor(w1.data))), Tensor(w2.data))),
    x,
)
print(f"finite-difference agreement: {err:.2e} (expect < 1e-4 at 64-bit)")

# Calling backward twice without re-running forward is an error: the first
# backward dropped the records the second one would need.
with Tape():
    v = Tensor([1.5], dtype=np.float64, requires_grad=True)
    y = tsum(v * v)
    backward(y)
    print("d(v^2)/dv at 1.5:", v.grad[0])
    try:
        backward(y)
    except Exception as exc:
        print("second backward rejected:", exc)
