"""Tour of the binary hypervector algebra.

Shows the three properties everything else in the package rests on:
random vectors are near-orthogonal, binding makes a vector unlike both
inputs, and bundling makes one similar to all of them.

Run: python3 demos/algebra_basics.py
"""

import numpy as np

from hdseizure import (
    Accumulator,
    bind,
    bundle,
    hamming_distance,
    random_hypervector,
)
from hdseizure.hypervector import similarity

DIM = 10000

a = random_hypervector(seed=1, tag=0, dim=DIM)
b = random_hypervector(seed=1, tag=1, dim=DIM)
c = random_hypervector(seed=1, tag=2, dim=DIM)

print(f"dimension: {DIM}")
print("\n-- orthogonality --")
print(f"hamming(a, b) = {hamming_distance(a, b):.4f}   (random pairs sit near 0.5)")
dists = [
    hamming_distance(random_hypervector(2, 2 * i, DIM), random_hypervector(2, 2 * i + 1, DIM))
    for i in range(200)
]
print(f"200 random pairs: mean {np.mean(dists):.4f}, spread {np.std(dists):.4f}")

print("\n-- binding (XOR) --")
ab = bind(a, b)
print(f"hamming(a xor b, a) = {hamming_distance(ab, a):.4f}   (unlike either input)")
print(f"hamming(a xor b, b) = {hamming_distance(ab, b):.4f}")
print(f"unbinding recovers:   bind(ab, b) == a -> {bind(ab, b) == a}")

print("\n-- bundling (majority vote) --")
bun = bundle([a, b, c])
for name, v in (("a", a), ("b", b), ("c", c)):
    print(f"similarity(bundle, {name}) = {similarity(bun, v):.4f}   (well above chance 0.5)")

print("\n-- weighted accumulation --")
# negative weights subtract: the result is pulled toward a, away from b
acc = Accumulator(DIM).add(a, 1.0).add(b, -1.0).add(c, 0.5)
out = acc.normalize()
print(f"similarity(out, a) = {similarity(out, a):.4f}")
print(f"similarity(out, b) = {similarity(out, b):.4f}   (subtracted)")
print(f"similarity(out, c) = {similarity(out, c):.4f}")
