"""Test oracles that recompute a result by an independent route."""

import random

from hopfring.linalg import Mat, invert
from hopfring.repn import Module


def conjugated_module(M, seed):
    """M rewritten in a random basis (drops weight data; used as an oracle)."""
    rng = random.Random(seed)
    H = M.algebra
    f = H.field
    d = M.dim
    while True:
        draws = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
        p = Mat(f, d, d, [{j: f.from_int(v) for j, v in enumerate(r) if v} for r in draws])
        try:
            pinv = invert(p)
            break
        except ValueError:
            continue
    acts = {name: pinv * M.acts[name] * p for name in M.acts}
    return Module(H, acts, label=M.label, weights=None, check=False)
