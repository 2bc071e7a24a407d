"""Decompose the worst-case computation across bridges.

Brute force is exponential: a 27-bus chain of three 9-bus copies has
48,903,492 candidate sets. But each tie line between copies is a bridge,
and the worst case of a pair separated by bridges factors into per-subgraph
worst cases. One pass over the bridge tree does the split: the bridges
between load buses cut the network into blocks, the tree path from the
generator's block to the load's block gives the split points, every
off-path subtree collapses to a single bus, and each block on the path is
completed with an auxiliary generator/load at its bridge stubs. The pair's
worst case is the product of the per-stage maxima. Each stage here
enumerates only a few hundred sets.
"""

import numpy as np

import opfsens as ops

case = ops.read_case(ops.bundled_case_path())
base_net, base_params = ops.build_network(case)

copies, ties = ops.load_chain_config(ops.bundled_chain_config_path())
net, params = ops.build_chain(base_net, base_params, copies, ties)
print(f"chained network: {net.n_bus} buses, {net.n_gen} generators, "
      f"{net.n_edge} branches")

bridges = net.bridges
print("bridges:", [f"{u}-{v}" for u, v in (net.edge_label(e) for e in bridges)])

# Far pair: generator 1 (first copy) against load 7'' (last copy)
lj = net.index_of("7''") - net.n_gen
res = ops.worst_case_decomposed(net, 0, lj, collect_ties=True)
print(f"\nworst case generator 1 <- load 7'' = {res.value:.4f}")
print("stage breakdown:")
for k, sr in enumerate(res.stages):
    print(f"  stage {k}: {sr.stage.gen_label} <- {sr.stage.load_label} "
          f"on {sr.stage.network.n_bus} buses: factor {sr.factor:.4f}")
    print(f"           binding {sr.argmax.describe(sr.stage.network)}")
print("product of factors:", f"{np.prod(res.factors):.4f}")

# The middle copy multiplies: its factor (> 1) scales every far pairing.
print(f"\nmiddle-copy multiplier: {res.factors[1]:.4f}")

# Near pair: everything on the far side of the first tie collapses.
near = ops.worst_case_decomposed(net, 0, net.index_of("5") - net.n_gen)
print(f"\nnear pair (generator 1 <- load 5): {near.value:.4f}")
for p in near.decomposition.pruned:
    print(f"  pruned {len(p.replaced)} buses behind bridge "
          f"{p.bridge[0]}-{p.bridge[1]} into one {p.kind}")

# Exactness check at desk scale: a 2-copy chain (53130 candidates) is still
# small enough to enumerate directly.
two, _ = ops.build_chain(base_net, base_params, 2, [ops.TieLine(0, 7, 1, 4)])
direct = ops.worst_case_all(two)
print(f"\n2-copy cross-check ({direct.candidates_total} candidates):")
worst = 0.0
for i in range(3):
    for j in range(two.n_load):
        dec = ops.worst_case_decomposed(two, i, j)
        worst = max(worst, abs(dec.value - direct.cwc[i, j]))
print(f"max |decomposed - direct| over 36 pairs: {worst:.2e}")
