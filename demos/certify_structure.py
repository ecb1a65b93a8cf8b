"""Feedback-vertex certificates for the multicolored-clique family.

The second hard-instance family keeps its entire structure reachable from
2k+2 hub vertices: removing the terminals and the per-part middle vertices
leaves only paths and small trees.  This script builds an instance, plants
its solution, and classifies the components behind the certificate.
"""

from collections import Counter

from lbcut import (
    Graph,
    MulticoloredCliqueInstance,
    build_fvs_witness,
    decode_fvs,
    forward_cut_fvs,
    gen_fvs,
    verify_cut,
    verify_fvs,
)

# two parts of three vertices; clique {0, 4} plus distractor edges
source = Graph(6, [(0, 4), (0, 5), (1, 3), (2, 4)])
mc = MulticoloredCliqueInstance(source, k=2, nu=3)
clique = (0, 4)

out = gen_fvs(mc)
h = out.instance
print(f"source: k={mc.k} parts of nu={mc.nu}, m={source.m} cross edges")
print(f"hard instance: n={h.graph.n} m={h.graph.m} beta={h.beta} lambda={h.lam}")

cut = forward_cut_fvs(out, clique)
print(f"\nforward cut: {len(cut)} edges "
      f"(= 2k(nu-1)m + m - C(k,2)), verified: {verify_cut(h, cut).ok}")
print(f"decoded back: {decode_fvs(out, cut)}")

witness = build_fvs_witness(out)
print(f"\nfeedback vertex set: {sorted(witness)} (size 2k+2 = {2 * mc.k + 2})")
print(f"acyclic after removal: {verify_fvs(h.graph, witness)}")

# classify what is left once the hubs are gone, by the kind of each
# vertex: the first field of its anchor's or its path's tag
kind = {v: tag.split(":")[0] for tag, v in out.vertex_by_role.items()}
for tag, seq in out.paths.items():
    kind.update(dict.fromkeys(seq[1:-1], tag.split(":")[0]))
g = h.graph
seen = set(witness)
shapes = Counter()
for v in range(g.n):
    if v in seen:
        continue
    stack, comp = [v], []
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        comp.append(x)
        stack.extend(w for w in g.adj[x] if w not in seen)
    kinds = {kind[x] for x in comp}
    if kinds & {"ve", "eu", "el"}:
        shapes["edge gadget (tree)"] += 1
    elif len(kinds) > 1:
        shapes["shortcut-joined path pair"] += 1
    else:
        shapes["lone path"] += 1
print("components behind the certificate:")
for shape, count in shapes.most_common():
    print(f"  {shape}: {count}")

# anchors and path records describe the whole instance
print(f"\nskeleton: {len(out.vertex_by_role)} anchors joined by {len(out.paths)} "
      f"subdivided paths, whose interiors are the other "
      f"{g.n - len(out.vertex_by_role)} vertices")
