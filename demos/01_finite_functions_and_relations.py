"""Tour of the base layer: canonical finite sets, functions, and relations.

A finite set is just a size; its elements are 0..n-1.  Functions carry their
whole graph, relations the set of their related pairs, and both compose,
tensor, and serialize.  Everything downstream (profiles, conversion, search) is built
from the handful of operations shown here.
"""

import json

from pcdres import (
    FinFun,
    Relation,
    braiding,
    compose,
    disjoint_union,
    enumerate_bijections,
    enumerate_functions,
    enumerate_injections,
    finfun_to_dict,
    fun_of_rel,
    identity,
    is_bijection,
    is_injection,
    rel_compose,
    rel_of_fun,
    rel_product,
    relation_to_dict,
)

print("== functions ==")
f = FinFun.from_map([0, 0, 1], 2)  # three inputs, two outputs, one collision
g = FinFun.from_map([1, 0], 2)
print("f =", f)
print("g =", g)
print("g . f =", compose(g, f))
print("f alongside g =", disjoint_union(f, g))
print("swap blocks 2|1:", braiding(2, 1).map)
print("f injective?", is_injection(f), " g bijective?", is_bijection(g))

print()
print("== enumeration ==")
print("all maps 2 -> 2:      ", [h.map for h in enumerate_functions(2, 2)])
print("injections 2 -> 3:    ", [h.map for h in enumerate_injections(2, 3)])
print("bijections 3 -> 3:    ", len(list(enumerate_bijections(3, 3))), "of them")

print()
print("== relations ==")
r = Relation.from_pairs(2, 2, [(0, 0), (0, 1)])  # 0 can go two ways, 1 nowhere
s = rel_of_fun(g)  # a function is a special relation
print("r =", r)
print("graph of g =", s)
print("s . r =", rel_compose(s, r))
print("r x s pairs:", rel_product(r, s).pairs())
print("back to a function:", fun_of_rel(s))
big = Relation.from_pairs(10**6, 10**6, [(0, 0)])  # costs one pair, not 10^12 cells
print("one pair on a million points:", big.pairs())

print()
print("== wire format ==")
print(json.dumps(finfun_to_dict(f)))
print(json.dumps(relation_to_dict(r)))
print("identity on 0 (the empty process):", json.dumps(finfun_to_dict(identity(0))))
