"""The independent route: find conversions by searching the defining equation.

No profiles here.  The oracle enumerates auxiliary sizes, junk shapes, and
free wirings, and builds the discarding side in one pass.  Of
the input wirings it tries every orbit's least wiring under the symmetries
the equation cannot see (points inside one fiber of f, singleton-fiber
points together with the auxiliary points, the junk inputs, and whole
fibers of f of equal size), and where a junk block of three or more inputs
meets unused fibers of one size, some others of its orbit; it still
returns the witness a scan of every wiring would find first.  Its
agreement with the profile-based decision procedure on exhaustive small
slices is the package's central self-check, repeated below on a small grid.
"""

import time

from pcdres import (
    FinFun,
    SearchBounds,
    TheoryVariant,
    check_witness,
    decide,
    enumerate_all_functions,
    oracle_convertible,
    preorder_lines,
    preorder_table,
)

f = FinFun.from_map([0, 0], 1)
g = FinFun.from_map([0], 1)
# each variant is itself the theory the search runs in
theory = TheoryVariant.SET_BIJ

print("searching for f -> g with bijections free ...")
w = oracle_convertible(theory, f, g)
print("first witness in scan order: Z =", w.Z.size, " xi1 =", w.xi1.map,
      " xi2 =", w.xi2.map, " j =", w.j)
print("replay inside the theory:", check_witness(theory, f, g, w))
print("reverse direction:", oracle_convertible(theory, g, f))

print()
print("tight bounds starve the search:",
      oracle_convertible(theory, f, g, SearchBounds(0, 5, 5)))

print()
print("== decide vs search, all pairs at sizes <= 2 ==")
funs = list(enumerate_all_functions(2))
for variant in TheoryVariant:
    start = time.perf_counter()
    agree = sum(
        (oracle_convertible(variant, a, b, SearchBounds(2, 4, 4)) is not None)
        == decide(variant, a, b)
        for a in funs
        for b in funs
    )
    elapsed = time.perf_counter() - start
    print(f"{variant.value}: {agree}/{len(funs) ** 2} pairs agree "
          f"({elapsed:.2f}s)")

print()
print("== the full preorder at sizes <= 1, straight from the search ==")
for line in preorder_lines(preorder_table(theory, 1)):
    print(" ", line)
