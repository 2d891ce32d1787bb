"""Relations under cartesian product: a theory whose order collapses.

With relations as processes, product as parallel composition, and graphs of
functions free, every process converts to every other (whenever a discarding
map exists at all).  The closed-form witness is two lines long: feed the
target nothing, crush all output through a constant.  The brute-force search
confirms the collapse on an exhaustive slice.
"""

from pcdres import (
    REL_TIMES_THEORY,
    Relation,
    check_witness,
    preorder_table,
    relx_convert,
)

noisy = Relation.from_pairs(2, 2, [(0, 0), (0, 1), (1, 1)])  # nondeterministic
strict = Relation.from_pairs(1, 1, [(0, 0)])                 # deterministic
print("a nondeterministic process:", noisy)
print("a deterministic one:       ", strict)

for source, target in ((noisy, strict), (strict, noisy)):
    w = relx_convert(source, target)
    ok = check_witness(REL_TIMES_THEORY, source, target, w)
    print(f"convert {source!r} -> {target!r}: witness Z={w.Z.size}, valid={ok}")

print()
print("the witness data, spelled out:")
w = relx_convert(noisy, strict)
print("  xi1 =", w.xi1, " (empty: the target's input is never consulted)")
print("  xi2 =", w.xi2, " (constant: every output collapses to one point)")
print("  j   =", w.j)

print()
print("only truly empty codomains resist:")
try:
    relx_convert(strict, Relation.from_pairs(1, 0, []))
except ValueError as exc:
    print("  ", exc)

print()
print("== exhaustive confirmation at sizes <= 2 ==")
table = preorder_table(REL_TIMES_THEORY, 2)
count = sum(1 for _ in table)
print(f"search-confirmed conversions: {count} of 31 x 31 = 961 pairs")
print("every process converts to every other: the order is trivial")
