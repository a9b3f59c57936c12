"""Pointedness, copointedness, disconnects, and factorization.

A point is a map out of 1, a copoint a map into 0.  An arrow factoring
through a point is pointed; through a copoint, copointed; through both,
it is the unique disconnect of its homset.  One linear pass annotates
every node with both bits and witnesses, and the annotated term can then
be factored through injections or projections in linear time.
"""

from sigmapi import (
    COPOINT,
    POINT,
    annotate,
    disconnect,
    factor,
    parse_term,
    parse_type,
    witness_of,
)


def show(node, depth=0):
    pt, cp = node.ann  # the (point, copoint) witness pair, None where absent
    bits = (f"pointed={'yes' if pt is not None else 'no '} "
            f"copointed={'yes' if cp is not None else 'no '}")
    wits = []
    if pt is not None:
        wits.append(f"point {pt}")
    if cp is not None:
        wits.append(f"copoint {cp}")
    print("  " * depth + f"{node.term}  [{bits}]" + ("  " + "; ".join(wits) if wits else ""))
    for child in node.children:
        show(child, depth + 1)


# -- type-level witnesses ------------------------------------------------------
for src in ("1+1", "0*1", "x", "(0+1)*(1+1)"):
    t = parse_type(src)
    print(f"{src:12} point: {witness_of(POINT, t)}   copoint: {witness_of(COPOINT, t)}")

# -- the disconnect ------------------------------------------------------------
# between a copointed domain and a pointed codomain there is exactly one
# arrow that is both pointed and copointed
print("\ndisconnect 0*0 -> 1+1:", disconnect(parse_type("0*0"), parse_type("1+1")))
print("disconnect 1 -> 1+1  :", disconnect(parse_type("1"), parse_type("1+1")))

# -- annotating a term ----------------------------------------------------------
print("\nannotated s0 p0 ? : 0*0 -> 0+1  (a disconnect):")
show(annotate(parse_term("s0 p0 ?"), parse_type("0*0"), parse_type("0+1")))

print("\nannotated {s0 !, s1 !} : 1+1 -> 1+1  (definite: the two points disagree):")
show(annotate(parse_term("{s0 !, s1 !}"), parse_type("1+1"), parse_type("1+1")))

# -- factorization ----------------------------------------------------------------
# does f equal s_j f' for some f'?  p_i f'?  The analysis is syntactic,
# falling back on the copoint (dually point) when the shape blocks.
f = annotate(parse_term("p0 s0 ?"), parse_type("0*1"), parse_type("0+0"))
print("\nf = p0 s0 ? : 0*1 -> 0+0")
print("  factor through s0:", factor(POINT, f, 0).term)
print("  factor through s1:", factor(POINT, f, 1).term, " (through the copoint)")
print("  factor through p1:", factor(COPOINT, f, 1))

g = annotate(parse_term("s1 !"), parse_type("1"), parse_type("0+1"))
print("g = s1 ! : 1 -> 0+1")
print("  factor through s0:", factor(POINT, g, 0), " (blocked: g is not copointed)")
