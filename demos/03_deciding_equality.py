"""The polynomial-time equality decision.

Two cut-free terms denote the same arrow exactly when the permuting
conversions relate them.  Instead of exploring that exponential closure,
`equal` computes each term's normal form, one chosen member of its class,
by recursion on the typing: decompose sum domains and product codomains,
replace indefinite maps by their canonical point/copoint witnesses, and
keep one factorization of each definite map.  The terms are equal exactly
when the normal forms are the same term; otherwise the verdict names the
first position where they differ.
"""

from sigmapi import Stats, annotate, equal, parse_term, parse_type, same_class


def decide(fsrc, gsrc, dom, cod):
    X, A = parse_type(dom), parse_type(cod)
    f = annotate(parse_term(fsrc), X, A)
    g = annotate(parse_term(gsrc), X, A)
    stats = Stats()
    verdict = equal(f, g, stats)
    oracle = same_class(f.term, g.term, X, A)
    print(f"{fsrc}  vs  {gsrc}  :  {dom} -> {cod}")
    print(f"  {verdict}   [steps={stats.steps}, oracle agrees: {oracle == verdict.__class__.__name__.startswith('Equal')}]")


# the two projections out of 0*0 are genuinely different maps...
decide("p0 ?", "p1 ?", "0*0", "0")

# ...yet both composites with the injection into 0+1 collapse: 0+1 is
# pointed, so the composites are the unique disconnect of the homset
decide("s0 p0 ?", "s0 p1 ?", "0*0", "0+1")

# projections and injections commute past each other (a bouncer witnesses it)
decide("p0 s0 {s0 !, s1 !}", "s0 p0 {s0 !, s1 !}", "(1+1)*1", "(1+1)+0")

# two pointed maps agree exactly when their points do
decide("s0 !", "s1 !", "1*1", "1+1")
decide("p0 s0 !", "s0 p0 !", "1*1", "1+1")

# a definite pair in mixed corners: both normal forms keep s1, and their
# bodies first differ in a corner of component 0
decide("s1 <p0 ?, p1 p0 ?>", "p1 s1 <p0 ?, p1 ?>", "0*0*0", "0+0*0")

# reflexivity is cheap at any size
decide("{<s0 !, !>, <s1 !, !>}", "{<s0 !, !>, <s1 !, !>}", "1+1", "(1+1)*1")
