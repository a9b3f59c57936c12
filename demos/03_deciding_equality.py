"""The polynomial-time equality decision.

Two cut-free terms denote the same arrow exactly when the permuting
conversions relate them.  Instead of exploring that exponential closure,
`equal` recurses on the typing: decompose sum domains and product
codomains, compare indefinite maps through their point/copoint
witnesses, and resolve definite maps through their factorizations, with
a trivial-bouncer step for the mixed projection/injection case.
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

# a definite pair in mixed corners where the required lift fails
decide("s1 <p0 ?, p1 p0 ?>", "p1 s1 <p0 ?, p1 ?>", "0*0*0", "0+0*0")

# reflexivity is cheap at any size
decide("{<s0 !, !>, <s1 !, !>}", "{<s0 !, !>, <s1 !, !>}", "1+1", "(1+1)*1")
