"""Cut-free proof terms over sums and products with units: composition by
cut elimination, linear-time pointedness analysis and factorization, a
polynomial-time equality decision procedure, and an exact (exponential)
permuting-conversion oracle."""

from .types import (
    Gen,
    GuardExceeded,
    ObjectType,
    One,
    Prod,
    Sum,
    TypeMetrics,
    Zero,
    ONE,
    ZERO,
    contains_gen,
    format_type,
    iter_types,
    metrics,
)
from .graph import EMPTY_GRAPH, Edge, GeneratorGraph, InputError, make_graph
from .terms import (
    BANG,
    COPOINT,
    POINT,
    QUEST,
    Bang,
    Cotuple,
    Cut,
    GenArrow,
    Id,
    Inj,
    Proj,
    Quest,
    Term,
    Tuple,
    TypedTerm,
    TypingError,
    format_term,
    infer,
    is_cut_free,
    term_metrics,
    term_sort_key,
)
from .syntax import (
    Declaration,
    Module,
    ParseError,
    format_module,
    parse_module,
    parse_term,
    parse_type,
)
from .compose import compose, eliminate, identity
from .annotate import AnnotatedTerm, VisitCounter, annotate, disconnect, witness_of
from .factor import factor
from .decide import (
    Bouncer,
    Disconnect,
    Equal,
    NotEqual,
    RequiresOracle,
    SharedCopoint,
    SharedPoint,
    Stats,
    SyntacticRecursion,
    Verdict,
    Witness,
    equal,
    normal_form,
)
from .oracle import (
    CardinalPath,
    CardinalSquare,
    EqClass,
    cardinal_path,
    class_of,
    enumerate_terms,
    find_bouncers,
    homset_classes,
    neighbours,
    same_class,
)

__version__ = "0.1.0"
