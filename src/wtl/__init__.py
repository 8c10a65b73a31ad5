"""Reasoning about weight bounds in weighted transition systems.

The toolkit bundles: exact-rational weighted transition systems with
image-set bound queries, a modal logic whose modalities constrain the
minimum and maximum transition weight into a property, bound and exact
bisimilarity by partition refinement (with quotients and distinguishing
formulas), an executable soundness suite for the logic's proof system,
and a tableau decision procedure that extracts finite witness models.
"""

from .wts import (
    ExtendedBound, ModelError, NEG_INF, POS_INF, UnknownStateError, Weight,
    Wts, as_weight, format_bound, format_rational, parse_rational, parse_wts,
    random_wts, serialize_wts,
)
from .formulas import (
    And, AtLeast, AtMost, Atom, Bottom, Formula, FormulaError, Not, Top, box,
    conjoin, diamond, iff, implies, lor, model_check,
    parse_formula, print_formula, random_formula, sat_set,
)
from .bisimulation import (
    Partition, are_bisimilar, distinguishing_formula, generalized_bisimilarity,
    quotient_model, weighted_bisimilarity,
)
from .axioms import (
    DEFAULT_INDEX_POOL, SCHEMAS, Schema, SchemaReport, SideConditionError,
    SuiteReport, holds_everywhere, instantiate, premise_of, run_suite,
)
from .tableau import (
    ExtractionGapWarning, Sat, Tableau, TableauNode, Unsat, Verdict,
    build_tableau, entails, extract_model, find_witness, is_satisfiable,
    is_valid, tableau_to_json,
)

__version__ = "0.1.0"
