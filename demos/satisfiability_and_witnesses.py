"""Deciding formulas and extracting finite witness models with the tableau.

The tableau search records the tree it explores.  An open root certifies
satisfiability; walking its open path yields a concrete finite model
which is then re-checked.  A closed root, with an inconsistent weight
interval or a literal clash ending every branch tried, certifies
unsatisfiability.
"""

import json
import warnings

from wtl import (
    Sat, build_tableau, is_satisfiable, is_valid, model_check, parse_formula,
    serialize_wts, tableau_to_json,
)


def main():
    phi = parse_formula("!(!(L[2] p1 & M[5] L[1] p1) & !M[2] p2)")
    verdict = is_satisfiable(phi)
    print("A nested bound formula and its extracted witness model:")
    assert isinstance(verdict, Sat)
    print(f"  satisfiable, verified={verdict.verified}, start={verdict.state}")
    print("  " + serialize_wts(verdict.model).decode().replace("\n", "\n  "))
    print(f"  re-check: {model_check(verdict.model, verdict.state, phi)}\n")

    psi = parse_formula("p1 & L[4] p1 & !L[3] p1 & L[2] p2")
    print("Demanding a lower bound of 4 while forbidding 3 is contradictory:")
    print(f"  satisfiable? {isinstance(is_satisfiable(psi), Sat)}")
    tableau = tableau_to_json(build_tableau(psi))
    stack = [tableau]
    while stack:
        node = stack.pop()
        if node["kind"] == "modal":
            modal = node
        stack.extend(node["children"])
    intervals = [json.dumps(c["min_interval"]) for c in modal["children"]]
    print(f"  child intervals at the modal node: {intervals}")
    print("  (the search stops at the first closed child, so the p2 child"
          " is never built)\n")

    print("Validity is unsatisfiability of the negation:")
    for text in ["!L[0] false", "L[3] p -> !M[2] p", "M[1] p -> L[0] p", "p"]:
        print(f"  |= {text!r:30} -> {is_valid(parse_formula(text))}")

    print("\nExtraction is re-checked; a rare failure is flagged, never silent:")
    tricky = parse_formula("L[2] !p1 & M[1] !p2")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        verdict = is_satisfiable(tricky)
    print(f"  {('verified' if verdict.verified else 'extraction gap reported')}"
          f" ({len(caught)} warning(s)); the formula itself is satisfiable")


if __name__ == "__main__":
    main()
