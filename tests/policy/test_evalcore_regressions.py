"""Regressions for the compare-or-set unification bugs.

Two historical failure modes, each pinned to the interpreter's exact
:class:`Decision` (verdict, clause, predicate count and bindings):

1. ``compare_or_set`` double-bind — a variable that was unbound when a
   predicate's arguments were evaluated may have been bound *by the
   predicate itself* before a later argument is compared
   (``objSize(this, V, V)``: version resolution binds ``V``, then the
   size argument used to re-``bind`` instead of comparing, turning a
   legitimate grant into a structural :class:`EvalError`).
2. ``unify_tuple`` partial-binding pollution — a failed match against
   one fact used to leave bindings from its matched prefix (including
   *nested* tuple elements) behind, poisoning the attempt against the
   next fact in the same predicate call.
"""

from repro.policy.ast import IntValue
from repro.policy.compiler import compile_policy
from repro.policy.context import EvalContext, ObjectView, VersionInfo
from repro.policy.interpreter import PolicyInterpreter

INTERP = PolicyInterpreter()


def _assert_decision(decision, granted, matched_clause, bindings):
    """One-predicate policies: every check evaluates exactly once."""
    assert decision.granted is granted
    assert decision.predicates_evaluated == 1
    assert decision.matched_clause == matched_clause
    assert decision.bindings == bindings


def _ctx(view: ObjectView) -> EvalContext:
    return EvalContext(
        operation="read",
        session_key="e1" * 32,
        this_id=view.object_id,
        objects={view.object_id: view},
    )


def test_repeated_variable_compares_against_live_binding():
    """objSize(this, V, V): V is bound by version resolution, then the
    size argument must *compare*, not double-bind."""
    policy = compile_policy("read :- objSize(this, V, V)")
    # Version 2 holding two bytes: size == version, so the clause holds.
    view = ObjectView(
        object_id="obj",
        current_version=2,
        versions={2: VersionInfo.from_content(b"xy")},
    )
    decision = INTERP.evaluate(policy, "read", _ctx(view))
    _assert_decision(decision, True, 0, {"V": IntValue(2)})
    assert decision.clause_path == "read/clause[0]"


def test_repeated_variable_mismatch_denies_cleanly():
    policy = compile_policy("read :- objSize(this, V, V)")
    # Version 3 holding two bytes: 2 != 3 must deny, not error.
    view = ObjectView(
        object_id="obj",
        current_version=3,
        versions={3: VersionInfo.from_content(b"xy")},
    )
    decision = INTERP.evaluate(policy, "read", _ctx(view))
    _assert_decision(decision, False, None, {})
    assert decision.clause_path == "read/denied"


def test_failed_fact_leaves_no_nested_bindings_behind():
    """A nested pattern that fails against one fact must not poison the
    match against the next fact of the same objSays call."""
    policy = compile_policy("read :- objSays(this, LV, 'p'('q'(X), X))")
    content = b"'p'('q'(1),2)\n'p'('q'(3),3)"
    view = ObjectView(
        object_id="obj",
        current_version=1,
        versions={1: VersionInfo.from_content(content)},
    )
    decision = INTERP.evaluate(policy, "read", _ctx(view))
    _assert_decision(
        decision, True, 0, {"LV": IntValue(1), "X": IntValue(3)}
    )


def test_repeated_slot_within_one_pattern_unifies_by_first_occurrence():
    policy = compile_policy("read :- objSays(this, LV, 'w'(H, H))")
    content = b"'w'(1,2)\n'w'(5,5)"
    view = ObjectView(
        object_id="obj",
        current_version=1,
        versions={1: VersionInfo.from_content(content)},
    )
    decision = INTERP.evaluate(policy, "read", _ctx(view))
    _assert_decision(
        decision, True, 0, {"LV": IntValue(1), "H": IntValue(5)}
    )


def test_repeated_slot_mismatch_everywhere_denies():
    policy = compile_policy("read :- objSays(this, LV, 'w'(H, H))")
    view = ObjectView(
        object_id="obj",
        current_version=1,
        versions={1: VersionInfo.from_content(b"'w'(1,2)\n'w'(3,4)")},
    )
    decision = INTERP.evaluate(policy, "read", _ctx(view))
    _assert_decision(decision, False, None, {})
