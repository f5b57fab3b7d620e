"""Controller integration for the policy check.

Every permission check walks the binary-format interpreter
(:class:`~repro.policy.interpreter.PolicyInterpreter`).  These tests
pin the controller-level outcome of a scripted grant / deny /
policy-swap / admin-delete run, check that each decision lands in a
verifiable audit chain, and check that the concurrent batch front-end
answers exactly like sequential requests.
"""

from repro.core.controller import ControllerConfig, PesosController
from repro.core.request import Request, build_http_request
from repro.core.webserver import WebServer
from tests.core.conftest import ADMIN, ALICE, BOB, make_clients


def _controller() -> PesosController:
    clients, _cluster = make_clients()
    config = ControllerConfig(audit_log_size=64)
    return PesosController(clients, storage_key=b"k" * 32, config=config)


def _scripted_run(controller: PesosController) -> list:
    """A fixed request mix: grants, denials, policy swap, delete."""
    outcomes = []

    def note(response):
        outcomes.append((response.status, response.value))

    acl = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}') \\/ sessionKeyIs(k'{BOB}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')\n"
        f"delete :- sessionKeyIs(k'{ADMIN}')",
    ).policy_id
    note(controller.put(ALICE, "doc", b"v0", policy_id=acl))
    for _ in range(2):
        note(controller.get(ALICE, "doc"))
        note(controller.get(BOB, "doc"))
    note(controller.put(BOB, "doc", b"evil"))  # denied
    note(controller.get("fp-mallory", "doc"))  # denied
    stricter = controller.put_policy(
        ALICE,
        f"read :- sessionKeyIs(k'{ALICE}')\n"
        f"update :- sessionKeyIs(k'{ALICE}')",
    ).policy_id
    note(controller.put(ALICE, "doc", b"v1", policy_id=stricter))
    note(controller.get(BOB, "doc"))  # now denied
    note(controller.get(ALICE, "doc"))
    note(controller.delete(ADMIN, "doc"))  # old policy no longer applies
    return outcomes


def test_scripted_run_statuses_and_audit_chain():
    controller = _controller()
    outcomes = _scripted_run(controller)
    assert [status for status, _value in outcomes] == [
        200, 200, 200, 200, 200, 403, 403, 200, 403, 200, 403,
    ]
    assert [value for status, value in outcomes if value] == [
        b"v0", b"v0", b"v0", b"v0", b"v1",
    ]
    assert controller.get(ALICE, "doc").value == b"v1"
    # One audit record per policy check, chained and verifiable.
    assert len(controller.auditor.log) == 12
    verification = controller.auditor.verify()
    assert verification["ok"]
    assert verification["head"] == controller.auditor.head


def test_scripted_run_is_deterministic():
    first, second = _controller(), _controller()
    assert _scripted_run(first) == _scripted_run(second)
    assert first.auditor.head == second.auditor.head


def test_handle_batch_answers_like_sequential_requests():
    fingerprints = [ALICE, BOB, "fp-carol"]
    servers = []
    for _ in range(2):
        controller = _controller()
        acl = controller.put_policy(
            ALICE,
            "read :- "
            + " \\/ ".join(f"sessionKeyIs(k'{fp}')" for fp in fingerprints)
            + f"\nupdate :- sessionKeyIs(k'{ALICE}')",
        ).policy_id
        controller.put(ALICE, "doc", b"payload", policy_id=acl)
        controller.put(ALICE, "other", b"second", policy_id=acl)
        for fp in fingerprints:  # establish sessions
            controller.get(fp, "doc")
        servers.append(WebServer(controller))
    batch = [
        (build_http_request(Request(method="get", key=key)), fp)
        for fp in fingerprints + ["fp-mallory"]
        for key in ("doc", "other", "missing")
    ]
    batched = servers[0].handle_batch(list(batch), now=1.0)
    sequential = [
        servers[1].handle_bytes(raw, fp, now=1.0) for raw, fp in batch
    ]
    assert batched == sequential
    assert b"payload" in batched[0]
    assert batched[-3].startswith(b"HTTP/1.1 403")
