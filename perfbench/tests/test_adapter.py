"""The adapter's ``Server`` on the real engine: a run that is admitted and
finishes within one step is still counted as admitted and delivered."""

import dataclasses

from perfbench import adapter
from perfbench.clock import drive


def test_a_request_stopped_by_its_first_token_is_admitted_and_delivered():
    model = adapter.build_model(0, "fp64-ref")
    normal, other = adapter.requests("chat", 2, 0, closed=True)
    first = int(adapter.reference_tokens(model, other)[len(other.prompt_ids)])
    # Its first sampled token is now a stop token, so its run starts and
    # ends inside one step_at and is in neither active list.
    stopped = dataclasses.replace(other, stop_tokens=(first,))

    server = adapter.Server(model, max_batch_size=16)
    server.begin()
    try:
        result = drive(server, [normal, stopped], adapter.request_id, adapter.due_time)
        report = server.report()
    finally:
        server.close()

    rid = adapter.request_id(stopped)
    assert report["finish"][rid] == "stop"
    assert report["tokens"][rid] == [first]
    stream = result.streams[rid]
    assert stream.admitted == 0.0
    assert len(stream.token_times) == 1
    assert stream.ttft > 0
    assert result.delivered == sum(len(tokens) for tokens in report["tokens"].values())
    assert result.emitted >= result.delivered
