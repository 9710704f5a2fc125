"""Spans recorded from outside the program, around calls into each layer.

The traced pass of the benchmark wraps every call it makes into a layer's
public function in a span. Spans stay in memory until the pass ends and
are written out once; every per-layer time the benchmark reports is a sum
over these spans, so the span file is the evidence for the numbers.
"""

import json
import time
from contextlib import contextmanager

__all__ = ["Tracer", "load_spans", "summarize"]


class Tracer:
    """In-memory span recorder for one traced pass.

    A span has a name, a start, an end, the span that caused it
    (``parent``, an id or ``None``) and the identifier all spans of the
    pass share (``pass``).
    """

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans: list = []
        self._open: list = []  # ids of the spans currently entered

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "pass": self.pass_id,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def seconds_by_name(self, since: int = 0) -> dict:
        """Total duration per span name, over the finished spans recorded
        from position ``since`` on (``len(tracer.spans)`` at that time)."""
        totals = {}
        for span in self.spans[since:]:
            if span["end"] is not None:
                totals[span["name"]] = (
                    totals.get(span["name"], 0.0) + span["end"] - span["start"]
                )
        return totals

    def seconds(self, name: str) -> float:
        """Total duration of every finished span called ``name``."""
        return self.seconds_by_name().get(name, 0.0)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "pass": self.pass_id,
                    "summary": summarize(self.spans),
                    "spans": self.spans,
                },
                handle,
            )


def summarize(spans: list) -> dict:
    """Per span name: count, total seconds and self seconds.

    A span's self time is its duration minus the part its direct
    children cover (children of one span never overlap here: the traced
    pass is single-threaded).
    """
    covered = {}
    for span in spans:
        if span["parent"] is not None and span["end"] is not None:
            covered[span["parent"]] = (
                covered.get(span["parent"], 0.0) + span["end"] - span["start"]
            )
    summary = {}
    for span in spans:
        if span["end"] is None:
            continue
        duration = span["end"] - span["start"]
        row = summary.setdefault(
            span["name"], {"count": 0, "seconds": 0.0, "self_seconds": 0.0}
        )
        row["count"] += 1
        row["seconds"] += duration
        row["self_seconds"] += duration - covered.get(span["id"], 0.0)
    return summary


def load_spans(path) -> list:
    """Read a span file back, rejecting one whose span tree is broken."""
    with open(path) as handle:
        document = json.load(handle)
    spans = document["spans"]
    known = {span["id"] for span in spans}
    for span in spans:
        if span["pass"] != document["pass"]:
            raise ValueError(f"span {span['id']} belongs to another pass")
        if span["parent"] is not None and span["parent"] not in known:
            raise ValueError(
                f"span {span['id']} names a parent that was not recorded"
            )
        if span["end"] is None or span["end"] < span["start"]:
            raise ValueError(f"span {span['id']} never finished")
    return spans
