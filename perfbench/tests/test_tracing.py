"""Span bookkeeping: self-time accounting and wrapper restoration."""

from array import array

import pytest

from perfbench.tracing import Tracer, summarize


def _table(spans):
    """``(label, start, end, parent)`` rows -> summarize() arguments."""
    labels = sorted({label for label, *_ in spans})
    return (
        labels,
        array("h", [labels.index(label) for label, *_ in spans]),
        array("d", [start for _, start, _, _ in spans]),
        array("d", [end for _, _, end, _ in spans]),
        array("i", [parent for *_, parent in spans]),
        len(spans),
    )


def test_self_times_sum_to_the_root_span():
    # root 0..10 with siblings a (1..4) and b (5..9); b nests c (6..8)
    # and a zero-length child d (7..7) of c.
    summary = summarize(*_table([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 8.0, 2),
        ("d", 7.0, 7.0, 3),
    ]))
    assert summary["root"].self_s == pytest.approx(3.0)
    assert summary["a"].self_s == pytest.approx(3.0)
    assert summary["b"].self_s == pytest.approx(2.0)
    assert summary["c"].self_s == pytest.approx(2.0)
    assert summary["d"].self_s == 0.0
    assert summary["d"].calls == 1
    assert sum(cell.self_s for cell in summary.values()) == pytest.approx(
        summary["root"].root_s
    )
    assert summary["a"].root_s == 0.0


def test_same_label_at_two_depths_is_counted_once_per_span():
    summary = summarize(*_table([
        ("f", 0.0, 6.0, -1),
        ("f", 1.0, 3.0, 0),
        ("f", 10.0, 11.0, -1),
    ]))
    assert summary["f"].calls == 3
    assert summary["f"].total_s == pytest.approx(9.0)
    assert summary["f"].self_s == pytest.approx(7.0)
    assert summary["f"].root_s == pytest.approx(7.0)


class _Base:
    def inherited(self):
        return "base"


class _Layer(_Base):
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    def boom(self):
        raise ValueError("boom")


_TARGETS = [
    ("layer.outer", _Layer, "outer"),
    ("layer.inner", _Layer, "inner"),
    ("layer.inherited", _Layer, "inherited"),
    ("layer.boom", _Layer, "boom"),
]


def test_wrappers_record_nesting_and_are_restored_by_identity():
    originals = {
        (_Layer, "outer"): vars(_Layer)["outer"],
        (_Layer, "inner"): vars(_Layer)["inner"],
        (_Base, "inherited"): vars(_Base)["inherited"],
    }
    tracer = Tracer(capacity=16)
    layer = _Layer()
    with tracer.installed(_TARGETS):
        assert vars(_Layer)["outer"] is not originals[(_Layer, "outer")]
        assert layer.outer() == 2
        assert layer.inherited() == "base"
        with pytest.raises(ValueError):
            layer.boom()
    for (owner, attribute), original in originals.items():
        assert vars(owner)[attribute] is original
    # The inherited method was wrapped where it is defined, not shadowed.
    assert "inherited" not in vars(_Layer)

    assert tracer.count == 4
    names = [tracer.labels[index] for index in tracer.label_ids[:4]]
    assert names == [
        "layer.outer", "layer.inner", "layer.inherited", "layer.boom",
    ]
    assert list(tracer.parents[:4]) == [-1, 0, -1, -1]
    # Root spans open a new operation; children share their root's.
    assert list(tracer.operations[:4]) == [0, 0, 1, 2]
    summary = tracer.summary()
    assert summary["layer.outer"].calls == 1
    assert summary["layer.boom"].calls == 1  # the raising call has an end
    assert summary["layer.outer"].self_s == pytest.approx(
        summary["layer.outer"].total_s - summary["layer.inner"].total_s
    )


def test_restored_even_when_the_block_raises():
    original = vars(_Layer)["outer"]
    with pytest.raises(RuntimeError):
        with Tracer(capacity=4).installed(_TARGETS):
            raise RuntimeError
    assert vars(_Layer)["outer"] is original


def test_full_buffer_drops_spans_but_still_calls_through():
    tracer = Tracer(capacity=1)
    layer = _Layer()
    with tracer.installed(_TARGETS):
        assert layer.outer() == 2
    assert tracer.count == 1
    assert tracer.dropped == 1


def test_write_spans_csv(tmp_path):
    tracer = Tracer(capacity=8)
    with tracer.installed(_TARGETS):
        _Layer().outer()
    path = tmp_path / "spans.csv"
    assert tracer.write_spans(path, limit=1) == 1
    header, row = path.read_text().splitlines()
    assert header == "span,label,start_us,end_us,parent,operation"
    assert row.startswith("0,layer.outer,0.000,")
    assert row.endswith(",-1,0")
