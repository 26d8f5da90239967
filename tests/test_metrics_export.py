"""Histogram percentile estimation, the metrics export formats
(render_text quantiles, Prometheus exposition) and the memoised label
keys behind every instrument."""

from contextlib import contextmanager
from enum import Enum, IntEnum

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.observability import Histogram, MetricsRegistry
from repro.observability import metrics as metrics_module


class TestHistogramPercentile:
    def _hist(self, values, buckets=(1, 2, 5, 10), **labels):
        hist = Histogram("h", buckets=buckets)
        for v in values:
            hist.observe(v, **labels)
        return hist

    def test_empty_is_none(self):
        assert Histogram("h").percentile(99) is None

    def test_q_out_of_range(self):
        hist = self._hist([1])
        with pytest.raises(ValueError):
            hist.percentile(-1)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_single_sample_reports_itself_everywhere(self):
        hist = self._hist([3])
        assert hist.percentile(0) == 3
        assert hist.percentile(50) == 3
        assert hist.percentile(100) == 3

    def test_interpolates_inside_a_bucket(self):
        # 100 samples of 4 all land in the (2, 5] bucket; p50's rank sits
        # halfway through it, so the raw estimate is 2 + 3*0.5 = 3.5 —
        # clamped up to the observed min of 4.
        hist = self._hist([4] * 100)
        assert hist.percentile(50) == 4
        # With a spread inside the bucket the interpolation shows through.
        hist = self._hist([3, 4, 5, 3, 4, 5, 3, 4, 5, 3])
        p50 = hist.percentile(50)
        assert 3 <= p50 <= 5

    def test_clamped_to_observed_extremes(self):
        hist = self._hist([4, 4, 4, 4])
        for q in (0, 25, 99, 100):
            assert 4 <= hist.percentile(q) <= 4

    def test_rank_walks_cumulative_buckets(self):
        # 10 samples at 1, 10 at 4: p50 is in the first bucket, p99 in
        # the second.
        hist = self._hist([1] * 10 + [4] * 10)
        assert hist.percentile(50) == 1
        assert 2 <= hist.percentile(99) <= 4

    def test_overflow_bucket_reports_max(self):
        hist = self._hist([100, 200])
        assert hist.percentile(99) == 200

    def test_labelled_series_are_independent(self):
        hist = Histogram("h", buckets=(1, 10))
        hist.observe(1, verb="read")
        hist.observe(9, verb="write")
        assert hist.percentile(99, verb="read") == 1
        assert hist.percentile(99, verb="write") == 9
        assert hist.percentile(99, verb="never") is None


class TestRenderText:
    def test_quantiles_shown_per_series(self):
        reg = MetricsRegistry()
        hist = reg.histogram("latency_ticks", "how long", buckets=(1, 5, 10))
        for v in (1, 2, 3, 8):
            hist.observe(v, verb="commit")
        text = reg.render_text()
        assert "latency_ticks (histogram)" in text
        assert "{verb=commit}" in text
        for marker in ("p50=", "p95=", "p99="):
            assert marker in text
        # The quantile numbers come from Histogram.percentile itself.
        p99 = hist.percentile(99, verb="commit")
        assert f"p99={p99:g}" in text


class TestRenderPrometheus:
    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", "help me").inc(path='a"b\\c\nd')
        text = reg.render_prometheus()
        assert r'path="a\"b\\c\nd"' in text
        assert "\nd" not in text.replace(r"\n", "")  # no raw newline leaks

    def test_deterministic_ordering(self):
        # Instruments registered out of order, series observed out of
        # order: the exposition is sorted by name, then label key.
        reg = MetricsRegistry()
        reg.counter("zzz_total").inc()
        reg.counter("aaa_total").inc(verb="write")
        reg.counter("aaa_total").inc(verb="read")
        text = reg.render_prometheus()
        assert text.index("aaa_total") < text.index("zzz_total")
        assert text.index('verb="read"') < text.index('verb="write"')
        # Byte-for-byte stable across renders.
        assert text == reg.render_prometheus()

    def test_help_and_type_lines(self):
        reg = MetricsRegistry()
        reg.gauge("depth", "queue depth").set(3)
        text = reg.render_prometheus()
        assert "# HELP depth queue depth" in text
        assert "# TYPE depth gauge" in text
        assert "depth 3" in text

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", "", buckets=(1, 5, 10))
        for v in (1, 2, 3, 8, 100):
            hist.observe(v)
        lines = reg.render_prometheus().splitlines()
        bucket_counts = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("h_bucket")
        ]
        assert bucket_counts == [1, 3, 4, 5]
        assert bucket_counts == sorted(bucket_counts)  # cumulativity
        le_values = [
            line.split('le="', 1)[1].split('"', 1)[0]
            for line in lines
            if line.startswith("h_bucket")
        ]
        assert le_values == ["1", "5", "10", "+Inf"]
        assert "h_count 5" in lines
        assert any(line.startswith("h_sum") for line in lines)

    def test_unobserved_instruments_are_omitted(self):
        reg = MetricsRegistry()
        reg.counter("silent_total", "never fired")
        assert reg.render_prometheus() == ""


class _Level(IntEnum):
    LOW = 1
    HIGH = 2


class _Colour(str, Enum):
    RED = "red"


@contextmanager
def _uncached_label_keys():
    """Every instrument computes its label key with the plain
    ``_label_key``, bypassing the memo: the oracle registry's path."""
    memoised = metrics_module._Instrument._key
    metrics_module._Instrument._key = (
        lambda self, labels: metrics_module._label_key(labels)
    )
    try:
        yield
    finally:
        metrics_module._Instrument._key = memoised


#: Label values whose equal members render differently (``1``/``True``/
#: ``1.0``, ``0.0``/``-0.0``, ``"red"``/``_Colour.RED``), plus unhashable
#: lists that must take the fallback.
_label_values = st.one_of(
    st.sampled_from(
        ["red", "1", 1, 0, True, False, 1.0, 0.0, -0.0, _Level.LOW,
         _Colour.RED, None]
    ),
    st.text(max_size=2),
    st.lists(st.integers(0, 2), max_size=2),
)
_labels = st.dictionaries(st.sampled_from(["a", "b"]), _label_values, max_size=2)
_ops = st.lists(
    st.tuples(
        st.sampled_from(["inc", "bound", "set", "gauge_inc", "observe"]),
        st.integers(0, 30),
        _labels,
    ),
    max_size=25,
)


def _fill(ops):
    reg = MetricsRegistry()
    for op, amount, labels in ops:
        if op == "inc":
            reg.counter("c_total", "counts").inc(amount, **labels)
        elif op == "bound":
            reg.counter("c_total", "counts").labels(**labels).inc(amount)
        elif op == "set":
            reg.gauge("g", "level").set(amount, **labels)
        elif op == "gauge_inc":
            reg.gauge("g", "level").inc(amount, **labels)
        else:
            reg.histogram("h", "spread", buckets=(1, 5, 10)).observe(
                amount, **labels
            )
    return reg


class TestLabelKeyMemo:
    def test_kwarg_order_does_not_split_a_series(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total")
        counter.inc(a="x", b=1)
        counter.inc(b=1, a="x")
        counter.labels(b=1, a="x").inc()
        assert counter.value(a="x", b=1) == 3
        assert counter.value(b=1, a="x") == 3
        assert len(counter.series()) == 1

    def test_equal_values_of_other_types_stay_apart(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total")
        for value in (1, True, 1.0, "1"):
            counter.inc(v=value)
        assert counter.value(v=1) == 2  # 1 and "1" both render "1"
        assert counter.value(v=True) == 1
        assert counter.value(v=1.0) == 1
        assert len(counter.series()) == 3
        for value in (1, True, 1.0, "1", _Level.LOW, _Colour.RED):
            assert counter._key({"v": value}) == (("v", str(value)),)
        gauge = reg.gauge("g")
        gauge.set(1, z=0.0)
        gauge.set(2, z=-0.0)
        assert gauge.value(z=0.0) == 1 and gauge.value(z=-0.0) == 2
        counter.inc(colour="red")
        counter.inc(colour=_Colour.RED)
        assert counter.value(colour="red") == 1

    def test_unhashable_label_values_use_the_fallback(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total")
        counter.inc(tags=["a", "b"])
        counter.inc(2, tags=["a", "b"])
        counter.labels(tags={"k": 1}).inc()
        assert counter.value(tags=["a", "b"]) == 3
        assert counter.value(tags={"k": 1}) == 1
        assert "  {tags=['a', 'b']}: 3" in reg.render_text()

    def test_reregistering_as_another_kind_raises(self):
        reg = MetricsRegistry()
        counter = reg.counter("m", "help")
        assert reg.counter("m") is counter
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("m")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.histogram("m")
        reg.histogram("h")
        with pytest.raises(ValueError, match="already registered as histogram"):
            reg.counter("h")

    @settings(max_examples=150, deadline=None)
    @given(ops=_ops, probes=st.lists(_labels, max_size=5))
    @example(
        ops=[
            ("inc", 1, {"a": 1}), ("inc", 1, {"a": True}),
            ("inc", 1, {"a": 1.0}), ("set", 2, {"a": 0.0}),
            ("set", 3, {"a": -0.0}), ("inc", 1, {"b": "red"}),
            ("bound", 1, {"b": _Colour.RED}), ("observe", 4, {"a": [1]}),
            ("bound", 2, {"b": 1, "a": "x"}), ("inc", 1, {"a": "x", "b": 1}),
        ],
        probes=[{"a": True}, {"b": _Colour.RED}, {"a": _Level.LOW}],
    )
    def test_memoised_registry_matches_uncached_oracle(self, ops, probes):
        with _uncached_label_keys():
            oracle = _fill(ops)
        reg = _fill(ops)
        assert reg.render_text() == oracle.render_text()
        assert reg.render_prometheus() == oracle.render_prometheus()
        assert reg.snapshot() == oracle.snapshot()
        for labels in probes + [labels for _, _, labels in ops]:
            with _uncached_label_keys():
                expected = (
                    oracle.counter("c_total").value(**labels),
                    oracle.gauge("g").value(**labels),
                    oracle.histogram("h").count(**labels),
                    oracle.counter("c_total").labels(**labels)._key,
                )
            assert (
                reg.counter("c_total").value(**labels),
                reg.gauge("g").value(**labels),
                reg.histogram("h").count(**labels),
                reg.counter("c_total").labels(**labels)._key,
            ) == expected
