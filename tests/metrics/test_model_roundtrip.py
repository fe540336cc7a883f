"""Property tests for the unified session-metrics model.

The model's two contracts, exercised with hypothesis:

* **round-trip**: ``SessionSummary -> canonical JSON -> parse`` is the
  identity, and re-serializing the parse yields the same bytes (the
  byte-stability ``viprof analyze --json`` builds on);
* **merge is exact summation**: totals, symbol counts, and panel
  counters add; events keep first-seen order; ``meta`` keeps only the
  agreed entries.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.metrics.model import (
    KIND_ARTIFACTS,
    KIND_COLLECTION,
    KIND_PROFILE,
    SCHEMA_VERSION,
    SessionSummary,
    SymbolEntry,
)

EVENTS = ("GLOBAL_POWER_EVENTS", "BSQ_CACHE_REFERENCE", "ITLB_MISS")
KINDS = (KIND_PROFILE, KIND_COLLECTION, KIND_ARTIFACTS)
IMAGES = ("JIT.App", "vmlinux", "RVM.map", "libc.so")

_name = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=1,
    max_size=12,
)
_counts = st.dictionaries(
    st.sampled_from(EVENTS), st.integers(1, 10**9), max_size=3
)
_symbols = st.lists(
    st.builds(SymbolEntry, image=st.sampled_from(IMAGES), symbol=_name,
              counts=_counts),
    max_size=6,
    unique_by=lambda e: e.key,
)
_metric = st.one_of(
    st.integers(0, 10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
_panels = st.dictionaries(
    _name, st.dictionaries(_name, _metric, max_size=4), max_size=4
)
_meta = st.dictionaries(
    _name, st.one_of(st.integers(), _name, st.booleans()), max_size=4
)


def summaries(kind: str | None = None) -> st.SearchStrategy:
    return st.builds(
        SessionSummary,
        kind=st.sampled_from(KINDS) if kind is None else st.just(kind),
        events=st.lists(
            st.sampled_from(EVENTS), unique=True, max_size=3
        ).map(tuple),
        totals=st.dictionaries(
            st.sampled_from(EVENTS), st.integers(0, 10**9), max_size=3
        ),
        symbols=_symbols,
        panels=_panels,
        meta=_meta,
    )


class TestRoundTrip:
    @given(summaries())
    def test_json_roundtrip_is_identity(self, summary):
        text = summary.to_canonical_json()
        parsed = SessionSummary.from_json(text)
        assert parsed == summary
        assert parsed.to_canonical_json() == text

    @given(summaries())
    def test_canonical_json_is_byte_stable(self, summary):
        assert summary.to_canonical_json() == summary.to_canonical_json()

    @given(summary=summaries())
    def test_save_load_roundtrip(self, tmp_path_factory, summary):
        path = tmp_path_factory.mktemp("summary") / "summary.json"
        summary.save(path)
        assert SessionSummary.load(path) == summary


class TestMerge:
    @given(summaries(KIND_PROFILE), summaries(KIND_PROFILE))
    def test_merge_sums_counters(self, a, b):
        merged = a + b
        for ev in set(a.totals) | set(b.totals):
            assert merged.totals[ev] == (
                a.totals.get(ev, 0) + b.totals.get(ev, 0)
            )
        a_sym = {e.key: e.counts for e in a.symbols}
        b_sym = {e.key: e.counts for e in b.symbols}
        m_sym = {e.key: e.counts for e in merged.symbols}
        assert set(m_sym) == set(a_sym) | set(b_sym)
        for key, counts in m_sym.items():
            ac = a_sym.get(key, {})
            bc = b_sym.get(key, {})
            for ev in set(ac) | set(bc):
                assert counts[ev] == ac.get(ev, 0) + bc.get(ev, 0)
        for name in set(a.panels) | set(b.panels):
            ap = a.panels.get(name, {})
            bp = b.panels.get(name, {})
            for k in set(ap) | set(bp):
                assert merged.panels[name][k] == pytest.approx(
                    ap.get(k, 0) + bp.get(k, 0)
                )

    @given(summaries(KIND_PROFILE), summaries(KIND_PROFILE))
    def test_merge_keeps_first_seen_event_order(self, a, b):
        merged = a + b
        assert merged.events == a.events + tuple(
            ev for ev in b.events if ev not in a.events
        )

    @given(summaries(KIND_PROFILE), summaries(KIND_PROFILE))
    def test_merge_meta_keeps_only_agreement(self, a, b):
        merged = a + b
        for k, v in merged.meta.items():
            assert a.meta.get(k) == v and b.meta.get(k) == v

    def test_merge_rejects_kind_mismatch(self):
        with pytest.raises(AnalysisError, match="cannot merge"):
            SessionSummary(kind=KIND_PROFILE).merge(
                SessionSummary(kind=KIND_ARTIFACTS)
            )


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(AnalysisError, match="unknown summary kind"):
            SessionSummary(kind="nonsense")

    def test_unsupported_schema_version_rejected(self):
        doc = SessionSummary().to_dict()
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(AnalysisError, match="schema_version"):
            SessionSummary.from_dict(doc)

    def test_bool_counter_rejected(self):
        doc = SessionSummary().to_dict()
        doc["panels"] = {"layers": {"kernel": True}}
        with pytest.raises(AnalysisError, match="must be a number"):
            SessionSummary.from_dict(doc)

    def test_bool_total_rejected(self):
        doc = SessionSummary().to_dict()
        doc["totals"] = {"GLOBAL_POWER_EVENTS": True}
        with pytest.raises(AnalysisError, match="not an integer"):
            SessionSummary.from_dict(doc)

    def test_garbage_json_rejected(self):
        with pytest.raises(AnalysisError, match="not valid JSON"):
            SessionSummary.from_json("{nope")
