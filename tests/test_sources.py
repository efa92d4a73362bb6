"""Tests for the pull-based source protocol (``repro.streams.sources``).

Sources are the ingestion contract of the incremental engine path: every
source must be *restartable* (each ``__iter__`` yields the same
deterministic event sequence) and *picklable* (configuration, not
iterator state), and the JSONL replay format must round-trip recorded
traffic exactly.
"""

import itertools
import json
import pickle

import pytest

from repro.streams.generators import zipf_pair
from repro.streams.replay import (
    JSONL_FORMAT,
    JSONL_VERSION,
    load_pair_jsonl,
    save_pair,
    save_pair_jsonl,
)
from repro.streams.sources import (
    DriftingZipfSource,
    PairSource,
    PoissonSource,
    ReplaySource,
    Source,
    ZipfSource,
    as_source,
    take_pair,
)
from repro.streams.tuples import StreamPair


def events_of(source, ticks=None):
    it = iter(source)
    if ticks is not None:
        it = itertools.islice(it, ticks)
    return list(it)


# ----------------------------------------------------------------------
# PairSource
# ----------------------------------------------------------------------

class TestPairSource:
    def test_adapts_pair_one_arrival_per_side_per_tick(self):
        pair = zipf_pair(50, 10, 1.0, seed=7)
        source = PairSource(pair)
        assert source.length == 50
        events = events_of(source)
        assert len(events) == 50
        assert all(len(r) == 1 and len(s) == 1 for r, s in events)
        assert [r[0] for r, _ in events] == list(pair.r)
        assert [s[0] for _, s in events] == list(pair.s)

    def test_rejects_non_pair(self):
        with pytest.raises(TypeError, match="StreamPair"):
            PairSource([1, 2, 3])

    def test_restartable(self):
        source = PairSource(zipf_pair(20, 5, 1.0, seed=1))
        assert events_of(source) == events_of(source)

    def test_satisfies_protocol(self):
        source = PairSource(zipf_pair(5, 5, 1.0, seed=1))
        assert isinstance(source, Source)


# ----------------------------------------------------------------------
# generator sources
# ----------------------------------------------------------------------

class TestZipfSource:
    def test_deterministic_and_restartable(self):
        source = ZipfSource(20, 1.0, seed=3, length=500)
        first = events_of(source)
        assert len(first) == 500
        assert first == events_of(source)
        assert first == events_of(ZipfSource(20, 1.0, seed=3, length=500))

    def test_synchronous_by_default(self):
        for r_batch, s_batch in events_of(ZipfSource(10, 0.5, seed=1), ticks=100):
            assert len(r_batch) == 1
            assert len(s_batch) == 1

    def test_unbounded_without_length(self):
        source = ZipfSource(10, 1.0, seed=0)
        assert source.length is None
        # islice over an unbounded source terminates — no materialization.
        assert len(events_of(source, ticks=10_000)) == 10_000

    def test_bounded_prefix_matches_unbounded(self):
        bounded = events_of(ZipfSource(10, 1.0, seed=5, length=300))
        unbounded = events_of(ZipfSource(10, 1.0, seed=5), ticks=300)
        assert bounded == unbounded

    def test_seed_changes_sequence(self):
        a = events_of(ZipfSource(10, 1.0, seed=1, length=200))
        b = events_of(ZipfSource(10, 1.0, seed=2, length=200))
        assert a != b

    def test_keys_within_domain(self):
        for r_batch, s_batch in events_of(ZipfSource(8, 1.5, seed=2, length=400)):
            assert all(0 <= k < 8 for k in r_batch + s_batch)

    def test_pickle_round_trip(self):
        source = ZipfSource(
            16, 1.2, skew_s=0.6, correlation="anticorrelated", seed=9, length=250
        )
        clone = pickle.loads(pickle.dumps(source))
        assert events_of(clone) == events_of(source)
        assert clone.length == source.length

    def test_distributions_exposed_for_oracle(self):
        source = ZipfSource(10, 1.0, seed=4)
        dist_r, dist_s = source.distributions()
        probs_r = dist_r.probabilities()
        assert len(probs_r) == 10
        assert probs_r.sum() == pytest.approx(1.0)
        assert dist_s.probabilities().sum() == pytest.approx(1.0)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError, match="length"):
            ZipfSource(10, 1.0, length=-1)


class TestPoissonSource:
    def test_bursty_batches(self):
        events = events_of(PoissonSource(10, 1.0, rate=2.0, seed=3, length=500))
        sizes = {len(r) for r, _ in events} | {len(s) for _, s in events}
        assert len(sizes) > 1  # genuinely bursty: varying batch sizes
        assert 0 in sizes  # some ticks are quiet
        total = sum(len(r) for r, _ in events)
        assert 0.5 * 2.0 * 500 < total < 1.5 * 2.0 * 500  # mass near rate*ticks

    def test_deterministic_and_picklable(self):
        source = PoissonSource(10, 1.0, rate=0.7, seed=11, length=300)
        first = events_of(source)
        assert first == events_of(source)
        assert first == events_of(pickle.loads(pickle.dumps(source)))

    def test_requires_rate(self):
        with pytest.raises((TypeError, ValueError)):
            PoissonSource(10, 1.0, rate=None)


class TestDriftingZipfSource:
    def test_deterministic_and_restartable(self):
        source = DriftingZipfSource(20, 1.0, phase_length=100, seed=6, length=350)
        first = events_of(source)
        assert len(first) == 350
        assert first == events_of(source)
        assert first == events_of(pickle.loads(pickle.dumps(source)))

    def test_phases_have_distinct_distributions(self):
        source = DriftingZipfSource(50, 1.5, phase_length=200, seed=0)
        dist0_r, _ = source.phase_distributions(0)
        dist1_r, _ = source.phase_distributions(1)
        assert list(dist0_r.probabilities()) != list(dist1_r.probabilities())

    def test_phase_distributions_deterministic(self):
        source = DriftingZipfSource(30, 1.0, phase_length=50, seed=2)
        a_r, a_s = source.phase_distributions(3)
        b_r, b_s = source.phase_distributions(3)
        assert list(a_r.probabilities()) == list(b_r.probabilities())
        assert list(a_s.probabilities()) == list(b_s.probabilities())

    def test_rejects_bad_phase_length(self):
        with pytest.raises(ValueError, match="phase_length"):
            DriftingZipfSource(10, 1.0, phase_length=0)


# ----------------------------------------------------------------------
# JSONL replay format (satellite: versioned, round-trips)
# ----------------------------------------------------------------------

class TestReplayJsonl:
    def test_round_trips_through_load_pair_jsonl(self, tmp_path):
        pair = zipf_pair(80, 12, 1.0, seed=13)
        path = tmp_path / "rec.jsonl"
        save_pair_jsonl(pair, path)
        loaded = load_pair_jsonl(path)
        assert list(loaded.r) == list(pair.r)
        assert list(loaded.s) == list(pair.s)
        assert loaded.name == pair.name

    def test_header_is_versioned(self, tmp_path):
        pair = zipf_pair(10, 5, 1.0, seed=1)
        path = tmp_path / "rec.jsonl"
        save_pair_jsonl(pair, path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == JSONL_FORMAT
        assert header["version"] == JSONL_VERSION
        assert header["length"] == 10

    def test_replay_source_streams_identical_events(self, tmp_path):
        pair = zipf_pair(60, 8, 1.0, seed=21)
        path = tmp_path / "rec.jsonl"
        save_pair_jsonl(pair, path)
        source = ReplaySource(path)
        assert source.length == 60
        assert events_of(source) == events_of(PairSource(pair))
        # restartable: a second pass re-reads the file
        assert events_of(source) == events_of(PairSource(pair))

    def test_replay_source_is_picklable(self, tmp_path):
        pair = zipf_pair(15, 5, 1.0, seed=2)
        path = tmp_path / "rec.jsonl"
        save_pair_jsonl(pair, path)
        source = pickle.loads(pickle.dumps(ReplaySource(path)))
        assert events_of(source) == events_of(PairSource(pair))

    def test_replay_source_carries_bursty_ticks(self, tmp_path):
        path = tmp_path / "bursty.jsonl"
        lines = [
            {"format": JSONL_FORMAT, "version": JSONL_VERSION, "name": "b", "length": 3},
            {"t": 0, "r": [1, 2], "s": []},
            {"t": 1, "r": [], "s": [3]},
            {"t": 2, "r": [4], "s": [5, 6]},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        assert events_of(ReplaySource(path)) == [
            ((1, 2), ()), ((), (3,)), ((4,), (5, 6)),
        ]
        # …but a bursty recording cannot collapse to a synchronous pair
        with pytest.raises(ValueError, match="one"):
            load_pair_jsonl(path)

    def test_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "other", "version": 1}) + "\n")
        with pytest.raises(ValueError, match="format"):
            ReplaySource(path)
        with pytest.raises(ValueError, match="format"):
            load_pair_jsonl(path)

    def test_rejects_future_version(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"format": JSONL_FORMAT, "version": JSONL_VERSION + 1}) + "\n"
        )
        with pytest.raises(ValueError, match="version"):
            ReplaySource(path)
        with pytest.raises(ValueError, match="version"):
            load_pair_jsonl(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ReplaySource(path)

    def test_rejects_non_contiguous_ticks(self, tmp_path):
        path = tmp_path / "gap.jsonl"
        lines = [
            {"format": JSONL_FORMAT, "version": JSONL_VERSION, "length": 2},
            {"t": 0, "r": [1], "s": [1]},
            {"t": 5, "r": [2], "s": [2]},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        with pytest.raises(ValueError, match="contiguous"):
            events_of(ReplaySource(path))

    def test_truncated_record_names_file_and_line(self, tmp_path):
        # A recording cut mid-record: the error must say which file and
        # which line, not just the decoder's column offset.
        path = tmp_path / "cut.jsonl"
        save_pair_jsonl(zipf_pair(10, 5, 1.0, seed=1), path)
        text = path.read_text()
        cut = text.index("\n", text.index('"t": 3')) - 4  # inside line 5
        path.write_text(text[:cut])
        source = ReplaySource(path)  # the header is intact
        with pytest.raises(ValueError, match=r"cut\.jsonl: line 5: malformed"):
            events_of(source)
        with pytest.raises(ValueError, match=r"cut\.jsonl: line 5: malformed"):
            load_pair_jsonl(path)

    def test_corrupt_header_names_file_and_line(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"format": "repro.str')
        with pytest.raises(ValueError, match=r"torn\.jsonl: line 1: malformed"):
            ReplaySource(path)
        with pytest.raises(ValueError, match=r"torn\.jsonl: line 1: malformed"):
            load_pair_jsonl(path)

    def test_non_object_record_is_rejected(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        header = {"format": JSONL_FORMAT, "version": JSONL_VERSION, "length": 2}
        path.write_text(json.dumps(header) + "\n" + '{"t": 0, "r": [1], "s": [1]}\n7\n')
        with pytest.raises(ValueError, match="line 3: expected a JSON object"):
            events_of(ReplaySource(path))
        with pytest.raises(ValueError, match="line 3: expected a JSON object"):
            load_pair_jsonl(path)

    def test_csv_recordings_replay_too(self, tmp_path):
        pair = zipf_pair(25, 6, 1.0, seed=4)
        path = tmp_path / "rec.csv"
        save_pair(pair, path)
        assert events_of(ReplaySource(path)) == events_of(PairSource(pair))


# ----------------------------------------------------------------------
# coercion helpers
# ----------------------------------------------------------------------

class TestHelpers:
    def test_as_source_wraps_pairs_and_passes_sources(self):
        pair = zipf_pair(10, 5, 1.0, seed=1)
        wrapped = as_source(pair)
        assert isinstance(wrapped, PairSource)
        source = ZipfSource(5, 1.0, length=10)
        assert as_source(source) is source
        with pytest.raises(TypeError, match="Source"):
            as_source(42)

    def test_take_pair_materializes_prefix(self):
        source = ZipfSource(10, 1.0, seed=8, length=1000)
        pair = take_pair(source, 50)
        assert len(pair) == 50
        assert list(pair.r) == [r[0] for r, _ in events_of(source, ticks=50)]

    def test_take_pair_whole_bounded_source(self):
        source = ZipfSource(10, 1.0, seed=8, length=40)
        assert len(take_pair(source)) == 40

    def test_take_pair_rejects_bursty_sources(self):
        source = PoissonSource(10, 1.0, rate=3.0, seed=1, length=50)
        with pytest.raises(ValueError, match="one arrival"):
            take_pair(source, 50)
