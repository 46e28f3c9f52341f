"""The synthetic workload generator: determinism, bounds, knobs."""

import tracemalloc

import pytest

from repro.errors import WorkloadError
from repro.workloads import (SyntheticSpec, characterize, generate,
                             make_preset)


def spec(**overrides) -> SyntheticSpec:
    base = dict(name="t", logical_pages=4096, num_requests=2000,
                write_ratio=0.5, seed=7)
    base.update(overrides)
    return SyntheticSpec(**base)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = generate(spec())
        b = generate(spec())
        assert [(r.op, r.lpn, r.npages, r.arrival) for r in a] == \
               [(r.op, r.lpn, r.npages, r.arrival) for r in b]

    def test_different_seed_different_trace(self):
        a = generate(spec(seed=1))
        b = generate(spec(seed=2))
        assert [(r.lpn) for r in a] != [(r.lpn) for r in b]


class TestBounds:
    def test_all_requests_in_address_space(self):
        trace = generate(spec(seq_read_fraction=0.5,
                              seq_write_fraction=0.5,
                              mean_read_pages=3.0, mean_write_pages=3.0))
        for request in trace:
            assert 0 <= request.lpn
            assert request.end_lpn <= trace.logical_pages

    def test_request_count(self):
        assert len(generate(spec(num_requests=123))) == 123

    def test_arrivals_monotonic(self):
        trace = generate(spec())
        arrivals = [r.arrival for r in trace]
        assert arrivals == sorted(arrivals)

    def test_zero_interarrival_allowed(self):
        trace = generate(spec(mean_interarrival_us=0.0))
        assert all(r.arrival == 0.0 for r in trace)


def test_trace_holds_its_columns_only():
    """A generated trace is its five columns: at most 32 B per request
    under ``tracemalloc`` (a list of request objects was 136), and the
    generator builds nothing larger on the way."""
    tracemalloc.start()
    try:
        trace = make_preset("financial1", num_requests=20_000)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == 20_000
    assert retained <= 32 * len(trace)
    assert peak <= 32 * len(trace)


class TestKnobs:
    def test_write_ratio_respected(self):
        trace = generate(spec(write_ratio=0.8, num_requests=5000))
        stats = characterize(trace)
        assert stats.write_ratio == pytest.approx(0.8, abs=0.03)

    def test_mean_request_size(self):
        trace = generate(spec(mean_read_pages=2.5, mean_write_pages=2.5,
                              num_requests=5000))
        stats = characterize(trace)
        assert stats.avg_request_bytes / 4096 == pytest.approx(2.5,
                                                               rel=0.15)

    def test_zipf_concentrates_accesses(self):
        uniform = generate(spec(zipf_alpha=1.0, num_requests=5000))
        skewed = generate(spec(zipf_alpha=16.0, num_requests=5000))
        assert (characterize(skewed).footprint_pages
                < characterize(uniform).footprint_pages / 2)

    def test_sequential_fraction_produces_runs(self):
        seq = generate(spec(seq_read_fraction=0.9, write_ratio=0.0,
                            num_requests=5000, mean_stream_pages=64))
        rand = generate(spec(seq_read_fraction=0.0, write_ratio=0.0,
                             num_requests=5000))
        assert (characterize(seq).seq_read_fraction
                > characterize(rand).seq_read_fraction + 0.2)

    def test_stream_align_quantises_run_starts(self):
        trace = generate(spec(seq_write_fraction=1.0, write_ratio=1.0,
                              stream_align=64, mean_stream_pages=32,
                              num_requests=500))
        starts = set()
        expected = None
        for request in trace:
            if request.lpn != expected:  # a fresh run
                starts.add(request.lpn)
            expected = request.end_lpn
        assert all(start % 64 == 0 for start in starts)


class TestStreamRotation:
    def test_rotation_resumes_paused_runs(self):
        """Rotating streams must not clobber other streams' live runs.

        With several sticky streams and short runs, the generator
        frequently rotates; a rotation that *resets* the stream it
        lands on (the old bug) can never resume a paused run, so every
        post-rotation request would start a fresh aligned run.  Count
        resumptions: requests that continue the expected next LPN of a
        run paused earlier (not the immediately preceding request).
        """
        trace = generate(self._rotation_spec(streams=4))
        # the reset-on-rotation bug scores ~14 here (pure LPN-collision
        # noise — the same level a single stream shows); real
        # resumptions push the count an order of magnitude higher
        assert self._resumptions(trace) > 100

    def test_resumptions_measure_cross_stream_interleaving(self):
        """The counter is specific: one stream has nothing to resume.

        With a single sticky stream every rotation lands back on the
        (exhausted) stream and restarts it, so resumption events can
        only be LPN collisions; multiple streams must score far above
        that noise floor — which is exactly what the old unconditional
        reset made impossible.
        """
        noise = self._resumptions(
            generate(self._rotation_spec(streams=1)))
        multi = self._resumptions(
            generate(self._rotation_spec(streams=4)))
        assert multi > 5 * max(noise, 1)

    @staticmethod
    def _rotation_spec(streams: int) -> SyntheticSpec:
        """Short runs + small requests: rotation on every few requests."""
        return spec(streams=streams, write_ratio=0.0,
                    seq_read_fraction=1.0, mean_read_pages=2.5,
                    mean_stream_pages=8, stream_align=16,
                    num_requests=4000)

    @staticmethod
    def _resumptions(trace) -> int:
        """Requests that continue a run paused before the previous one."""
        paused = set()
        prev_end = None
        count = 0
        for request in trace:
            if request.lpn == prev_end:
                prev_end = request.end_lpn
                continue
            if request.lpn in paused:
                count += 1
                paused.discard(request.lpn)
            if prev_end is not None:
                paused.add(prev_end)
            prev_end = request.end_lpn
        return count


class TestValidation:
    @pytest.mark.parametrize("overrides", [
        {"logical_pages": 0},
        {"num_requests": -1},
        {"write_ratio": 1.5},
        {"seq_read_fraction": -0.1},
        {"zipf_alpha": 0.5},
        {"mean_read_pages": 0.5},
        {"streams": 0},
        {"mean_stream_pages": 0},
        {"stream_align": 0},
        {"stream_start_alpha": 0.0},
        {"mean_interarrival_us": -1.0},
    ])
    def test_rejects_bad_spec(self, overrides):
        with pytest.raises(WorkloadError):
            spec(**overrides)
