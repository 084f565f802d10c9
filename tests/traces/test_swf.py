"""Tests for the SWF parser/writer and HPC2N preprocessing."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError, TraceFormatError, WorkloadError
from repro.traces import characterize_stream, scale_to_load
from repro.traces.hpc2n import Hpc2nLikeTraceGenerator, swf_to_dfrs_jobs
from repro.traces.swf import (
    SwfHeader,
    SwfRecord,
    iter_swf_records,
    parse_swf,
    parse_swf_lines,
    parse_swf_with_header,
    read_swf_header,
    swf_header,
    write_swf,
)

SAMPLE_SWF = """
; Computer: test cluster
; MaxProcs: 240
1 0 10 3600 4 3600 524288 4 7200 524288 1 1 1 1 1 -1 -1 -1
2 60 0 30 1 30 -1 1 60 -1 1 2 1 1 1 -1 -1 -1
3 120 5 86400 8 86000 1048576 8 90000 1048576 1 3 1 2 1 -1 -1 -1
; trailing comment
4 180 0 -1 2 -1 -1 2 100 -1 0 4 1 1 1 -1 -1 -1
"""


class TestSwfParsing:
    def test_parse_lines(self):
        records = parse_swf_lines(SAMPLE_SWF.splitlines())
        assert len(records) == 4
        first = records[0]
        assert first.job_number == 1
        assert first.submit_time == 0.0
        assert first.run_time == 3600.0
        assert first.used_memory_kb == 524288.0
        assert first.requested_processors == 4

    def test_processors_falls_back_to_allocated(self):
        record = SwfRecord(job_number=1, submit_time=0.0, allocated_processors=6,
                           requested_processors=-1, run_time=10.0)
        assert record.processors == 6

    def test_is_usable(self):
        records = parse_swf_lines(SAMPLE_SWF.splitlines())
        assert records[0].is_usable()
        assert not records[3].is_usable()  # run_time = -1

    def test_short_lines_are_padded(self):
        records = parse_swf_lines(["5 10 0 100 2"])
        assert records[0].job_number == 5
        assert records[0].requested_processors == -1

    def test_garbage_line_raises(self):
        with pytest.raises(TraceFormatError):
            parse_swf_lines(["not a number at all x y z a b c d e f g h i j k l m"])

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceFormatError):
            parse_swf(tmp_path / "missing.swf")

    def test_round_trip_through_file(self, tmp_path):
        records = parse_swf_lines(SAMPLE_SWF.splitlines())
        path = tmp_path / "out.swf"
        write_swf(records, path, header=swf_header(computer="test", max_procs=240))
        reread = parse_swf(path)
        assert len(reread) == len(records)
        assert reread[0].run_time == records[0].run_time
        assert reread[2].requested_processors == records[2].requested_processors

    def test_write_to_stream(self):
        records = parse_swf_lines(SAMPLE_SWF.splitlines())
        buffer = io.StringIO()
        write_swf(records, buffer)
        text = buffer.getvalue()
        assert len(text.strip().splitlines()) == 4

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10_000),
                st.floats(min_value=0, max_value=1e7),
                st.floats(min_value=1, max_value=1e6),
                st.integers(min_value=1, max_value=240),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, rows):
        records = [
            SwfRecord(job_number=n, submit_time=float(int(s)), run_time=float(int(r)),
                      allocated_processors=p, requested_processors=p)
            for n, s, r, p in rows
        ]
        buffer = io.StringIO()
        write_swf(records, buffer)
        reread = parse_swf_lines(buffer.getvalue().splitlines())
        assert len(reread) == len(records)
        for original, parsed in zip(records, reread):
            assert parsed.job_number == original.job_number
            assert parsed.submit_time == pytest.approx(original.submit_time)
            assert parsed.run_time == pytest.approx(original.run_time)
            assert parsed.processors == original.processors


class TestHpc2nPreprocessing:
    def test_even_processors_small_memory_become_dual_core_tasks(self):
        record = SwfRecord(job_number=1, submit_time=0.0, run_time=100.0,
                           allocated_processors=8, requested_processors=8,
                           used_memory_kb=0.2 * 2 * 1024 * 1024)
        workload = swf_to_dfrs_jobs([record])
        spec = workload.jobs[0]
        assert spec.num_tasks == 4
        assert spec.cpu_need == pytest.approx(1.0)
        assert spec.mem_requirement == pytest.approx(0.4)

    def test_odd_processors_keep_one_task_per_processor(self):
        record = SwfRecord(job_number=1, submit_time=0.0, run_time=100.0,
                           allocated_processors=3, requested_processors=3,
                           used_memory_kb=0.2 * 2 * 1024 * 1024)
        workload = swf_to_dfrs_jobs([record])
        spec = workload.jobs[0]
        assert spec.num_tasks == 3
        assert spec.cpu_need == pytest.approx(0.5)
        assert spec.mem_requirement == pytest.approx(0.2)

    def test_memory_hungry_even_job_not_paired(self):
        record = SwfRecord(job_number=1, submit_time=0.0, run_time=100.0,
                           allocated_processors=4, requested_processors=4,
                           used_memory_kb=0.6 * 2 * 1024 * 1024)
        workload = swf_to_dfrs_jobs([record])
        spec = workload.jobs[0]
        assert spec.num_tasks == 4
        assert spec.cpu_need == pytest.approx(0.5)
        assert spec.mem_requirement == pytest.approx(0.6)

    def test_missing_memory_defaults_to_ten_percent(self):
        record = SwfRecord(job_number=1, submit_time=0.0, run_time=100.0,
                           allocated_processors=1, requested_processors=1)
        workload = swf_to_dfrs_jobs([record])
        assert workload.jobs[0].mem_requirement == pytest.approx(0.1)

    def test_memory_is_max_of_used_and_requested(self):
        record = SwfRecord(job_number=1, submit_time=0.0, run_time=100.0,
                           allocated_processors=1, requested_processors=1,
                           used_memory_kb=0.2 * 2 * 1024 * 1024,
                           requested_memory_kb=0.7 * 2 * 1024 * 1024)
        workload = swf_to_dfrs_jobs([record])
        assert workload.jobs[0].mem_requirement == pytest.approx(0.7)

    def test_unusable_records_dropped(self):
        records = [
            SwfRecord(job_number=1, submit_time=0.0, run_time=-1.0,
                      allocated_processors=1),
            SwfRecord(job_number=2, submit_time=0.0, run_time=100.0,
                      allocated_processors=1, requested_processors=1),
        ]
        workload = swf_to_dfrs_jobs(records)
        assert workload.num_jobs == 1

    def test_all_unusable_raises(self):
        records = [SwfRecord(job_number=1, submit_time=0.0, run_time=-1.0)]
        with pytest.raises(WorkloadError):
            swf_to_dfrs_jobs(records)


class TestHpc2nLikeGenerator:
    def test_workload_shape(self):
        generator = Hpc2nLikeTraceGenerator(jobs_per_week=200)
        workload = generator.generate_workload(1, seed=5)
        assert workload.cluster.num_nodes == 120
        assert workload.num_jobs > 150
        profile, _ = characterize_stream(workload.jobs, workload.cluster)
        # The defining trait: a large majority of short serial jobs.
        assert profile.serial_fraction >= 0.6
        assert profile.median_runtime_seconds < profile.mean_runtime_seconds

    def test_records_are_valid_swf(self):
        generator = Hpc2nLikeTraceGenerator(jobs_per_week=100)
        records = list(generator.iter_records(1, seed=2))
        assert all(r.is_usable() or r.run_time <= 0 for r in records)
        buffer = io.StringIO()
        write_swf(records, buffer)
        assert len(parse_swf_lines(buffer.getvalue().splitlines())) == len(records)

    def test_determinism(self):
        generator = Hpc2nLikeTraceGenerator(jobs_per_week=100)
        first = generator.generate_workload(1, seed=9)
        second = generator.generate_workload(1, seed=9)
        assert [s.submit_time for s in first] == [s.submit_time for s in second]

    def test_invalid_configuration(self):
        with pytest.raises(WorkloadError):
            Hpc2nLikeTraceGenerator(serial_fraction=1.5)
        with pytest.raises(WorkloadError):
            Hpc2nLikeTraceGenerator(jobs_per_week=0)
        with pytest.raises(WorkloadError):
            list(Hpc2nLikeTraceGenerator().iter_records(0))


class TestScaling:
    def test_scale_to_load_hits_target(self, small_cluster):
        from repro.traces.lublin import LublinWorkloadGenerator

        workload = LublinWorkloadGenerator(small_cluster).generate(200, seed=1)
        for target in (0.1, 0.5, 0.9):
            scaled = scale_to_load(workload, target)
            assert scaled.load() == pytest.approx(target, rel=1e-6)
            assert scaled.num_jobs == workload.num_jobs

    def test_invalid_target(self, small_workload):
        with pytest.raises(ConfigurationError):
            scale_to_load(small_workload, 0.0)

    def test_too_few_jobs(self, small_cluster):
        from repro.traces.model import Workload
        from ..conftest import make_job

        workload = Workload("one", small_cluster, [make_job(0)])
        with pytest.raises(WorkloadError):
            scale_to_load(workload, 0.5)


HEADERED_SWF = """\
; Computer: Linux Cluster (HPC2N)
; MaxNodes: 120
; MaxProcs: 240
; UnixStartTime: 1027839845
; Note: preprocessed
1 0 10 3600 4 3600 524288 4 7200 524288 1 1 1 1 1 -1 -1 -1
2 60 0 30 1 30 -1 1 60 -1 1 2 1 1 1 -1 -1 -1
"""


class TestSwfHeader:
    def test_directives_parsed_into_typed_fields(self, tmp_path):
        path = tmp_path / "trace.swf"
        path.write_text(HEADERED_SWF, encoding="utf-8")
        header, records = parse_swf_with_header(path)
        assert header.computer == "Linux Cluster (HPC2N)"
        assert header.max_nodes == 120
        assert header.max_procs == 240
        assert header.unix_start_time == 1027839845
        assert header.directives_dict()["Note"] == "preprocessed"
        assert len(records) == 2

    def test_read_header_only_stops_at_first_job(self, tmp_path):
        path = tmp_path / "trace.swf"
        path.write_text(HEADERED_SWF, encoding="utf-8")
        header = read_swf_header(path)
        assert header.max_nodes == 120

    def test_headerless_trace_yields_empty_header(self, tmp_path):
        path = tmp_path / "bare.swf"
        path.write_text("1 0 0 100 1 100 -1 1 100 -1 1 1 1 1 1 -1 -1 -1\n")
        header, records = parse_swf_with_header(path)
        assert header == SwfHeader()
        assert len(records) == 1

    def test_malformed_directives_are_kept_verbatim_only(self):
        header = SwfHeader.from_comment_lines(
            ["; MaxNodes: not-a-number", "; no colon here", ";"]
        )
        assert header.max_nodes is None
        assert header.directives_dict() == {"MaxNodes": "not-a-number"}


class TestGzipTransparency:
    def _write_gz(self, tmp_path):
        import gzip

        path = tmp_path / "trace.swf.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(HEADERED_SWF)
        return path

    def test_parse_swf_opens_gz(self, tmp_path):
        path = self._write_gz(tmp_path)
        records = parse_swf(path)
        assert len(records) == 2
        assert records[0].job_number == 1

    def test_header_read_from_gz(self, tmp_path):
        header = read_swf_header(self._write_gz(tmp_path))
        assert header.max_nodes == 120

    def test_gz_and_plain_parse_identically(self, tmp_path):
        gz_path = self._write_gz(tmp_path)
        plain = tmp_path / "trace.swf"
        plain.write_text(HEADERED_SWF, encoding="utf-8")
        assert parse_swf(gz_path) == parse_swf(plain)

    def test_write_swf_compresses_gz_round_trip(self, tmp_path):
        records = parse_swf_lines(HEADERED_SWF.splitlines())
        path = tmp_path / "out.swf.gz"
        write_swf(records, path, header=swf_header(computer="x"))
        assert parse_swf(path) == records
        # The file on disk really is gzip (magic bytes), not plain text.
        assert path.read_bytes()[:2] == b"\x1f\x8b"


class TestStreamingIterator:
    def test_streams_records_lazily(self, tmp_path):
        path = tmp_path / "trace.swf"
        path.write_text(HEADERED_SWF, encoding="utf-8")
        iterator = iter_swf_records(path)
        first = next(iterator)
        assert first.job_number == 1
        assert [record.job_number for record in iterator] == [2]

    def test_matches_parse_swf(self, tmp_path):
        path = tmp_path / "trace.swf"
        path.write_text(HEADERED_SWF, encoding="utf-8")
        assert list(iter_swf_records(path)) == parse_swf(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceFormatError):
            list(iter_swf_records(tmp_path / "missing.swf"))
