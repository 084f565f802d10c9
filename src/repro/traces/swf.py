"""Standard Workload Format (SWF) reader and writer.

The Parallel Workloads Archive distributes every trace (including HPC2N, the
real-world workload of the paper) in SWF: one line per job with 18
whitespace-separated fields, header/comment lines starting with ``;``.  This
module parses and writes that format losslessly for the fields the DFRS
pipeline needs; unknown or missing values use the SWF convention of ``-1``.

Archive downloads are usually gzip-compressed (``*.swf.gz``); every reader
here opens those transparently.  Header directives (``; MaxNodes: 120`` and
friends) are parsed into a :class:`SwfHeader` instead of being discarded, and
:func:`iter_swf_records` streams records one at a time so arbitrarily long
traces can feed the streaming simulation path of :mod:`repro.traces` in
bounded memory.

Field reference (1-based, as in the SWF specification):

1. job number              7. used memory (KB per processor)
2. submit time (s)         8. requested number of processors
3. wait time (s)           9. requested time (s)
4. run time (s)           10. requested memory (KB per processor)
5. allocated processors   11. status
6. average CPU time (s)   12-18. user/group/app/queue/partition/prec/think
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from ..exceptions import TraceFormatError

__all__ = [
    "SwfRecord",
    "SwfHeader",
    "open_trace_text",
    "parse_swf",
    "parse_swf_lines",
    "parse_swf_with_header",
    "iter_swf_records",
    "read_swf_header",
    "write_swf",
    "swf_header",
]

_NUM_FIELDS = 18


@dataclass(frozen=True)
class SwfHeader:
    """Metadata parsed from the ``;``-comment directives of an SWF trace.

    The Parallel Workloads Archive convention is ``; Key: value`` lines at
    the top of the file.  The well-known keys used by this pipeline get
    typed attributes; every directive (known or not) is also kept verbatim
    in ``directives`` so nothing is lost.
    """

    computer: Optional[str] = None
    max_nodes: Optional[int] = None
    max_procs: Optional[int] = None
    unix_start_time: Optional[int] = None
    directives: Tuple[Tuple[str, str], ...] = ()

    def directives_dict(self) -> Dict[str, str]:
        return dict(self.directives)

    @classmethod
    def from_comment_lines(cls, lines: Iterable[str]) -> "SwfHeader":
        """Build a header from the raw ``;`` comment lines of a trace."""
        directives: List[Tuple[str, str]] = []
        for raw in lines:
            stripped = raw.strip().lstrip(";").strip()
            if ":" not in stripped:
                continue
            key, _, value = stripped.partition(":")
            key = key.strip()
            value = value.strip()
            if key:
                directives.append((key, value))
        mapping = dict(directives)
        return cls(
            computer=mapping.get("Computer"),
            max_nodes=_int_directive(mapping, "MaxNodes"),
            max_procs=_int_directive(mapping, "MaxProcs"),
            unix_start_time=_int_directive(mapping, "UnixStartTime"),
            directives=tuple(directives),
        )


def _int_directive(mapping: Dict[str, str], key: str) -> Optional[int]:
    value = mapping.get(key)
    if value is None:
        return None
    try:
        return int(float(value.split()[0]))
    except (ValueError, IndexError):
        return None


def open_trace_text(path: Union[str, Path], mode: str = "rt") -> TextIO:
    """Open a trace file as text, transparently (de)compressing ``.gz``.

    ``mode`` is ``"rt"`` or ``"wt"``.  The shared gzip seam of every trace
    format in this package (SWF here, the internal JSON format in
    :mod:`repro.traces.io`); reads substitute undecodable bytes so a stray
    binary glitch cannot abort a multi-gigabyte parse.
    """
    path = Path(path)
    errors = "replace" if "r" in mode else None
    if path.suffix == ".gz":
        return gzip.open(path, mode, encoding="utf-8", errors=errors)
    return path.open(mode.replace("t", ""), encoding="utf-8", errors=errors)


def _open_trace(path: Path) -> TextIO:
    """Open an SWF trace for reading, transparently decompressing ``.gz``."""
    return open_trace_text(path, "rt")


@dataclass(frozen=True)
class SwfRecord:
    """One job line of an SWF trace (missing values are ``-1``)."""

    job_number: int
    submit_time: float
    wait_time: float = -1.0
    run_time: float = -1.0
    allocated_processors: int = -1
    average_cpu_time: float = -1.0
    used_memory_kb: float = -1.0
    requested_processors: int = -1
    requested_time: float = -1.0
    requested_memory_kb: float = -1.0
    status: int = -1
    user_id: int = -1
    group_id: int = -1
    executable: int = -1
    queue: int = -1
    partition: int = -1
    preceding_job: int = -1
    think_time: float = -1.0

    @property
    def processors(self) -> int:
        """Best available processor count (requested, falling back to allocated)."""
        if self.requested_processors > 0:
            return self.requested_processors
        return self.allocated_processors

    def is_usable(self) -> bool:
        """True when the record has the minimum data needed for simulation."""
        return self.run_time > 0 and self.processors > 0 and self.submit_time >= 0

    def to_line(self) -> str:
        """Serialize the record as one SWF line."""
        fields = [
            self.job_number,
            _fmt(self.submit_time),
            _fmt(self.wait_time),
            _fmt(self.run_time),
            self.allocated_processors,
            _fmt(self.average_cpu_time),
            _fmt(self.used_memory_kb),
            self.requested_processors,
            _fmt(self.requested_time),
            _fmt(self.requested_memory_kb),
            self.status,
            self.user_id,
            self.group_id,
            self.executable,
            self.queue,
            self.partition,
            self.preceding_job,
            _fmt(self.think_time),
        ]
        return " ".join(str(value) for value in fields)


def _fmt(value: float) -> Union[int, float]:
    """Render integral floats as integers, as conventional SWF files do."""
    if float(value).is_integer():
        return int(value)
    return round(float(value), 2)


def _parse_line(line: str, line_number: int) -> SwfRecord:
    parts = line.split()
    if len(parts) < _NUM_FIELDS:
        # Tolerate short lines by padding with the "unknown" marker; several
        # archive traces omit trailing fields.
        parts = parts + ["-1"] * (_NUM_FIELDS - len(parts))
    try:
        return SwfRecord(
            job_number=int(float(parts[0])),
            submit_time=float(parts[1]),
            wait_time=float(parts[2]),
            run_time=float(parts[3]),
            allocated_processors=int(float(parts[4])),
            average_cpu_time=float(parts[5]),
            used_memory_kb=float(parts[6]),
            requested_processors=int(float(parts[7])),
            requested_time=float(parts[8]),
            requested_memory_kb=float(parts[9]),
            status=int(float(parts[10])),
            user_id=int(float(parts[11])),
            group_id=int(float(parts[12])),
            executable=int(float(parts[13])),
            queue=int(float(parts[14])),
            partition=int(float(parts[15])),
            preceding_job=int(float(parts[16])),
            think_time=float(parts[17]),
        )
    except (ValueError, IndexError) as exc:
        raise TraceFormatError(
            f"line {line_number}: cannot parse SWF record: {line!r}"
        ) from exc


def _walk(lines: Iterable[str]) -> Iterator[Tuple[int, str, bool]]:
    """The one SWF line walk under every reader.

    Yields ``(line number, stripped line, is a ';' comment)`` for each
    non-blank line.
    """
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line:
            yield line_number, line, line.startswith(";")


def _existing(path: Union[str, Path]) -> Path:
    path = Path(path)
    if not path.exists():
        raise TraceFormatError(f"SWF trace not found: {path}")
    return path


def parse_swf_lines(lines: Iterable[str]) -> List[SwfRecord]:
    """Parse SWF content given as an iterable of lines."""
    return [
        _parse_line(line, line_number)
        for line_number, line, comment in _walk(lines)
        if not comment
    ]


def parse_swf(path: Union[str, Path]) -> List[SwfRecord]:
    """Parse an SWF file (optionally gzip-compressed) from disk."""
    return parse_swf_with_header(path)[1]


def parse_swf_with_header(
    path: Union[str, Path]
) -> Tuple[SwfHeader, List[SwfRecord]]:
    """Parse an SWF file, returning its header metadata and records."""
    comments: List[str] = []
    records: List[SwfRecord] = []
    with _open_trace(_existing(path)) as handle:
        for line_number, line, comment in _walk(handle):
            if comment:
                comments.append(line)
            else:
                records.append(_parse_line(line, line_number))
    return SwfHeader.from_comment_lines(comments), records


def read_swf_header(path: Union[str, Path]) -> SwfHeader:
    """Read only the leading comment header of an SWF file.

    Stops at the first job line, so it is cheap even on multi-gigabyte
    traces.
    """
    comments: List[str] = []
    with _open_trace(_existing(path)) as handle:
        for _, line, comment in _walk(handle):
            if not comment:
                break
            comments.append(line)
    return SwfHeader.from_comment_lines(comments)


def iter_swf_records(path: Union[str, Path]) -> Iterator[SwfRecord]:
    """Stream the records of an SWF file one at a time.

    A missing file is reported here, at call time (matching
    :func:`parse_swf`), not at first iteration.  The file handle stays open
    for the lifetime of the returned iterator; exhausting (or
    garbage-collecting) it closes the file.  This is the bounded-memory
    intake used by :class:`repro.traces.SwfTraceSource`.
    """
    path = _existing(path)

    def _stream() -> Iterator[SwfRecord]:
        with _open_trace(path) as handle:
            for line_number, line, comment in _walk(handle):
                if not comment:
                    yield _parse_line(line, line_number)

    return _stream()


def swf_header(
    *,
    computer: str = "synthetic",
    max_nodes: int = 0,
    max_procs: int = 0,
    note: str = "",
) -> List[str]:
    """Standard comment header lines for a generated SWF file."""
    lines = [
        f"; Computer: {computer}",
        f"; MaxNodes: {max_nodes}",
        f"; MaxProcs: {max_procs}",
        "; Format: SWF standard 18-field records",
    ]
    if note:
        lines.append(f"; Note: {note}")
    return lines


def write_swf(
    records: Iterable[SwfRecord],
    destination: Union[str, Path, TextIO],
    *,
    header: Optional[Sequence[str]] = None,
) -> None:
    """Write records to ``destination`` (path or open text file)."""
    def _emit(handle: TextIO) -> None:
        for line in header or []:
            handle.write(line.rstrip("\n") + "\n")
        for record in records:
            handle.write(record.to_line() + "\n")

    if hasattr(destination, "write"):
        _emit(destination)  # type: ignore[arg-type]
        return
    path = Path(destination)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open_trace_text(path, "wt") as handle:
        _emit(handle)
