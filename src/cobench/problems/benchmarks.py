"""Parsers for public benchmark file formats.

TSPLIB (EUC_2D node-coordinate files) for TSP, and Taillard-style job shop
files (header with J and M, a Times block, and a Machines block).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Union

from .types import Instance, ProblemKind, RoutingInstance, SchedulingInstance


def parse_tsplib(source: Union[str, Path]) -> Instance:
    """Parse a TSPLIB TSP file with EUC_2D coordinates.

    `source` is a path, or the file's text with its newlines. Node ids are
    1-based in the file and renumbered to 0-based in id order. Raises
    ValueError on non-Euclidean or malformed files.
    """
    text = _read(source)
    headers: dict[str, str] = {}
    lines = text.splitlines()
    coord_start = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped.upper().startswith("NODE_COORD_SECTION"):
            coord_start = i + 1
            break
        if ":" in stripped:
            key, _, value = stripped.partition(":")
            headers[key.strip().upper()] = value.strip()
    if coord_start is None:
        raise ValueError("no NODE_COORD_SECTION found")

    problem_type = headers.get("TYPE", "TSP").upper()
    if problem_type not in ("TSP",):
        raise ValueError(f"unsupported TSPLIB TYPE {problem_type!r}")
    weight_type = headers.get("EDGE_WEIGHT_TYPE", "").upper()
    if weight_type != "EUC_2D":
        raise ValueError(f"unsupported EDGE_WEIGHT_TYPE {weight_type!r} (need EUC_2D)")

    entries: List[tuple[int, float, float]] = []
    for line in lines[coord_start:]:
        stripped = line.strip()
        if not stripped or stripped.upper() in ("EOF", "-1"):
            break
        parts = stripped.split()
        if len(parts) != 3:
            raise ValueError(f"malformed coordinate line: {stripped!r}")
        entries.append((int(parts[0]), float(parts[1]), float(parts[2])))

    dimension = int(headers.get("DIMENSION", len(entries)))
    if len(entries) != dimension:
        raise ValueError(f"DIMENSION {dimension} but {len(entries)} coordinate lines")
    entries.sort(key=lambda e: e[0])
    coords = tuple((x, y) for _, x, y in entries)

    name = headers.get("NAME", "tsplib")
    return Instance(
        kind=ProblemKind.TSP,
        payload=RoutingInstance(coords=coords),
        id=name,
        seed=None,
        meta={"source": "tsplib", "name": name},
    )


_INT_LINE = re.compile(r"^[\s\d]+$")


def parse_taillard(source: Union[str, Path]) -> Instance:
    """Parse a Taillard-format job shop file into a JSSP instance.

    Format: a header line whose first two integers are J and M (descriptive
    "Nb of jobs..." lines are skipped), a "Times" block of J rows with M
    durations, and a "Machines" block of J rows with 1-based machine ids.
    Files concatenating several instances yield the first one.
    """
    text = _read(source)
    lines = [ln.strip() for ln in text.splitlines()]

    header_idx = None
    for i, ln in enumerate(lines):
        if ln and _INT_LINE.match(ln):
            header_idx = i
            break
    if header_idx is None:
        raise ValueError("no numeric header line found")
    header = [int(x) for x in lines[header_idx].split()]
    if len(header) < 2:
        raise ValueError("header line must contain at least J and M")
    jobs, machines = header[0], header[1]
    if jobs < 1 or machines < 1:
        raise ValueError(f"bad dimensions J={jobs}, M={machines}")

    def block_after(marker: str, search_from: int) -> int:
        for i in range(search_from, len(lines)):
            if lines[i].lower().startswith(marker):
                return i + 1
        raise ValueError(f"no {marker!r} block found")

    def read_rows(start: int) -> tuple[list[list[int]], int]:
        rows: list[list[int]] = []
        i = start
        while len(rows) < jobs:
            if i >= len(lines):
                raise ValueError("unexpected end of file inside block")
            if lines[i]:
                vals = [int(x) for x in lines[i].split()]
                if len(vals) != machines:
                    raise ValueError(f"expected {machines} values per row, got {len(vals)}")
                rows.append(vals)
            i += 1
        return rows, i

    times_start = block_after("times", header_idx + 1)
    times, after_times = read_rows(times_start)
    machines_start = block_after("machines", after_times)
    machine_rows, _ = read_rows(machines_start)

    order = tuple(tuple(m - 1 for m in row) for row in machine_rows)  # 1-based in file
    payload = SchedulingInstance(
        ptimes=tuple(tuple(row) for row in times),
        machine_order=order,
    )
    name = f"taillard-{jobs}x{machines}"
    return Instance(
        kind=ProblemKind.JSSP,
        payload=payload,
        id=name,
        seed=None,
        meta={"source": "taillard", "jobs": str(jobs), "machines": str(machines)},
    )


def write_taillard(inst: Instance) -> str:
    """Render a JSSP instance in Taillard format (inverse of parse_taillard)."""
    if inst.kind is not ProblemKind.JSSP:
        raise ValueError("only JSSP instances have a Taillard form")
    p = inst.payload
    lines = [f"{p.num_jobs} {p.num_machines}"]
    lines.append("Times")
    for row in p.ptimes:
        lines.append(" ".join(str(t) for t in row))
    lines.append("Machines")
    for row in p.machine_order:
        lines.append(" ".join(str(m + 1) for m in row))
    return "\n".join(lines) + "\n"


def _read(source: Union[str, Path]) -> str:
    # No valid file fits on one line: a string without a newline is a path.
    if isinstance(source, Path) or "\n" not in source:
        return Path(source).read_text()
    return source
