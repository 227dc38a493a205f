"""The evaluation loop, and an HTTP sampler for OpenAI-style endpoints.

`evaluate` is the one loop behind every run: a sampler maps an instance to
its raw completions, and the mock policy and the HTTP endpoint differ only
in that sampler. Each worker thread takes the next instance and appends its
completions to a JSONL file, as raw text keyed by instance id, as soon as its
request completes, so a crash loses no response that came back, and a rerun
on the same file samples only the instances without a row. The file is only
appended to, apart from dropping a final line that a crash cut short; its
rows may be in any order, because summaries do not depend on the order of
their records. Metrics are always rederived from the raw text by
`build_candidate`, which also strips thinking blocks, so a resumed run and
`cobench report` cannot drift from a fresh one.

The HTTP sampler posts through the standard library's `urllib.request`, one
connection per request, so the runtime needs no HTTP package. urllib routes
each request through the `http_proxy` or `https_proxy` the environment names,
unless `no_proxy` exempts its host.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import logging
import math
import os
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Container, Dict, Iterable, List, Optional, Sequence, Tuple

from ..problems.io import ReferenceSolution
from ..problems.types import Instance
from ..tai.encode import encode
from ..tai.render import render_prompt
from .metrics import EvalRecord, build_record

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model_name: str
    temperature: float = 0.0
    top_p: float = 1.0
    max_tokens: int = 2048
    n_samples: int = 1
    timeout: float = 120.0
    max_parallel: int = 4
    retries: int = 3
    backoff: float = 1.0
    api_key_env: str = "COBENCH_API_KEY"

    def __post_init__(self) -> None:
        for name, least in (("n_samples", 1), ("max_parallel", 1), ("retries", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        if not 0 <= self.backoff < math.inf:
            raise ValueError("backoff must be finite and >= 0")
        if not 0 < self.timeout < math.inf:
            raise ValueError("timeout must be finite and > 0")


def _headers(cfg: EndpointConfig) -> Dict[str, str]:
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(cfg.api_key_env, "")
    if key:
        headers["Authorization"] = f"Bearer {key}"
    return headers


# The longest Retry-After delay honoured, in seconds; a longer one is cut
# to this, so a server cannot park a worker thread for hours.
MAX_RETRY_AFTER = 600.0


def _post_once(cfg: EndpointConfig, prompt: str, n: int) -> List[str]:
    body = json.dumps({
        "model": cfg.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
        "top_p": cfg.top_p,
        "max_tokens": cfg.max_tokens,
        "n": n,
    }).encode()
    url = cfg.base_url.rstrip("/") + "/chat/completions"
    req = urllib.request.Request(url, data=body, method="POST")
    for name, value in _headers(cfg).items():
        # Not sent on to where a redirect points, so the API key stays here.
        req.add_unredirected_header(name, value)
    with urllib.request.urlopen(req, timeout=cfg.timeout) as resp:
        reply = json.loads(resp.read())
    return [c["message"]["content"] for c in reply["choices"]]


def _retry_after(err: Exception) -> float:
    """The delay-seconds in a 429 or 503 reply's Retry-After header, capped at
    MAX_RETRY_AFTER. 0 for any other failure, and for a header that is an
    HTTP-date, junk or absent, which leave the backoff alone."""
    if not (isinstance(err, urllib.error.HTTPError) and err.code in (429, 503)):
        return 0.0
    value = (err.headers.get("Retry-After") or "").strip()
    if not (value.isascii() and value.isdigit()):
        return 0.0
    return min(float(value), MAX_RETRY_AFTER)


def request_samples(cfg: EndpointConfig, prompt: str) -> List[str]:
    """Collect n_samples completions, retrying with exponential backoff. A
    server that returns fewer choices than asked is asked again for the
    missing ones; one that returns none fails.

    A client error (a 4xx status other than 429) fails at once, because the
    same request would be refused again. A 429 or 503 that carries a
    Retry-After delay in seconds waits that long when it exceeds the
    backoff. A 200 reply that is not JSON, or not shaped like a chat
    completion, is retried like a server error."""
    texts: List[str] = []
    while len(texts) < cfg.n_samples:
        want = cfg.n_samples - len(texts)
        for attempt in range(cfg.retries + 1):
            try:
                got = _post_once(cfg, prompt, want)
                break
            except urllib.error.HTTPError as err:
                err.close()
                last_err, status = err, err.code
            except (OSError, http.client.HTTPException, KeyError, TypeError, ValueError) as err:
                last_err, status = err, 0
            if attempt == cfg.retries or (400 <= status < 500 and status != 429):
                raise RuntimeError(
                    f"endpoint request failed after {attempt + 1} attempts: {last_err}"
                ) from last_err
            delay = max(cfg.backoff * (2**attempt), _retry_after(last_err))
            logger.warning("endpoint error (%s); retrying in %.1fs", last_err, delay)
            time.sleep(delay)
        if not got:
            raise RuntimeError("endpoint returned no choices")
        texts.extend(got[:want])
    return texts


def load_rows(path: Path) -> Tuple[Dict[str, dict], int]:
    """The rows of a JSONL response file by instance id, and the byte length
    of the file up to the end of its last whole row.

    A later row for an id replaces an earlier one. An unparsable final line,
    left by a write cut short, is skipped. An unparsable line anywhere else,
    or a row that is not an object with a string instance_id, a raw_texts
    list or null, and a numeric wall_time if any, raises ValueError naming
    its line."""
    rows: Dict[str, dict] = {}
    end = 0
    lines = path.read_bytes().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.strip():
            try:
                row = json.loads(line)
            except ValueError as err:
                if i == len(lines) - 1:
                    break
                raise ValueError(f"{path} line {i + 1}: {err}") from None
            if not _row_ok(row):
                raise ValueError(
                    f"{path} line {i + 1}: expected an object with a string "
                    "instance_id, a raw_texts list or null, and a numeric wall_time if any"
                )
            rows[row["instance_id"]] = row
        end += len(line)
    return rows, end


def _row_ok(row: object) -> bool:
    return (
        isinstance(row, dict)
        and isinstance(row.get("instance_id"), str)
        and "raw_texts" in row
        and (row["raw_texts"] is None or isinstance(row["raw_texts"], list))
        and isinstance(row.get("wall_time", 0.0), (int, float))
    )


def _line(row: dict) -> bytes:
    return json.dumps(row).encode() + b"\n"


def require_references(ids: Iterable[str], references: Container[str]) -> None:
    """Raise ValueError naming the first five of ids that have no reference."""
    missing = [iid for iid in ids if iid not in references]
    if missing:
        raise ValueError(f"missing references for: {', '.join(missing[:5])}")


def record_from_row(inst: Instance, row: dict, reference_objective: float) -> EvalRecord:
    """Score one row's raw texts; a row whose sampling failed has none."""
    texts = row["raw_texts"] or ()
    return build_record(inst, texts, reference_objective, row.get("wall_time", 0.0))


def evaluate(
    instances: Sequence[Instance],
    references: Dict[str, ReferenceSolution],
    sample: Callable[[Instance], List[str]],
    out_path: Optional[Path] = None,
    max_parallel: int = 1,
) -> List[EvalRecord]:
    """Ask `sample` for each instance's raw completions and score them
    Best-of-N, sampling up to max_parallel instances at a time.

    When out_path is given, each instance's row is appended there as soon as
    its samples arrive, and instances that already have a row are not
    sampled again. The file is never rewritten: only a final line cut short
    is dropped.

    A sampler that raises RuntimeError (a request that failed after its
    retries) yields a record with zero candidates that is not persisted, so
    a rerun retries it; the batch itself never aborts. When a sampler raises
    anything else, or the caller is interrupted, no further instance is
    started, the rows of those in flight are appended once they finish, and
    the exception propagates. An instance without a reference raises
    ValueError before any request. Records are in instance order."""
    require_references((inst.id for inst in instances), references)
    rows: Dict[str, dict] = {}  # the file's rows, and this call's, failed ones too
    with contextlib.ExitStack() as stack:
        fh: Optional[BinaryIO] = None
        if out_path is not None:
            out_path = Path(out_path)
            out_path.parent.mkdir(parents=True, exist_ok=True)
            fh = stack.enter_context(out_path.open("a+b"))
            rows, end = load_rows(out_path)
            fh.truncate(end)  # drop a final line cut short
            fh.seek(max(end - 1, 0))
            if fh.read(1) not in (b"", b"\n"):
                fh.write(b"\n")  # the next row starts on a fresh line

        pending = [inst for inst in instances if inst.id not in rows]
        todo = iter(pending)
        lock, stop = threading.Lock(), threading.Event()

        def work() -> None:
            """Sample the next pending instance and keep its row, until none
            is left or the run stops."""
            while True:
                with lock:
                    inst = None if stop.is_set() else next(todo, None)
                if inst is None:
                    return
                t0 = time.perf_counter()
                try:
                    texts: Optional[List[str]] = sample(inst)
                    if texts is not None and not texts:
                        raise ValueError("n_samples must be >= 1")
                except RuntimeError as err:
                    logger.error("instance %s: %s", inst.id, err)
                    texts = None
                except BaseException:
                    stop.set()
                    raise
                wall = time.perf_counter() - t0
                row = {"instance_id": inst.id, "raw_texts": texts, "wall_time": wall}
                with lock:
                    rows[inst.id] = row
                    if fh is not None and texts is not None:
                        fh.write(_line(row))
                        fh.flush()

        pool = stack.enter_context(ThreadPoolExecutor(max_workers=max_parallel))
        try:
            for worker in [pool.submit(work) for _ in range(min(max_parallel, len(pending)))]:
                worker.result()
        except BaseException:
            stop.set()  # leaving the pool waits for the rows in flight
            raise
    return [
        record_from_row(inst, rows[inst.id], references[inst.id].objective)
        for inst in instances
    ]


def evaluate_endpoint(
    instances: Sequence[Instance],
    references: Dict[str, ReferenceSolution],
    cfg: EndpointConfig,
    out_path: Optional[Path] = None,
) -> List[EvalRecord]:
    """`evaluate` with completions sampled from the endpoint in cfg."""

    def sample(inst: Instance) -> List[str]:
        return request_samples(cfg, render_prompt(encode(inst)))

    return evaluate(instances, references, sample, out_path, cfg.max_parallel)
