"""An in-process stand-in for an OpenAI-style chat completions endpoint.

It answers each prompt with completions recorded for that prompt in advance,
so the evaluation loop under test does real HTTP, threading and JSONL work
while the "model" costs next to nothing. The server measures its own busy
time, which shares the interpreter lock with the client.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List


class EchoChatServer:
    """Serve ``replies[prompt]`` on ``POST <url>/chat/completions``.

    Use it as a context manager: the server listens on a free localhost port
    while the block runs, and every thread it started has ended afterwards.
    """

    def __init__(self, replies: Dict[str, List[str]]):
        self.replies = replies
        self.busy_s = 0.0
        self.requests = 0
        self._lock = threading.Lock()
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), self._handler_class())
        self._httpd.daemon_threads = False  # server_close joins request threads
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}
        )

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/v1"

    def __enter__(self) -> "EchoChatServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join()

    def _record(self, seconds: float) -> None:
        with self._lock:
            self.busy_s += seconds
            self.requests += 1

    def _handler_class(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:
                t0 = time.perf_counter()
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                texts = server.replies.get(body["messages"][-1]["content"])
                if texts is None:
                    self.send_error(404, "no recorded completions for this prompt")
                    server._record(time.perf_counter() - t0)
                    return
                choices = [
                    {
                        "index": i,
                        "message": {"role": "assistant", "content": text},
                        "finish_reason": "stop",
                    }
                    for i, text in enumerate(texts[: int(body.get("n", 1))])
                ]
                payload = json.dumps({"object": "chat.completion", "choices": choices})
                data = payload.encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                server._record(time.perf_counter() - t0)

            def log_message(self, format, *args) -> None:  # keep stderr quiet
                pass

        return Handler
