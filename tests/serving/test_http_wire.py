"""The HTTP/1.1 codec (``repro.serving.http.wire``) against the stdlib.

The serve path no longer imports ``http.server`` or ``http.client``;
here they are the oracle.  Server-side cases speak to a real
:class:`EmbeddingServer` over raw sockets and read the answers with the
stdlib header parser; client-side cases point :class:`ServingClient` at
a stdlib ``http.server`` stub that frames its responses in the ways a
server may.
"""

from __future__ import annotations

import http.client
import http.server
import json
import socket
import threading
import time

import pytest

from repro.serving.http import ServingClient, ServingUnavailable, protocol, wire
from repro.serving.http import server as server_module
from repro.serving.http.server import EmbeddingServer
from repro.serving.obs.metrics import family_total
from repro.serving.service import QueryService


@pytest.fixture()
def server(store):
    with QueryService(store, backend="exact") as service:
        with EmbeddingServer(service) as server:
            yield server


def _connect(server, timeout: float = 5.0) -> socket.socket:
    return socket.create_connection((server.host, server.port), timeout=timeout)


def _read_response(fp, *, head: bool = False):
    """(status, headers, body) of one response, parsed by the stdlib."""
    status_line = fp.readline()
    assert status_line, "connection closed before a status line"
    version, status, _ = status_line.decode("latin-1").split(" ", 2)
    assert version == "HTTP/1.1"
    headers = http.client.parse_headers(fp)
    length = headers.get("Content-Length")
    body = b"" if head or length is None else fp.read(int(length))
    return int(status), headers, body


def _one_shot(server, raw: bytes):
    """Send ``raw`` in one write; the one response, and whether the
    server then closed the connection."""
    with _connect(server) as sock:
        sock.sendall(raw)
        fp = sock.makefile("rb")
        status, headers, body = _read_response(fp)
        closed = fp.read() == b""
    return status, headers, body, closed


def _errors(server, code: str) -> float:
    return family_total(server.registry.as_dict(), "http_errors_total", code=code)


class TestFramingErrors:
    """Early framing failures: JSON envelope, ``Connection: close``, counted."""

    @pytest.mark.parametrize(
        "raw, status, code",
        [
            # Exactly MAX_LINE + 1 bytes, so the server reads all it was sent.
            (b"GET /" + b"a" * (wire.MAX_LINE - 4), 414, "uri_too_long"),
            (
                b"GET /healthz HTTP/1.1\r\nX-Long: "
                + b"a" * (wire.MAX_LINE - 7),
                431,
                "header_fields_too_large",
            ),
            (
                b"GET /healthz HTTP/1.1\r\n"
                + b"".join(b"X-H%d: 1\r\n" % i for i in range(wire.MAX_HEADERS + 1)),
                431,
                "header_fields_too_large",
            ),
            (b"GARBAGE\r\n\r\n", 400, "invalid_request"),
            (b"GET /healthz\r\n\r\n", 400, "invalid_request"),
            (b"GET /healthz HTTP/1.1\r\nNo-Colon-Here\r\n\r\n", 400, "invalid_request"),
            (b"GET /healthz HTTP/1.1\r\n Folded: x\r\n\r\n", 400, "invalid_request"),
            (b"GET /healthz HTTP/1.1\r\nBad Name: x\r\n\r\n", 400, "invalid_request"),
            (b"GET /healthz HTTP/2.0\r\n\r\n", 505, "http_version_not_supported"),
            (b"GET /healthz HTTP/3.0\r\n\r\n", 505, "http_version_not_supported"),
        ],
    )
    def test_unframeable_head(self, server, raw, status, code):
        before = _errors(server, code)
        got, headers, body, closed = _one_shot(server, raw)
        assert got == status
        assert headers["Content-Type"] == protocol.JSON_CONTENT_TYPE
        assert headers["Connection"] == "close" and closed
        error = json.loads(body)["error"]
        assert error["code"] == code
        assert error["request_id"] == headers[protocol.REQUEST_ID_HEADER]
        assert _errors(server, code) == before + 1

    @pytest.mark.parametrize("declared", ["1_6", "+5", " 0x10", "١٦", "-0"])
    def test_content_length_is_digits_only(self, server, declared):
        raw = (
            f"POST {protocol.TOPK} HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n"
            '{"node": 1}    '
        ).encode()
        status, headers, body, closed = _one_shot(server, raw)
        assert status == 400
        assert json.loads(body)["error"]["code"] == "invalid_request"
        assert headers["Connection"] == "close" and closed

    def test_two_content_lengths_are_refused(self, server):
        """The first no longer silently wins: a proxy that frames by the
        other one would see a smuggled request in what follows."""
        smuggled = b"GET /v1/describe HTTP/1.1\r\n\r\n"
        raw = (
            f"POST {protocol.TOPK} HTTP/1.1\r\nContent-Length: 11\r\n"
            f"content-length: {11 + len(smuggled)}\r\n\r\n"
        ).encode() + b'{"node": 1}' + smuggled
        before = _errors(server, "invalid_request")
        status, headers, body, closed = _one_shot(server, raw)
        assert status == 400
        assert "Content-Length" in json.loads(body)["error"]["message"]
        assert headers["Connection"] == "close" and closed
        assert _errors(server, "invalid_request") == before + 1


class TestServerInterop:
    def test_pipelined_requests_in_one_send(self, server):
        body = b'{"node": 3, "k": 2}'
        raw = (
            f"POST {protocol.TOPK} HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(body)}\r\nX-Request-Id: first\r\n\r\n"
        ).encode() + body + (
            f"GET {protocol.HEALTHZ} HTTP/1.1\r\nHost: x\r\n"
            "X-Request-Id: second\r\n\r\n"
        ).encode()
        with _connect(server) as sock:
            sock.sendall(raw)
            fp = sock.makefile("rb")
            first = _read_response(fp)
            second = _read_response(fp)
            # Still open: a third request on the same connection answers.
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            third = _read_response(fp)
        assert first[0] == 200 and first[1][protocol.REQUEST_ID_HEADER] == "first"
        assert len(json.loads(first[2])["ids"]) == 2
        assert second[0] == 200 and second[1][protocol.REQUEST_ID_HEADER] == "second"
        assert json.loads(second[2])["status"] == "ok"
        assert third[0] == 200

    def test_http10_closes_unless_kept_alive(self, server):
        status, headers, _, closed = _one_shot(server, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert status == 200 and headers["Connection"] == "close" and closed
        with _connect(server) as sock:
            fp = sock.makefile("rb")
            for _ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
                status, headers, _ = _read_response(fp)
                assert status == 200 and headers["Connection"] == "keep-alive"

    def test_expect_100_continue(self, server):
        body = b'{"node": 4, "k": 3}'
        with _connect(server) as sock:
            sock.sendall(
                (
                    f"POST {protocol.TOPK} HTTP/1.1\r\nExpect: 100-continue\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode()
            )
            fp = sock.makefile("rb")
            assert fp.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert fp.readline() == b"\r\n"
            sock.sendall(body)
            status, _, answer = _read_response(fp)
        assert status == 200 and len(json.loads(answer)["ids"]) == 3

    def test_header_case_and_whitespace(self, server):
        body = b'{"node": 2, "k": 1}'
        raw = (
            f"POST  {protocol.TOPK}  HTTP/1.1\r\n"
            f"cOnTeNt-LeNgTh: \t{len(body)}  \r\n"
            "CONTENT-type:application/json \r\n"
            "x-REQUEST-id:\t  spaced-id \t\r\n\r\n"
        ).encode() + body
        with _connect(server) as sock:
            sock.sendall(raw)
            status, headers, answer = _read_response(sock.makefile("rb"))
        assert status == 200
        assert headers[protocol.REQUEST_ID_HEADER] == "spaced-id"
        assert len(json.loads(answer)["ids"]) == 1

    def test_head_has_no_body(self, server):
        """Pipelined HEAD then GET: the HEAD answer declares a length but
        sends no body, so the GET's status line follows its head."""
        with _connect(server) as sock:
            sock.sendall(b"HEAD /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n")
            fp = sock.makefile("rb")
            status, headers, _ = _read_response(fp, head=True)
            assert status == 200 and int(headers["Content-Length"]) > 0
            status, _, body = _read_response(fp)
        assert status == 200 and json.loads(body)["status"] == "ok"

    def test_stalled_peer_hits_the_timeout(self, server, monkeypatch):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.3)
        # Mid-head: the connection is closed, nothing is answered.
        with _connect(server) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
            start = time.monotonic()
            assert sock.recv(1024) == b""
            assert time.monotonic() - start < 4.0
        # Mid-body: a structured 400, then close.
        with _connect(server) as sock:
            sock.sendall(
                f"POST {protocol.TOPK} HTTP/1.1\r\nContent-Length: 40\r\n\r\n{{".encode()
            )
            fp = sock.makefile("rb")
            status, headers, body = _read_response(fp)
            assert status == 400 and headers["Connection"] == "close"
            assert "read failed" in json.loads(body)["error"]["message"]
            assert fp.read() == b""


class _Stub(http.server.BaseHTTPRequestHandler):
    """Frames its answer the way ``server.mode`` says."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:
        pass

    def do_GET(self) -> None:
        self._answer()

    def do_POST(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self._answer()

    def _answer(self) -> None:
        stub = self.server
        stub.seen.append((self.command, self.path))
        body = json.dumps({"status": "ok", "version": "v1"}).encode()
        json_type = b"Content-Type: application/json\r\n"
        if stub.mode == "chunked":
            self.wfile.write(
                b"HTTP/1.1 200 OK\r\n" + json_type
                + b"Transfer-Encoding: chunked\r\n\r\n"
                + b"%x;ext=1\r\n%s\r\n" % (5, body[:5])
                + b"%X\r\n%s\r\n" % (len(body) - 5, body[5:])
                + b"0\r\nX-Trailer: t\r\n\r\n"
            )
        elif stub.mode == "read_to_close":
            self.wfile.write(b"HTTP/1.1 200 OK\r\n" + json_type + b"\r\n" + body)
            self.close_connection = True
        elif stub.mode == "close":
            self.wfile.write(
                b"HTTP/1.1 200 OK\r\n" + json_type
                + b"Connection: close\r\nContent-Length: %d\r\n\r\n" % len(body)
                + body
            )
            self.close_connection = True
        else:  # "garbage"
            self.wfile.write(b"HTTP/1.1 OK 200\r\n\r\n")
            self.close_connection = True


@pytest.fixture()
def stub():
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    httpd.daemon_threads = True
    httpd.mode, httpd.seen = "chunked", []
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)


def _url(httpd) -> str:
    host, port = httpd.server_address[:2]
    return f"http://{host}:{port}"


class TestClientInterop:
    @pytest.mark.parametrize(
        "mode, pooled",
        [("chunked", 1), ("read_to_close", 0), ("close", 0)],
    )
    def test_response_framings(self, stub, mode, pooled):
        stub.mode = mode
        client = ServingClient(_url(stub), retries=0)
        for _ in range(2):
            assert client.healthz() == {"status": "ok", "version": "v1"}
        assert len(client.replicas[0]._idle) == pooled
        client.close()

    def test_malformed_status_line_fails_over_a_read(self, stub, server):
        stub.mode = "garbage"
        client = ServingClient([_url(stub), server.url], retries=1)
        assert client.healthz()["status"] == "ok"
        attempts = client.request_trace()[0]["attempts"]
        assert "malformed status line" in attempts[0]["error"]
        assert attempts[1]["status"] == 200

    def test_malformed_status_line_is_not_retried_on_a_write(self, stub, server):
        stub.mode = "garbage"
        client = ServingClient([_url(stub), server.url], retries=3)
        with pytest.raises(ServingUnavailable) as excinfo:
            client.refresh()
        assert "malformed status line" in str(excinfo.value.details)
        assert stub.seen == [("POST", protocol.REFRESH)]
