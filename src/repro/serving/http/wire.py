"""The HTTP/1.1 codec both ends of the wire share.

The server, :class:`~repro.serving.http.client.ServingClient` and the
standby's feed fetch frame their bytes here and nowhere else; the subset
spoken is in ``docs/SERVING.md``.  Bytes that cannot be framed raise
:class:`ProtocolError`, an ``OSError``: to a client it is one more
transport failure (redial, fail over), and a server answers it with
:attr:`ProtocolError.status` and closes.
"""

from __future__ import annotations

import functools
import re
import socket
import time
from http import HTTPStatus
from typing import NamedTuple

#: Longest request, status or header line accepted, in bytes.
MAX_LINE = 64 << 10
#: Most header lines accepted in one head.
MAX_HEADERS = 100

_TOKEN = rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+"
_FIELD_NAME = re.compile(_TOKEN)
_REQUEST_LINE = re.compile(
    rb"(" + _TOKEN + rb") +(\S+) +HTTP/([0-9])\.([0-9])\r?\n"
)
_STATUS_LINE = re.compile(rb"HTTP/1\.([0-9]) +([0-9]{3})(?: [^\r\n]*)?\r?\n")
_HEX = re.compile(rb"[0-9A-Fa-f]+")


class ProtocolError(OSError):
    """Bytes that cannot be framed as HTTP/1.1.

    ``status`` is what a server answers before it closes the connection.
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class Request(NamedTuple):
    """A request head; header names are lower-cased."""

    method: str
    target: str
    version: str
    headers: dict

    @property
    def keep_alive(self) -> bool:
        tokens = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return "keep-alive" in tokens
        return "close" not in tokens


class Response(NamedTuple):
    """A whole response; header names are lower-cased."""

    status: int
    headers: dict
    body: bytes
    will_close: bool


# -- reading ------------------------------------------------------------
def _line(rfile, too_long: int) -> bytes:
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise ProtocolError(f"line longer than {MAX_LINE} bytes", too_long)
    return line


def _read_headers(rfile) -> dict:
    headers: dict[str, str] = {}
    for count in range(MAX_HEADERS + 1):
        line = _line(rfile, 431)
        if line in (b"\r\n", b"\n"):
            return headers
        if count == MAX_HEADERS:
            break
        if not line.endswith(b"\n"):
            raise ProtocolError("connection closed inside a message head")
        name, colon, value = line.partition(b":")
        if not colon or not _FIELD_NAME.fullmatch(name):
            raise ProtocolError(f"malformed header line {line[:80]!r}")
        key = name.decode("latin-1").lower()
        text = value.strip(b" \t\r\n").decode("latin-1")
        if key not in headers:
            headers[key] = text
        elif key == "content-length":
            # Two lengths frame one body two ways: behind a proxy that
            # reads the other one, the rest is a smuggled request.
            raise ProtocolError("more than one Content-Length header")
        else:
            headers[key] += ", " + text
    raise ProtocolError(f"more than {MAX_HEADERS} header lines", 431)


def content_length(headers: dict) -> int | None:
    """The declared body length; ``None`` when there is none."""
    value = headers.get("content-length")
    if value is None:
        return None
    if not (value.isascii() and value.isdigit()):
        raise ProtocolError(f"bad Content-Length {value[:40]!r}")
    return int(value)


def read_request(rfile) -> Request | None:
    """The next request head, or ``None`` when the peer closed between requests."""
    line = _line(rfile, 414)
    while line in (b"\r\n", b"\n"):  # RFC 9112 §2.2: skip stray blank lines
        line = _line(rfile, 414)
    if not line:
        return None
    match = _REQUEST_LINE.fullmatch(line)
    if match is None:
        raise ProtocolError(f"malformed request line {line[:80]!r}")
    method, target, major, minor = match.groups()
    if major != b"1":
        raise ProtocolError(f"HTTP/{major.decode()} is not spoken here", 505)
    return Request(
        method.decode("ascii"),
        target.decode("latin-1"),
        f"HTTP/1.{minor.decode()}",
        _read_headers(rfile),
    )


def _read_exactly(rfile, n: int) -> bytes:
    data = rfile.read(n)
    if len(data) != n:
        raise ProtocolError(f"connection closed {len(data)}/{n} bytes into a body")
    return data


def _read_chunked(rfile) -> bytes:
    parts = []
    while True:
        size = _line(rfile, 400).split(b";", 1)[0].strip()
        if not _HEX.fullmatch(size):
            raise ProtocolError(f"bad chunk size {size[:40]!r}")
        if int(size, 16) == 0:
            _read_headers(rfile)  # trailers, ignored
            return b"".join(parts)
        parts.append(_read_exactly(rfile, int(size, 16)))
        if _line(rfile, 400) not in (b"\r\n", b"\n"):
            raise ProtocolError("chunk not followed by CRLF")


def read_response(rfile, method: str) -> Response:
    """One whole response to a ``method`` request."""
    line = _line(rfile, 400)
    if not line:
        raise ProtocolError("connection closed before a status line")
    match = _STATUS_LINE.fullmatch(line)
    if match is None:
        raise ProtocolError(f"malformed status line {line[:80]!r}")
    headers = _read_headers(rfile)
    status = int(match.group(2))
    tokens = headers.get("connection", "").lower()
    will_close = "close" in tokens or (
        match.group(1) == b"0" and "keep-alive" not in tokens
    )
    if method == "HEAD" or status in (204, 304):
        body = b""
    elif "chunked" in headers.get("transfer-encoding", "").lower():
        body = _read_chunked(rfile)
    else:
        length = content_length(headers)
        if length is None:
            body, will_close = rfile.read(), True
        else:
            body = _read_exactly(rfile, length)
    return Response(status, headers, body, will_close)


# -- writing ------------------------------------------------------------
@functools.lru_cache(maxsize=2)
def _http_date(second: int) -> str:
    # Day and month names are the C locale's: nothing here sets LC_TIME.
    return time.strftime("%a, %d %b %Y %H:%M:%S GMT", time.gmtime(second))


@functools.lru_cache(maxsize=64)
def _status_line(status: int) -> str:
    return f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"


def response_bytes(
    status: int, content_type: str, body: bytes, fields=(), *, send_body=True
) -> bytes:
    """A response, head and body, ready for one write.

    ``fields`` are extra ``(name, value)`` pairs; ``send_body=False``
    (a ``HEAD``) keeps the body's ``Content-Length`` but not its bytes.
    """
    head = (
        _status_line(status)
        + f"Date: {_http_date(int(time.time()))}\r\n"
        + f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
        + "".join(f"{name}: {value}\r\n" for name, value in fields)
        + "\r\n"
    ).encode("latin-1")
    return head + body if send_body else head


#: What a server sends before reading a body the client holds back for it.
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


class Connection:
    """One client socket and its buffered reader: one exchange at a time.

    ``sock`` is ``None`` once closed.
    """

    def __init__(self, host: str, port: int, timeout_s: float) -> None:
        self._host = f"{host}:{port}"
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        try:
            # Without TCP_NODELAY an exchange can stall ~40 ms behind
            # the peer's delayed ACK (Nagle).
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._rfile = self.sock.makefile("rb")
        except OSError:
            self.sock.close()
            raise

    def exchange(
        self, method: str, target: str, fields: dict, body: bytes | None = None
    ) -> Response:
        """Send one request in one write and read its whole response."""
        head = f"{method} {target} HTTP/1.1\r\nHost: {self._host}\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in fields.items()
        )
        if body is not None:
            head += f"Content-Length: {len(body)}\r\n"
        self.sock.sendall(head.encode("latin-1") + b"\r\n" + (body or b""))
        return read_response(self._rfile, method)

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            self._rfile.close()
            sock.close()
