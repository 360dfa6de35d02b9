"""Line-protocol client helpers for the CI smoke steps.

The steps talk to `dsearch serve --tcp` and `dsearch route --tcp` over real
sockets, as any client does:

    PYTHONPATH=ci python3 - <<'EOF'
    import wire
    with wire.running("target/release/dsearch", "serve", "--store", "s",
                      "--tcp", "127.0.0.1:7492") as serve:
        client = wire.Client(7492)
        print(client.ask("rust"))
        print(wire.hwm_kb(serve.pid))
    EOF

An answer is a status line (`OK …` or `ERR …`), its body lines and `END`.
"""

import contextlib
import socket
import subprocess
import time


@contextlib.contextmanager
def running(*argv):
    """Runs `argv` with stdin on a pipe and ends it with `!quit` there (with
    `--tcp`, closing stdin alone leaves a server serving)."""
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        yield proc
    finally:
        # A process that died already has failed the step some other way.
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.write(b"!quit\n")
            proc.stdin.close()
        proc.wait(timeout=30)


class Client:
    """One connection to `host:port`, retried for up to ten seconds while the
    server starts; a read on it gives up after `timeout` seconds."""

    def __init__(self, port, host="127.0.0.1", timeout=60):
        for _ in range(100):
            try:
                self.conn = socket.create_connection((host, port))
                break
            except OSError:
                time.sleep(0.1)
        else:
            raise AssertionError(f"nothing listens on {host}:{port}")
        self.conn.settimeout(timeout)
        self.pending = bytearray()

    def send(self, data):
        self.conn.sendall(data)

    def answer(self):
        """The next answer: its lines through `END`, as one string.  What
        arrived past it stays buffered for the next call."""
        while True:
            # A status line always comes first, so `END` follows a newline.
            at = self.pending.find(b"\nEND\n")
            if at >= 0:
                answer = bytes(self.pending[:at + 5])
                del self.pending[:at + 5]
                return answer.decode()
            chunk = self.conn.recv(1 << 16)
            assert chunk, f"connection closed mid-answer: {bytes(self.pending[:200])!r}"
            self.pending += chunk

    def ask(self, line):
        """Sends one request line and returns its answer."""
        self.send(line.encode() + b"\n")
        return self.answer()

    def close(self):
        self.conn.close()


def pipeline(clients, lines):
    """Sends every line of `lines` down each of `clients` before reading any
    answer, then reads them all: as many clients at once as there are
    connections, each with all its requests in flight.  Returns every
    answer's status line."""
    payload = "".join(line + "\n" for line in lines).encode()
    for client in clients:
        client.send(payload)
    return [client.answer().split("\n", 1)[0] for client in clients for _ in lines]


def hwm_kb(pid):
    """The peak resident set (`VmHWM`) of process `pid`, in kB."""
    with open(f"/proc/{pid}/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
